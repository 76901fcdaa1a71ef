//! Aggregated results of one load run.

use qid_server::json::{obj, s, Json};

/// Everything one saturation run measured. Latency percentiles are
/// computed over the post-warm-up window only; byte counters cover the
/// whole connection lifetime (including warm-up), matching what the
/// server's `bytes_read`/`bytes_written` metrics see.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// `"closed"` or `"open"` (see [`crate::LoopMode`]).
    pub mode: String,
    /// Connections that completed the run.
    pub connections: usize,
    /// For open-loop runs, the scheduled aggregate request rate; 0 for
    /// closed loop.
    pub target_rps: u64,
    /// Measured-window wall time, seconds.
    pub elapsed_s: f64,
    /// Requests measured (after warm-up).
    pub requests: u64,
    /// Measured requests answered `"ok":true`.
    pub ok: u64,
    /// Measured requests answered with a structured error — still a
    /// served request, but counted separately so a mix that trips
    /// errors is visible.
    pub errors: u64,
    /// Connection-level failures: connect/write/read I/O errors or an
    /// unexpected EOF. A healthy run has zero.
    pub transport_errors: u64,
    /// Measured requests per second (`requests / elapsed_s`).
    pub rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile request latency, microseconds.
    pub p999_us: f64,
    /// Request bytes written to the sockets (newlines included).
    pub bytes_sent: u64,
    /// Response bytes read off the sockets.
    pub bytes_received: u64,
}

impl BenchReport {
    /// Assembles a report from raw per-request latencies
    /// (microseconds, unsorted — sorted in place here) and counters.
    #[allow(clippy::too_many_arguments)] // a plain result bundle
    pub fn from_raw(
        mode: &str,
        connections: usize,
        target_rps: u64,
        elapsed_s: f64,
        latencies_us: &mut [u64],
        ok: u64,
        errors: u64,
        transport_errors: u64,
        bytes_sent: u64,
        bytes_received: u64,
    ) -> BenchReport {
        latencies_us.sort_unstable();
        let requests = ok + errors;
        BenchReport {
            mode: mode.to_string(),
            connections,
            target_rps,
            elapsed_s,
            requests,
            ok,
            errors,
            transport_errors,
            rps: if elapsed_s > 0.0 {
                requests as f64 / elapsed_s
            } else {
                0.0
            },
            p50_us: quantile_us(latencies_us, 0.50),
            p99_us: quantile_us(latencies_us, 0.99),
            p999_us: quantile_us(latencies_us, 0.999),
            bytes_sent,
            bytes_received,
        }
    }

    /// Renders the report as one JSON line, the shape `qid bench --json`
    /// prints (every field is documented in `docs/BENCHMARKS.md`).
    pub fn to_json(&self) -> String {
        obj(vec![
            ("mode", s(&self.mode)),
            ("connections", Json::Int(self.connections as i64)),
            ("target_rps", Json::Int(self.target_rps as i64)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("requests", Json::Int(self.requests as i64)),
            ("ok", Json::Int(self.ok as i64)),
            ("errors", Json::Int(self.errors as i64)),
            ("transport_errors", Json::Int(self.transport_errors as i64)),
            ("rps", Json::Num(self.rps)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("p999_us", Json::Num(self.p999_us)),
            ("bytes_sent", Json::Int(self.bytes_sent as i64)),
            ("bytes_received", Json::Int(self.bytes_received as i64)),
        ])
        .render()
    }
}

/// Nearest-rank quantile over an ascending-sorted slice, in
/// microseconds; 0 for an empty slice.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_us(&sorted, 0.50), 500.0);
        assert_eq!(quantile_us(&sorted, 0.99), 990.0);
        assert_eq!(quantile_us(&sorted, 0.999), 999.0);
        assert_eq!(quantile_us(&[], 0.5), 0.0);
        assert_eq!(quantile_us(&[42], 0.999), 42.0);
    }

    #[test]
    fn report_renders_valid_json_with_every_field() {
        let mut lat: Vec<u64> = vec![300, 100, 200];
        let report = BenchReport::from_raw("closed", 4, 0, 2.0, &mut lat, 2, 1, 0, 400, 900);
        assert_eq!(report.requests, 3);
        assert_eq!(report.rps, 1.5);
        assert_eq!(report.p50_us, 200.0);
        let parsed = qid_server::json::parse(&report.to_json()).expect("valid json");
        for field in [
            "mode",
            "connections",
            "target_rps",
            "elapsed_s",
            "requests",
            "ok",
            "errors",
            "transport_errors",
            "rps",
            "p50_us",
            "p99_us",
            "p999_us",
            "bytes_sent",
            "bytes_received",
        ] {
            assert!(parsed.get(field).is_some(), "missing {field}");
        }
    }
}
