//! Lock-free server counters: per-command traffic, latency sums, and
//! fixed-size log₂ latency histograms for server-side p50/p99.
//!
//! # Bucket scheme
//!
//! Each command owns [`LATENCY_BUCKETS`] atomic counters per epoch. A
//! latency of `t` microseconds lands in bucket
//! `floor(log2(max(t, 1)))`, clamped to the last bucket — so bucket 0
//! covers 0–1 µs, bucket 1 covers 2–3 µs, bucket 10 covers ~1–2 ms,
//! and the top bucket (27) absorbs everything beyond ~2.2 minutes.
//! Quantiles are reported as the *upper edge* of the bucket containing
//! the requested rank, which overestimates the true quantile by at
//! most 2× — except for ranks landing in the open-ended top bucket,
//! whose ~4.5-minute edge *under*-reports anything slower — while
//! costing a fixed few hundred bytes per command instead of an
//! unbounded reservoir. The same scheme is documented in
//! `docs/ARCHITECTURE.md`.
//!
//! # Sliding window (two-epoch rotation)
//!
//! Quantiles describe *recent* traffic, not process history: each
//! histogram keeps **two** epochs of buckets. Records land in the
//! current epoch; quantiles sum both; every [`HISTOGRAM_EPOCH`] the
//! poller thread calls [`Metrics::rotate_histograms`], which zeroes
//! the older epoch and makes it current. A sample therefore influences
//! quantiles for one to two epochs and then vanishes — a long-running
//! server's `p99_us` reflects the last 1–2 minutes, not a latency
//! spike from last week. Counts, error counts and latency *sums*
//! remain cumulative since process start.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::proto::{CommandStats, MetricsReport};
use crate::registry::RegistrySnapshot;

/// Wire names of all commands, in the fixed order `metrics` reports.
/// Batch sub-commands are recorded under their own names *and* the
/// enclosing line under `batch`.
pub const COMMAND_NAMES: [&str; 12] = [
    "load", "audit", "key", "check", "sketch", "mask", "stats", "batch", "unload", "metrics",
    "shutdown", "trace",
];

/// Buckets per command histogram: powers of two from 1 µs up to
/// `2^27 µs ≈ 134 s`, the last bucket open-ended.
pub const LATENCY_BUCKETS: usize = 28;

/// How long one histogram epoch lasts. Quantiles cover the current
/// epoch plus the previous one, so they describe the last
/// `HISTOGRAM_EPOCH`–`2×HISTOGRAM_EPOCH` of traffic.
pub const HISTOGRAM_EPOCH: Duration = Duration::from_secs(60);

/// Upper edge (inclusive, in µs) of log₂ bucket `i` — what quantiles
/// report, and what the Prometheus endpoint renders as `le` edges
/// (converted to seconds).
pub(crate) fn bucket_upper_us(i: usize) -> u64 {
    (1u64 << (i + 1)) - 1
}

/// One command's sliding-window log₂ latency histogram: two epochs of
/// [`LATENCY_BUCKETS`] buckets, rotated by [`LatencyHistogram::rotate`],
/// plus a never-rotated cumulative copy for Prometheus exposition
/// (Prometheus histograms are cumulative since process start; the
/// scraper computes windows server-side).
#[derive(Debug)]
pub struct LatencyHistogram {
    epochs: [[AtomicU64; LATENCY_BUCKETS]; 2],
    /// Which epoch records land in (0 or 1).
    current: AtomicUsize,
    /// Cumulative-since-start bucket counts (never rotated).
    cumulative: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            epochs: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            current: AtomicUsize::new(0),
            cumulative: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Index of the bucket covering `us` microseconds.
    fn bucket_index(us: u64) -> usize {
        (63 - us.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Upper edge (inclusive, in µs) of bucket `i` — what quantiles
    /// report.
    fn bucket_upper_us(i: usize) -> u64 {
        bucket_upper_us(i)
    }

    /// Records one observation into the current epoch and the
    /// cumulative copy.
    pub fn record(&self, us: u64) {
        let bucket = Self::bucket_index(us);
        let epoch = self.current.load(Ordering::Relaxed) & 1;
        self.epochs[epoch][bucket].fetch_add(1, Ordering::Relaxed);
        self.cumulative[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cumulative-since-start bucket counts.
    pub(crate) fn cumulative_counts(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.cumulative[i].load(Ordering::Relaxed))
    }

    /// Slides the window: zeroes the older epoch and makes it current.
    /// Samples recorded before the *previous* rotation stop
    /// influencing quantiles; samples from the last epoch remain
    /// visible until the next rotation. (Concurrent `record`s may land
    /// in either epoch during the swap — the histogram is statistics,
    /// not synchronisation.)
    pub fn rotate(&self) {
        let next = 1 - (self.current.load(Ordering::Relaxed) & 1);
        for bucket in &self.epochs[next] {
            bucket.store(0, Ordering::Relaxed);
        }
        self.current.store(next, Ordering::Relaxed);
    }

    /// The quantile `q ∈ (0, 1]` over both epochs (the sliding
    /// window), as the upper edge of its bucket; 0 when the window is
    /// empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = (0..LATENCY_BUCKETS)
            .map(|i| {
                self.epochs[0][i].load(Ordering::Relaxed)
                    + self.epochs[1][i].load(Ordering::Relaxed)
            })
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_us(i);
            }
        }
        Self::bucket_upper_us(LATENCY_BUCKETS - 1)
    }
}

#[derive(Debug, Default)]
struct CommandCounters {
    count: AtomicU64,
    errors: AtomicU64,
    /// Summed serve time in nanoseconds, so a sub-µs request still
    /// counts: the wire `latency_us` and the Prometheus `_sum` are
    /// derived from it.
    latency_ns: AtomicU64,
    histogram: LatencyHistogram,
}

/// One counter block per command plus protocol-level failures. All
/// updates are `Relaxed` atomics — these are statistics, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct Metrics {
    per_command: [CommandCounters; COMMAND_NAMES.len()],
    /// Lines that failed to parse as any request.
    pub protocol_errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request lines rejected for crossing `--max-line-bytes`.
    pub rejected_oversize: AtomicU64,
    /// Request lines rejected by the per-connection `--max-rps`
    /// token bucket.
    pub rejected_rate: AtomicU64,
    /// Connections turned away at accept time by `--max-conns`
    /// admission control (answered `too_busy`, then closed).
    pub rejected_busy: AtomicU64,
    /// Responses that could not be flushed in one nonblocking write
    /// and were parked with their connection for the owning poller to
    /// finish — the counter the slow-reader fault test watches to
    /// prove the readiness-driven write path engaged.
    pub writes_parked: AtomicU64,
    /// Request bytes drained off client sockets, counted at the read
    /// syscall — the server-side cross-check for a load harness's
    /// sent-byte accounting.
    pub bytes_read: AtomicU64,
    /// Response bytes successfully written back to clients.
    pub bytes_written: AtomicU64,
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request under its command code (an index
    /// into [`COMMAND_NAMES`], as `obs::command_code` computes it); a
    /// code past the table, such as `obs::CMD_NONE`, records nothing.
    pub(crate) fn record(&self, command: u8, elapsed: Duration, is_error: bool) {
        let Some(c) = self.per_command.get(usize::from(command)) else {
            return;
        };
        c.count.fetch_add(1, Ordering::Relaxed);
        if is_error {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        c.latency_ns.fetch_add(ns, Ordering::Relaxed);
        c.histogram.record(ns / 1_000);
    }

    /// Snapshots per-command stats (cache fields are filled by the
    /// server from the registry).
    pub fn command_stats(&self) -> Vec<CommandStats> {
        COMMAND_NAMES
            .iter()
            .zip(&self.per_command)
            .map(|(&name, c)| CommandStats {
                name: name.to_string(),
                count: c.count.load(Ordering::Relaxed),
                errors: c.errors.load(Ordering::Relaxed),
                latency_us: c.latency_ns.load(Ordering::Relaxed) / 1_000,
                p50_us: c.histogram.quantile_us(0.50),
                p99_us: c.histogram.quantile_us(0.99),
            })
            .collect()
    }

    /// Raw `(count, errors, latency_ns)` for command index `idx`
    /// (aligned with [`COMMAND_NAMES`]) — the Prometheus counters.
    pub(crate) fn raw_command_counters(&self, idx: usize) -> (u64, u64, u64) {
        let c = &self.per_command[idx];
        (
            c.count.load(Ordering::Relaxed),
            c.errors.load(Ordering::Relaxed),
            c.latency_ns.load(Ordering::Relaxed),
        )
    }

    /// Cumulative-since-start latency bucket counts for command index
    /// `idx` (aligned with [`COMMAND_NAMES`]).
    pub(crate) fn cumulative_buckets(&self, idx: usize) -> [u64; LATENCY_BUCKETS] {
        self.per_command[idx].histogram.cumulative_counts()
    }

    /// Slides every command histogram's window forward one epoch (see
    /// [`LatencyHistogram::rotate`]). Called by the poller thread every
    /// [`HISTOGRAM_EPOCH`].
    pub fn rotate_histograms(&self) {
        for c in &self.per_command {
            c.histogram.rotate();
        }
    }

    /// Builds the full `metrics` payload given the registry's lifecycle
    /// counters, the server's uptime, and the per-poller-shard
    /// connection gauges (in shard order).
    pub fn report(
        &self,
        registry: RegistrySnapshot,
        uptime_seconds: u64,
        poller_connections: Vec<u64>,
    ) -> MetricsReport {
        MetricsReport {
            uptime_seconds,
            version: crate::obs::BUILD_VERSION.to_string(),
            cache_hits: registry.hits,
            cache_misses: registry.misses,
            cache_disk_hits: registry.disk_hits,
            cache_evictions: registry.evictions,
            cache_stale_rebuilds: registry.stale_rebuilds,
            cache_upgrades: registry.upgrades,
            cache_append_updates: registry.append_updates,
            cache_sweep_refreshes: registry.sweep_refreshes,
            cache_bytes: registry.resident_bytes,
            datasets: registry.datasets,
            restarts: registry.restarts,
            wal_replayed_events: registry.wal_replayed_events,
            connections: self.connections.load(Ordering::Relaxed),
            rejected_oversize: self.rejected_oversize.load(Ordering::Relaxed),
            rejected_rate: self.rejected_rate.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            writes_parked: self.writes_parked.load(Ordering::Relaxed),
            poller_connections,
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            commands: self.command_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::command_code;

    #[test]
    fn records_accumulate() {
        let m = Metrics::new();
        m.record(command_code("audit"), Duration::from_micros(100), false);
        m.record(command_code("audit"), Duration::from_micros(50), true);
        m.record(command_code("nonsense"), Duration::from_micros(1), false); // ignored
        let stats = m.command_stats();
        let audit = stats.iter().find(|c| c.name == "audit").unwrap();
        assert_eq!(audit.count, 2);
        assert_eq!(audit.errors, 1);
        assert_eq!(audit.latency_us, 150);
        let load = stats.iter().find(|c| c.name == "load").unwrap();
        assert_eq!(load.count, 0);
        assert_eq!(load.p50_us, 0, "no observations, no quantile");
    }

    #[test]
    fn sub_microsecond_requests_add_up() {
        let m = Metrics::new();
        for _ in 0..1_000 {
            m.record(command_code("check"), Duration::from_nanos(600), false);
        }
        let stats = m.command_stats();
        let check = stats.iter().find(|c| c.name == "check").unwrap();
        assert_eq!(check.latency_us, 600, "1,000 requests of 600 ns");
        assert_eq!(check.p50_us, 1, "the histogram still buckets whole µs");
    }

    #[test]
    fn report_includes_registry_snapshot() {
        let m = Metrics::new();
        let r = m.report(
            RegistrySnapshot {
                hits: 5,
                misses: 2,
                disk_hits: 1,
                evictions: 3,
                stale_rebuilds: 4,
                upgrades: 2,
                append_updates: 6,
                sweep_refreshes: 7,
                resident_bytes: 640,
                datasets: 1,
                restarts: 2,
                wal_replayed_events: 9,
            },
            17,
            vec![3, 4],
        );
        assert_eq!(r.uptime_seconds, 17);
        assert_eq!(r.version, crate::obs::BUILD_VERSION);
        assert_eq!(r.cache_hits, 5);
        assert_eq!(r.cache_misses, 2);
        assert_eq!(r.cache_disk_hits, 1);
        assert_eq!(r.cache_evictions, 3);
        assert_eq!(r.cache_stale_rebuilds, 4);
        assert_eq!(r.cache_upgrades, 2);
        assert_eq!(r.cache_append_updates, 6);
        assert_eq!(r.cache_sweep_refreshes, 7);
        assert_eq!(r.cache_bytes, 640);
        assert_eq!(r.datasets, 1);
        assert_eq!(r.restarts, 2);
        assert_eq!(r.wal_replayed_events, 9);
        assert_eq!(r.commands.len(), COMMAND_NAMES.len());
        assert_eq!(r.rejected_oversize, 0);
        assert_eq!(r.rejected_rate, 0);
        assert_eq!(r.rejected_busy, 0);
        assert_eq!(r.poller_connections, vec![3, 4]);
    }

    #[test]
    fn rejection_counters_flow_into_the_report() {
        let m = Metrics::new();
        m.rejected_oversize.fetch_add(3, Ordering::Relaxed);
        m.rejected_rate.fetch_add(5, Ordering::Relaxed);
        m.rejected_busy.fetch_add(7, Ordering::Relaxed);
        m.writes_parked.fetch_add(2, Ordering::Relaxed);
        let r = m.report(RegistrySnapshot::default(), 0, vec![]);
        assert_eq!(r.rejected_oversize, 3);
        assert_eq!(r.rejected_rate, 5);
        assert_eq!(r.rejected_busy, 7);
        assert_eq!(r.writes_parked, 2);
    }

    #[test]
    fn byte_counters_flow_into_the_report() {
        let m = Metrics::new();
        m.bytes_read.fetch_add(1024, Ordering::Relaxed);
        m.bytes_written.fetch_add(2048, Ordering::Relaxed);
        let r = m.report(RegistrySnapshot::default(), 0, vec![]);
        assert_eq!(r.bytes_read, 1024);
        assert_eq!(r.bytes_written, 2048);
    }

    #[test]
    fn rotation_expires_old_epoch_samples() {
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(100); // bucket 6: upper edge 127 µs
        }
        assert_eq!(h.quantile_us(0.99), 127);
        // One rotation: the samples move to the previous epoch but
        // still count (the window covers both epochs).
        h.rotate();
        assert_eq!(h.quantile_us(0.99), 127, "last epoch still visible");
        // New traffic lands in the fresh current epoch.
        for _ in 0..100 {
            h.record(10_000); // bucket 13: upper edge 16383 µs
        }
        assert_eq!(h.quantile_us(0.99), 16_383, "both epochs blend");
        // Second rotation: the 100 µs samples are two epochs old and
        // stop influencing quantiles entirely.
        h.rotate();
        assert_eq!(h.quantile_us(0.50), 16_383, "only the recent epoch remains");
        // Third rotation with no new traffic: the window empties.
        h.rotate();
        assert_eq!(h.quantile_us(0.99), 0, "a quiet window reports zero");
    }

    #[test]
    fn cumulative_buckets_survive_rotation() {
        let m = Metrics::new();
        m.record(command_code("check"), Duration::from_micros(100), false);
        m.rotate_histograms();
        m.rotate_histograms();
        m.rotate_histograms();
        let idx = COMMAND_NAMES.iter().position(|&n| n == "check").unwrap();
        assert_eq!(
            m.cumulative_buckets(idx).iter().sum::<u64>(),
            1,
            "rotation must not erase the Prometheus view"
        );
        let (count, errors, latency_ns) = m.raw_command_counters(idx);
        assert_eq!((count, errors, latency_ns), (1, 0, 100_000));
    }

    #[test]
    fn metrics_rotation_covers_every_command() {
        let m = Metrics::new();
        m.record(command_code("audit"), Duration::from_micros(100), false);
        m.rotate_histograms();
        m.rotate_histograms();
        let stats = m.command_stats();
        let audit = stats.iter().find(|c| c.name == "audit").unwrap();
        assert_eq!(audit.count, 1, "counts stay cumulative");
        assert_eq!(audit.p50_us, 0, "quantiles forget rotated-out samples");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(3), 1);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            LATENCY_BUCKETS - 1,
            "huge latencies clamp to the open-ended top bucket"
        );
    }

    #[test]
    fn quantiles_report_bucket_upper_edges() {
        let h = LatencyHistogram::default();
        // 99 fast requests (bucket 6: 64–127 µs) and one slow outlier
        // (bucket 13: 8192–16383 µs).
        for _ in 0..99 {
            h.record(100);
        }
        h.record(10_000);
        assert_eq!(h.quantile_us(0.50), 127);
        assert_eq!(h.quantile_us(0.99), 127, "rank 99 of 100 is still fast");
        assert_eq!(h.quantile_us(1.0), 16_383, "the max sees the outlier");
    }

    #[test]
    fn p50_p99_flow_into_command_stats() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record(command_code("key"), Duration::from_micros(10), false);
        }
        m.record(command_code("key"), Duration::from_micros(5_000), false);
        let stats = m.command_stats();
        let key = stats.iter().find(|c| c.name == "key").unwrap();
        assert_eq!(key.p50_us, 15, "bucket 3 covers 8–15 µs");
        // Rank 99 of 100 is the last fast observation, not the outlier.
        assert_eq!(key.p99_us, 15, "p99 stays in the fast band");
        assert!(key.p50_us <= key.p99_us);
    }
}
