//! Order statistics and the result line.

use crate::load::{Sample, Slice};

/// The `q`-quantile (nearest rank) of `values`, which it sorts.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values`, which it sorts.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The interquartile mean of `values`, which it sorts: the mean of what
/// is left after dropping the lowest and the highest quarter. It uses
/// the middle half where the median uses only the middle value, so over
/// the few cycles of a run it moves less from run to run, while still
/// ignoring a cycle the host stalled.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The median of `values` over the samples whose hypervisor steal (in
/// `steal`, one per value) is at most the median steal: the
/// least-stolen half, or all of them when none was stolen. Steal comes
/// from other tenants of the host, not from the program, so selecting
/// on it discards interference without looking at the measured figure.
pub fn steady_median(values: &[f64], steal: &[f64]) -> f64 {
    median(&mut least_stolen(values, steal))
}

/// The interquartile mean of the same least-stolen half. Across the
/// windows of a run, which each sample a fresh server, it moves less
/// from run to run than their median.
pub fn steady_mean(values: &[f64], steal: &[f64]) -> f64 {
    interquartile_mean(&mut least_stolen(values, steal))
}

/// The `values` whose `steal` is at most the median steal.
fn least_stolen(values: &[f64], steal: &[f64]) -> Vec<f64> {
    let cut = median(&mut steal.to_vec());
    values
        .iter()
        .zip(steal)
        .filter(|&(_, &s)| s <= cut)
        .map(|(&v, _)| v)
        .collect()
}

/// Client-side figures of a measured window.
pub struct Served {
    /// Median over the least-stolen one-second slices (see
    /// [`steady_median`]) of the slice's `check` latency p50, µs.
    pub p50_us: f64,
    /// The same median of the slice's `check` latency p99, µs.
    pub p99_us: f64,
    /// The same median of the slice's completions (every command) per
    /// second.
    pub rps: f64,
    /// The same median of the slice's server CPU time per completion,
    /// µs.
    pub cpu_us_per_req: f64,
}

/// Cuts a window of `window_s` seconds into `slices` and reports the
/// median over the least-stolen of them, so a stall imposed by the host
/// moves discarded slices, not the figure.
pub fn served(samples: &[Sample], window_s: f64, slices: &[Slice]) -> Served {
    let steal: Vec<f64> = slices.iter().map(|s| s.steal_s).collect();
    let n_slices = slices.len().max(1);
    let width_us = window_s * 1e6 / n_slices as f64;
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n_slices];
    let mut done = vec![0usize; n_slices];
    for s in samples {
        let slice = ((s.at_us as f64 / width_us) as usize).min(n_slices - 1);
        done[slice] += 1;
        if s.check {
            lat[slice].push(s.lat_ns as f64 / 1e3);
        }
    }
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut rps = Vec::new();
    let mut cpu = Vec::new();
    for ((slice, n), s) in lat.iter_mut().zip(done).zip(slices) {
        rps.push(n as f64 / (width_us / 1e6));
        cpu.push(s.server_cpu_s * 1e6 / n as f64);
        p50.push(quantile(slice, 0.5));
        p99.push(quantile(slice, 0.99));
    }
    Served {
        p50_us: steady_median(&p50, &steal),
        p99_us: steady_median(&p99, &steal),
        rps: steady_median(&rps, &steal),
        cpu_us_per_req: steady_median(&cpu, &steal),
    }
}

/// Named metrics with units, in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit. Errors on a non-finite value.
    pub fn result_line(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}
