//! # qid-bench — the paper's evaluation, regenerated
//!
//! Each experiment (T1, E1–E7; the README's bench-target table maps
//! each one to its target) lives in [`experiments`] as a plain
//! function returning a [`report::Table`]; the `benches/*.rs` targets
//! are thin wrappers that run them at full scale, and the integration
//! tests smoke-run them at reduced scale.
//!
//! Scale control: experiments take a [`Scale`]; `Scale::from_env()`
//! reads `QID_SCALE` (`full`, `default`, or `smoke`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod timing;
pub mod workloads;

/// How big the experiment workloads should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full data-set sizes (Covtype at 581k rows, CPS at
    /// 150k × 388). Minutes of runtime.
    Full,
    /// Reduced rows, same schemas — the default for `cargo bench`;
    /// shapes are preserved, absolute times shrink.
    Default,
    /// Tiny — for CI smoke tests.
    Smoke,
}

impl Scale {
    /// Reads `QID_SCALE` (`full` / `smoke`, anything else → default).
    pub fn from_env() -> Self {
        match std::env::var("QID_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("smoke") => Scale::Smoke,
            _ => Scale::Default,
        }
    }

    /// Scales a row count.
    pub fn rows(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Default => (full / 8).max(2_000).min(full),
            Scale::Smoke => (full / 200).max(200).min(full),
        }
    }

    /// Scales a trial count.
    pub fn trials(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Default => (full / 2).max(3),
            Scale::Smoke => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_rows_monotone() {
        assert_eq!(Scale::Full.rows(100_000), 100_000);
        assert!(Scale::Default.rows(100_000) < 100_000);
        assert!(Scale::Smoke.rows(100_000) <= Scale::Default.rows(100_000));
        // Tiny inputs are never inflated.
        assert_eq!(Scale::Smoke.rows(100), 100);
    }

    #[test]
    fn scale_trials() {
        assert_eq!(Scale::Full.trials(10), 10);
        assert_eq!(Scale::Default.trials(10), 5);
        assert_eq!(Scale::Smoke.trials(10), 2);
    }
}
