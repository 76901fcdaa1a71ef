//! The ε-separation key filter problem (the paper's Theorem 1).
//!
//! A filter takes an attribute subset `A ⊆ [m]` and must **reject** if
//! `A` is bad (separates fewer than `(1−ε)·C(n,2)` pairs) and **accept**
//! if `A` is a key; in between, either answer is correct. Success must
//! hold *for all* `2^m` subsets simultaneously with probability `1−δ`.
//!
//! Two sampling-based filters compete:
//!
//! * [`PairSampleFilter`] — Motwani–Xu (2008): store `Θ(m/ε)` uniform
//!   tuple *pairs*; reject iff some stored pair is unseparated. Query
//!   time `O(|A| · m/ε)`.
//! * [`TupleSampleFilter`] — this paper's Algorithm 1: store `Θ(m/√ε)`
//!   uniform *tuples*; reject iff some two stored tuples collide on `A`.
//!   Query time `O(|A| · (m/√ε) log(m/ε))` by sorting (the paper's
//!   accounting), `O(|A| · m/√ε)` expected by the exact hashed
//!   [`CollisionScratch`] kernel the query serves.
//!
//! Both guarantee failure probability `≤ e^−m`; the tuple filter needs
//! quadratically fewer samples in `1/ε` (the paper's main result).

mod collision;
mod pair_filter;
mod params;
mod tuple_filter;

pub use collision::CollisionScratch;
pub use pair_filter::PairSampleFilter;
pub use params::{FilterParams, GUARANTEE_N_FACTOR};
pub use tuple_filter::TupleSampleFilter;

use qid_dataset::AttrId;

/// A filter's verdict on one attribute subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterDecision {
    /// The subset may be a key (it separated every sampled pair).
    Accept,
    /// The subset is (evidence says) bad: an unseparated pair was found.
    Reject,
}

impl FilterDecision {
    /// `true` for [`FilterDecision::Accept`].
    pub fn is_accept(self) -> bool {
        matches!(self, FilterDecision::Accept)
    }
}

/// Common interface of the sampling-based ε-separation key filters.
pub trait SeparationFilter {
    /// Classifies one attribute subset.
    fn query(&self, attrs: &[AttrId]) -> FilterDecision;

    /// Number of *sampled units* held (tuples for the tuple filter,
    /// pairs for the pair filter) — the paper's "S" column in Table 1.
    fn sample_size(&self) -> usize;

    /// Approximate resident sketch size in bytes.
    fn stored_bytes(&self) -> usize;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_helpers() {
        assert!(FilterDecision::Accept.is_accept());
        assert!(!FilterDecision::Reject.is_accept());
        assert_ne!(FilterDecision::Accept, FilterDecision::Reject);
    }
}
