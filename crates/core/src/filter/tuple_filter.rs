//! Algorithm 1: the improved tuple-sampling filter (`Θ(m/√ε)` samples).
//!
//! The served query ([`TupleSampleFilter::query_with`], and the
//! [`SeparationFilter::query`] impl) is the exact hashed collision
//! kernel of [`CollisionScratch`]: `O(|A| · r)` expected, allocation-free
//! in caller-owned buffers, and equal to the sort on every input. The
//! sort ([`TupleSampleFilter::query_sorted`]) is kept as the paper's
//! `O(|A| · r log r)` accounting and as the oracle the kernel is tested
//! against.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qid_dataset::{AttrId, Dataset};
use qid_sampling::swor::sample_indices;

use super::{CollisionScratch, FilterDecision, FilterParams, SeparationFilter};

/// The paper's Algorithm 1: sample `R` = `Θ(m/√ε)` tuples **without
/// replacement**; accept `A` iff `A` separates all `C(|R|, 2)` pairs of
/// samples — i.e. iff no two sampled tuples collide on `A`.
///
/// Correctness (Theorem 1): for every bad `A` the auxiliary graph `G_A`
/// has ≥ `ε·C(n,2)` edges; by the KKT worst-case analysis (Lemma 1) and
/// the birthday problem (Lemma 2), `Θ(m/√ε)` samples hit two vertices
/// of one clique with probability `1 − e^{−Ω(m)}`, and a union bound
/// over all `2^m` subsets gives the *for-all* guarantee.
///
/// Query cost: duplicate detection on the projection of the sample onto
/// `A` — `O(|A| · r log r)` by sorting ([`Self::query_sorted`], the
/// paper's accounting) or `O(|A| · r)` expected by the exact hashed
/// kernel ([`Self::query_with`], what [`Self::query`] serves).
#[derive(Clone, Debug)]
pub struct TupleSampleFilter {
    sample: Dataset,
    params: FilterParams,
    requested: usize,
}

impl TupleSampleFilter {
    /// Builds the filter by sampling from a materialised data set.
    ///
    /// If the requested sample exceeds `n`, the whole data set is kept
    /// (the filter degenerates to an exact key checker).
    pub fn build(ds: &Dataset, params: FilterParams, seed: u64) -> Self {
        let requested = params.tuple_sample_size(ds.n_attrs());
        let r = requested.min(ds.n_rows());
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = sample_indices(&mut rng, ds.n_rows(), r);
        TupleSampleFilter {
            sample: ds.gather(&rows),
            params,
            requested,
        }
    }

    /// Wraps an already-drawn sample (used by the streaming builder;
    /// `sample` must be a uniform without-replacement sample for the
    /// guarantee to hold).
    pub fn from_sample(sample: Dataset, params: FilterParams) -> Self {
        let requested = params.tuple_sample_size(sample.n_attrs());
        TupleSampleFilter {
            sample,
            params,
            requested,
        }
    }

    /// The retained sample `R`.
    pub fn sample(&self) -> &Dataset {
        &self.sample
    }

    /// The parameters used to size the sample.
    pub fn params(&self) -> FilterParams {
        self.params
    }

    /// The sample size the parameters asked for (before clamping to `n`).
    pub fn requested_sample_size(&self) -> usize {
        self.requested
    }

    /// Sort-based query, as accounted in the paper:
    /// `O(|A| · r log r)` comparisons. The oracle for [`Self::query_with`].
    pub fn query_sorted(&self, attrs: &[AttrId]) -> FilterDecision {
        let n = self.sample.n_rows();
        if n < 2 {
            return FilterDecision::Accept;
        }
        if attrs.is_empty() {
            // The empty set separates nothing; with ≥ 2 samples it always
            // fails on some pair.
            return FilterDecision::Reject;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| self.sample.cmp_projected(a as usize, b as usize, attrs));
        for w in order.windows(2) {
            if self
                .sample
                .cmp_projected(w[0] as usize, w[1] as usize, attrs)
                .is_eq()
            {
                return FilterDecision::Reject;
            }
        }
        FilterDecision::Accept
    }

    /// The served query: the exact hashed collision kernel over the
    /// sample, `O(|A| · r)` expected, early exit on the first confirmed
    /// collision. Equal to [`Self::query_sorted`] on every input; the
    /// steady-state `check` path allocates nothing once `scratch` has
    /// grown to the sample size.
    pub fn query_with(&self, attrs: &[AttrId], scratch: &mut CollisionScratch) -> FilterDecision {
        if scratch.has_collision(&self.sample, attrs) {
            FilterDecision::Reject
        } else {
            FilterDecision::Accept
        }
    }
}

impl SeparationFilter for TupleSampleFilter {
    fn query(&self, attrs: &[AttrId]) -> FilterDecision {
        self.query_with(attrs, &mut CollisionScratch::new())
    }

    fn sample_size(&self) -> usize {
        self.sample.n_rows()
    }

    fn stored_bytes(&self) -> usize {
        self.sample.code_bytes()
    }

    fn name(&self) -> &'static str {
        "tuple-sample (this paper)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qid_dataset::{DatasetBuilder, Value};

    fn attrs(ids: &[usize]) -> Vec<AttrId> {
        ids.iter().map(|&i| AttrId::new(i)).collect()
    }

    /// n rows; attr 0 = row id (key), attr 1 = constant, attr 2 = two
    /// huge groups (very bad).
    fn fixture(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(["id", "const", "half"]);
        for i in 0..n {
            b.push_row([
                Value::Int(i as i64),
                Value::Int(0),
                Value::Int((i % 2) as i64),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn accepts_keys_always() {
        // Soundness is deterministic: a key separates every pair of any
        // sample.
        let ds = fixture(500);
        for seed in 0..10 {
            let f = TupleSampleFilter::build(&ds, FilterParams::new(0.01), seed);
            assert_eq!(f.query(&attrs(&[0])), FilterDecision::Accept);
            assert_eq!(f.query(&attrs(&[0, 1])), FilterDecision::Accept);
        }
    }

    #[test]
    fn rejects_very_bad_subsets() {
        let ds = fixture(500);
        for seed in 0..10 {
            let f = TupleSampleFilter::build(&ds, FilterParams::new(0.01), seed);
            assert_eq!(f.query(&attrs(&[1])), FilterDecision::Reject);
            assert_eq!(f.query(&attrs(&[2])), FilterDecision::Reject);
            assert_eq!(f.query(&attrs(&[1, 2])), FilterDecision::Reject);
        }
    }

    #[test]
    fn empty_attr_set_rejected() {
        let ds = fixture(100);
        let f = TupleSampleFilter::build(&ds, FilterParams::new(0.1), 1);
        assert_eq!(f.query(&[]), FilterDecision::Reject);
        assert_eq!(f.query_sorted(&[]), FilterDecision::Reject);
    }

    #[test]
    fn sorted_and_hashed_agree() {
        let ds = fixture(300);
        let f = TupleSampleFilter::build(&ds, FilterParams::new(0.05), 7);
        let mut scratch = CollisionScratch::new();
        for subset in [vec![0], vec![1], vec![2], vec![0, 2], vec![1, 2]] {
            let a = attrs(&subset);
            assert_eq!(
                f.query_sorted(&a),
                f.query_with(&a, &mut scratch),
                "subset {subset:?}"
            );
        }
    }

    #[test]
    fn sample_size_clamped_to_n() {
        let ds = fixture(20);
        let params = FilterParams::new(0.0001); // asks for 3·100 = 300 tuples
        let f = TupleSampleFilter::build(&ds, params, 3);
        assert_eq!(f.sample_size(), 20);
        assert!(f.requested_sample_size() >= 300);
        // Degenerates to exact: accepts the key, rejects the constant.
        assert_eq!(f.query(&attrs(&[0])), FilterDecision::Accept);
        assert_eq!(f.query(&attrs(&[1])), FilterDecision::Reject);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = fixture(200);
        let a = TupleSampleFilter::build(&ds, FilterParams::new(0.02), 42);
        let b = TupleSampleFilter::build(&ds, FilterParams::new(0.02), 42);
        for r in 0..a.sample_size() {
            assert_eq!(
                a.sample().code(r, AttrId::new(0)),
                b.sample().code(r, AttrId::new(0))
            );
        }
    }

    #[test]
    fn tiny_datasets() {
        let ds = fixture(1);
        let f = TupleSampleFilter::build(&ds, FilterParams::new(0.5), 0);
        assert_eq!(f.query(&attrs(&[1])), FilterDecision::Accept); // < 2 samples
        let empty = DatasetBuilder::new(["a"]).finish();
        let f = TupleSampleFilter::build(&empty, FilterParams::new(0.5), 0);
        assert_eq!(f.query(&attrs(&[0])), FilterDecision::Accept);
    }

    #[test]
    fn trait_metadata() {
        let ds = fixture(100);
        let f = TupleSampleFilter::build(&ds, FilterParams::new(0.04), 0);
        // m=3, eps=0.04 → 3/0.2 = 15 tuples.
        assert_eq!(f.sample_size(), 15);
        assert_eq!(f.stored_bytes(), 15 * 3 * 4);
        assert!(f.name().contains("tuple"));
    }
}
