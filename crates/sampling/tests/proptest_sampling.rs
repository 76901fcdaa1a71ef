//! Property tests for the sampling substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use qid_sampling::alias::AliasTable;
use qid_sampling::birthday::{
    collision_prob_lower_bound, non_collision_prob_uniform, q_for_collision,
};
use qid_sampling::pairs::{pair_count, rank_pair, sample_pair, unrank_pair};
use qid_sampling::reservoir::{MultiReservoir, Reservoir};
use qid_sampling::swor::{sample_indices, sample_indices_fisher_yates, sample_indices_floyd};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both SWOR algorithms return k distinct in-range indices.
    #[test]
    fn swor_postconditions(n in 1usize..500, k_frac in 0.0f64..1.0, seed in 0u64..1000) {
        let k = ((n as f64) * k_frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        for sample in [
            sample_indices_floyd(&mut rng, n, k),
            sample_indices_fisher_yates(&mut rng, n, k),
            sample_indices(&mut rng, n, k),
        ] {
            prop_assert_eq!(sample.len(), k);
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k, "duplicates in {:?}", sample);
            prop_assert!(sample.iter().all(|&i| i < n));
        }
    }

    /// Pair rank ↔ unrank is a bijection on arbitrary ranks.
    #[test]
    fn pair_bijection(n in 2usize..5000, seed in 0u64..10_000) {
        let universe = pair_count(n);
        let rank = (seed as u128).pow(2) % universe;
        let (i, j) = unrank_pair(rank);
        prop_assert!(i < j);
        prop_assert!(j < n);
        prop_assert_eq!(rank_pair(i, j), rank);
    }

    /// sample_pair always returns ordered distinct in-range pairs.
    #[test]
    fn sample_pair_postconditions(n in 2usize..100, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (i, j) = sample_pair(&mut rng, n);
        prop_assert!(i < j && j < n);
    }

    /// Reservoirs hold min(k, seen) items, all from the stream.
    #[test]
    fn reservoir_postconditions(k in 1usize..20, n in 0usize..200, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Reservoir::new(k);
        let mut l = MultiReservoir::new(1, k);
        for x in 0..n {
            r.push(x, &mut rng);
            l.push(&x, &mut rng);
        }
        let l = &l.slots()[0];
        prop_assert_eq!(r.items().len(), k.min(n));
        prop_assert_eq!(l.len(), k.min(n));
        prop_assert!(r.items().iter().all(|&x| x < n));
        prop_assert!(l.iter().all(|&x| x < n));
        // Without-replacement: no duplicates.
        let mut seen = r.items().to_vec();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), k.min(n));
        let mut seen = l.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), k.min(n));
    }

    /// Multi-reservoir slots are independent 2-subsets of the stream.
    #[test]
    fn multi_reservoir_postconditions(s in 1usize..12, n in 2usize..150, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mr = MultiReservoir::new(s, 2);
        for x in 0..n {
            mr.push(&x, &mut rng);
        }
        prop_assert_eq!(mr.slots().len(), s);
        for slot in mr.slots() {
            prop_assert_eq!(slot.len(), 2);
            prop_assert!(slot[0] < n && slot[1] < n);
            prop_assert_ne!(slot[0], slot[1]);
        }
    }

    /// Birthday: the Theorem 4 lower bound never exceeds the exact
    /// collision probability, and q_for_collision delivers ≤ δ*.
    #[test]
    fn birthday_bounds(n_bins in 2u64..2000, q in 0u64..300, delta in 0.001f64..0.9) {
        let exact = 1.0 - non_collision_prob_uniform(n_bins, q);
        let bound = collision_prob_lower_bound(n_bins, q.max(1));
        if q >= 1 {
            prop_assert!(bound <= exact + 1e-9, "bound {bound} > exact {exact}");
        }
        let q_needed = q_for_collision(n_bins, delta);
        prop_assert!(non_collision_prob_uniform(n_bins, q_needed) <= delta + 1e-9);
    }

    /// Alias tables sample only positive-weight categories.
    #[test]
    fn alias_support(weights in proptest::collection::vec(0.0f64..10.0, 1..20), seed in 0u64..100) {
        let total: f64 = weights.iter().sum();
        prop_assume!(total > 0.1);
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let c = table.sample(&mut rng);
            prop_assert!(c < weights.len());
            prop_assert!(weights[c] > 0.0, "sampled zero-weight category {c}");
        }
    }
}
