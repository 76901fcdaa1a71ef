//! The exact hashed collision kernel equals the sort-based ground truth.
//!
//! `TupleSampleFilter::query_with` must decide exactly as
//! `query_sorted`, `CollisionScratch::count_unique` must count exactly
//! the singleton groups of `separation::group_sizes`, and
//! `enumerate_minimal_keys` (whose key test is the kernel) must return
//! exactly what a brute-force, sort-based lattice returns. Samples are
//! drawn with small code alphabets, so many projections are equal, and
//! attribute sets include the empty set and repeated attributes.

use proptest::prelude::*;

use qid_core::filter::{CollisionScratch, FilterParams, TupleSampleFilter};
use qid_core::minkey::{enumerate_minimal_keys, LatticeConfig};
use qid_core::separation::{group_sizes, unseparated_pairs};
use qid_dataset::{AttrId, Dataset, DatasetBuilder, Value};

/// `rows` rows over one column per entry of `alphabets`, column `a`
/// drawn from `0..alphabets[a]`; the last column is the row id when
/// `with_id`, so some sets are keys however large the sample.
fn sample(alphabets: &[i64], rows: usize, with_id: bool, seed: u64) -> Dataset {
    let m = alphabets.len() + usize::from(with_id);
    let mut b = DatasetBuilder::new((0..m).map(|a| format!("a{a}")));
    let mut state = seed | 1;
    let mut next = |bound: i64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as i64
    };
    for row in 0..rows {
        let mut values: Vec<Value> = alphabets.iter().map(|&k| Value::Int(next(k))).collect();
        if with_id {
            values.push(Value::Int(row as i64));
        }
        b.push_row(values).unwrap();
    }
    b.finish()
}

/// Every subset of `0..m`, then each single attribute doubled and the
/// whole set with its first attribute repeated at the end.
fn attr_sets(m: usize) -> Vec<Vec<AttrId>> {
    let mut sets: Vec<Vec<AttrId>> = (0u32..1 << m)
        .map(|mask| {
            (0..m)
                .filter(|&a| mask & 1 << a != 0)
                .map(AttrId::new)
                .collect()
        })
        .collect();
    for a in 0..m {
        sets.push(vec![AttrId::new(a), AttrId::new(a)]);
    }
    let mut all: Vec<AttrId> = (0..m).map(AttrId::new).collect();
    all.push(AttrId::new(0));
    sets.push(all);
    sets
}

fn alphabet() -> impl Strategy<Value = i64> {
    prop_oneof![1i64..4, 4i64..40, 1_000i64..100_000]
}

/// A generated sample: r from 0 to 2,000 rows (half the cases under
/// 64), 1–3 drawn columns and an optional row-id column.
fn samples() -> impl Strategy<Value = Dataset> {
    (
        prop_oneof![0usize..64, 0usize..=2_000],
        proptest::collection::vec(alphabet(), 1..4),
        0u8..2,
        0u64..u64::MAX,
    )
        .prop_map(|(rows, alphabets, with_id, seed)| sample(&alphabets, rows, with_id == 1, seed))
}

/// The minimal keys of `ds` with at most `max_size` attributes by brute
/// force over every subset, each tested with `unseparated_pairs` (a
/// sort), in ascending size then lexicographic order.
fn reference_lattice(ds: &Dataset, max_size: usize) -> Vec<Vec<AttrId>> {
    if ds.n_rows() < 2 {
        return vec![Vec::new()];
    }
    let m = ds.n_attrs();
    let mut keys: Vec<Vec<AttrId>> = Vec::new();
    for size in 1..=max_size.min(m) {
        for mask in 0u32..1 << m {
            if mask.count_ones() as usize != size {
                continue;
            }
            let set: Vec<AttrId> = (0..m)
                .filter(|&a| mask & 1 << a != 0)
                .map(AttrId::new)
                .collect();
            let has_key_subset = keys.iter().any(|k| k.iter().all(|a| set.contains(a)));
            if !has_key_subset && unseparated_pairs(ds, &set) == 0 {
                keys.push(set);
            }
        }
    }
    keys.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The served query decides exactly as the paper's sort, with one
    /// scratch reused across every set and sample size.
    #[test]
    fn kernel_decision_equals_query_sorted(ds in samples()) {
        let m = ds.n_attrs();
        let filter = TupleSampleFilter::from_sample(ds, FilterParams::new(0.1));
        let mut scratch = CollisionScratch::new();
        for attrs in attr_sets(m) {
            prop_assert_eq!(
                filter.query_with(&attrs, &mut scratch),
                filter.query_sorted(&attrs),
                "attrs {:?} over {} rows", attrs, filter.sample().n_rows()
            );
        }
    }

    /// The counting mode counts exactly the singleton groups of the
    /// sort-based partition.
    #[test]
    fn count_unique_equals_group_size_singletons(ds in samples()) {
        let mut scratch = CollisionScratch::new();
        for attrs in attr_sets(ds.n_attrs()) {
            let singletons = group_sizes(&ds, &attrs).iter().filter(|&&s| s == 1).count();
            prop_assert_eq!(scratch.count_unique(&ds, &attrs), singletons, "attrs {:?}", attrs);
        }
    }

    /// The lattice, testing candidates with the kernel, returns what a
    /// sort-based brute-force lattice returns.
    #[test]
    fn lattice_equals_sort_based_reference(
        (alphabets, rows, with_id, seed, max_size) in (
            proptest::collection::vec(1i64..5, 1..5),
            0usize..48,
            0u8..2,
            0u64..u64::MAX,
            1usize..6,
        )
    ) {
        let ds = sample(&alphabets, rows, with_id == 1, seed);
        let cfg = LatticeConfig { max_size, ..LatticeConfig::default() };
        prop_assert_eq!(enumerate_minimal_keys(&ds, cfg), reference_lattice(&ds, max_size));
    }
}
