//! Minimal-key enumeration (unique column combination discovery).
//!
//! An extension beyond the paper: privacy auditing (the paper's §1
//! motivation) wants *all* minimal quasi-identifiers, not just one small
//! key. This module enumerates every inclusion-minimal key of a data
//! set level-wise (Apriori-style, as in UCC discovery systems like
//! Metanome's HyUCC/DUCC), with candidate pruning:
//!
//! * a candidate at level `ℓ` is generated only from two level-`ℓ−1`
//!   non-keys sharing a prefix, and kept only if **all** its
//!   `ℓ−1`-subsets are non-keys (guaranteeing minimality by
//!   construction);
//! * each candidate's key check is the early-exit mode of the exact
//!   hashed collision kernel ([`CollisionScratch::has_collision`]) on
//!   the (usually sampled) data set, one scratch reused across the
//!   whole enumeration.

use std::collections::HashSet;

use qid_dataset::{AttrId, Dataset};

use crate::filter::CollisionScratch;

/// Limits for the lattice search.
#[derive(Clone, Copy, Debug)]
pub struct LatticeConfig {
    /// Do not explore attribute sets larger than this.
    pub max_size: usize,
    /// Abort (returning what was found) if a level would exceed this
    /// many candidates.
    pub max_candidates: usize,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig {
            max_size: 6,
            max_candidates: 200_000,
        }
    }
}

/// Enumerates all inclusion-minimal keys of `ds` with at most
/// `cfg.max_size` attributes, in ascending size then lexicographic
/// order.
///
/// Run this on a `Θ(m/√ε)` tuple sample to enumerate minimal
/// ε-separation keys of a large data set with the paper's for-all
/// guarantee.
pub fn enumerate_minimal_keys(ds: &Dataset, cfg: LatticeConfig) -> Vec<Vec<AttrId>> {
    let m = ds.n_attrs();
    let mut keys: Vec<Vec<AttrId>> = Vec::new();
    if ds.n_rows() < 2 {
        // Every set (even the empty one) separates all zero pairs.
        return vec![Vec::new()];
    }

    let mut table = CollisionScratch::new();

    // Level 1.
    let mut non_keys: Vec<Vec<usize>> = Vec::new();
    for a in 0..m {
        let attrs = [AttrId::new(a)];
        if !table.has_collision(ds, &attrs) {
            keys.push(vec![AttrId::new(a)]);
        } else {
            non_keys.push(vec![a]);
        }
    }

    let mut level = 2usize;
    while level <= cfg.max_size && !non_keys.is_empty() {
        let prev_set: HashSet<&[usize]> = non_keys.iter().map(|v| v.as_slice()).collect();
        let mut candidates: Vec<Vec<usize>> = Vec::new();

        // Apriori join: combine non-keys sharing their first ℓ−2 attrs.
        for (i, a) in non_keys.iter().enumerate() {
            for b in &non_keys[i + 1..] {
                if a[..level - 2] != b[..level - 2] {
                    continue;
                }
                let mut cand = a.clone();
                cand.push(b[level - 2]);
                debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
                // Apriori prune: all (ℓ−1)-subsets must be non-keys.
                let all_subsets_non_key = (0..cand.len()).all(|drop| {
                    let mut sub = cand.clone();
                    sub.remove(drop);
                    prev_set.contains(sub.as_slice())
                });
                if all_subsets_non_key {
                    candidates.push(cand);
                }
                if candidates.len() > cfg.max_candidates {
                    // Too wide — return what is proven so far.
                    keys.sort();
                    return keys;
                }
            }
        }

        let mut next_non_keys = Vec::new();
        for cand in candidates {
            let attrs: Vec<AttrId> = cand.iter().map(|&a| AttrId::new(a)).collect();
            if !table.has_collision(ds, &attrs) {
                keys.push(attrs);
            } else {
                next_non_keys.push(cand);
            }
        }
        non_keys = next_non_keys;
        level += 1;
    }

    keys.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use qid_dataset::{DatasetBuilder, Value};

    fn ids(keys: &[Vec<AttrId>]) -> Vec<Vec<usize>> {
        keys.iter()
            .map(|k| k.iter().map(|a| a.index()).collect())
            .collect()
    }

    #[test]
    fn single_minimal_key() {
        let mut b = DatasetBuilder::new(["c", "id"]);
        for i in 0..8i64 {
            b.push_row([Value::Int(0), Value::Int(i)]).unwrap();
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert_eq!(ids(&keys), vec![vec![1]]);
    }

    #[test]
    fn composite_minimal_keys() {
        // a×b grid: neither a nor b alone is a key; {a,b} is; c is noise
        // that never helps minimally.
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        for i in 0..3i64 {
            for j in 0..3i64 {
                b.push_row([Value::Int(i), Value::Int(j), Value::Int(0)])
                    .unwrap();
            }
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert_eq!(ids(&keys), vec![vec![0, 1]]);
    }

    #[test]
    fn multiple_minimal_keys_found() {
        // id1 and id2 are independent keys; {a} is not.
        let mut b = DatasetBuilder::new(["id1", "a", "id2"]);
        for i in 0..6i64 {
            b.push_row([Value::Int(i), Value::Int(i % 2), Value::Int(5 - i)])
                .unwrap();
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert_eq!(ids(&keys), vec![vec![0], vec![2]]);
    }

    #[test]
    fn minimality_no_supersets_reported() {
        // {a,b} and {a,c} are minimal keys; {a,b,c} must not appear.
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        let rows = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)];
        for (x, y, z) in rows {
            b.push_row([Value::Int(x), Value::Int(y), Value::Int(z)])
                .unwrap();
        }
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        // b == c here, so minimal keys are {a,b} and {a,c}.
        assert_eq!(ids(&keys), vec![vec![0, 1], vec![0, 2]]);
        for k in &keys {
            assert!(k.len() < 3);
        }
    }

    #[test]
    fn no_key_at_all() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row([Value::Int(1), Value::Int(1)]).unwrap();
        b.push_row([Value::Int(1), Value::Int(1)]).unwrap();
        let keys = enumerate_minimal_keys(&b.finish(), LatticeConfig::default());
        assert!(keys.is_empty());
    }

    #[test]
    fn max_size_truncates_search() {
        // The only key is all three attributes; with max_size 2 nothing
        // is found.
        let mut b = DatasetBuilder::new(["a", "b", "c"]);
        for i in 0..2i64 {
            for j in 0..2i64 {
                for k in 0..2i64 {
                    b.push_row([Value::Int(i), Value::Int(j), Value::Int(k)])
                        .unwrap();
                }
            }
        }
        let ds = b.finish();
        let limited = enumerate_minimal_keys(
            &ds,
            LatticeConfig {
                max_size: 2,
                ..LatticeConfig::default()
            },
        );
        assert!(limited.is_empty());
        let full = enumerate_minimal_keys(&ds, LatticeConfig::default());
        assert_eq!(ids(&full), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn degenerate_small_datasets() {
        let empty = DatasetBuilder::new(["a"]).finish();
        let keys = enumerate_minimal_keys(&empty, LatticeConfig::default());
        assert_eq!(keys, vec![Vec::<AttrId>::new()]);
    }
}
