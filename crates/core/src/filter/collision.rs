//! The exact hashed collision kernel: duplicate detection on the
//! projection of a sample onto an attribute set, in `O(|A| · r)`
//! expected time and without allocating once its buffers have grown.
//!
//! Each row's dictionary codes over `A` are folded into a `u64`, column
//! by column, straight from [`qid_dataset::Column::codes`]. Row ids then
//! go into an open-addressed, linearly probed table of at least `2r`
//! slots. Two rows meeting on one slot with equal hashes are confirmed
//! with [`Dataset::rows_agree_on`], so a hash collision costs a probe,
//! never a wrong answer: every result equals the sort-based ground
//! truth ([`crate::separation::group_sizes`]). Codes come from the
//! audited data, so each scratch starts its hashes from a random seed:
//! a file crafted to pile its rows onto one probe chain cannot know
//! where the chains fall.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use qid_dataset::{AttrId, Dataset};

/// An unused table slot. Occupied slots hold `row + 1`.
const EMPTY: u32 = 0;

/// Set on an occupied slot once a second row joined its group.
const REPEATED: u32 = 1 << 31;

/// Folds one dictionary code into a row's running hash (the FxHash
/// step). The table is indexed by the top bits, which the final
/// multiply mixes from every input bit.
#[inline]
fn mix(h: u64, code: u32) -> u64 {
    (h.rotate_left(5) ^ u64::from(code)).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Caller-owned buffers of the collision kernel: one hash per sampled
/// row and the open-addressed table. Reused across queries (the
/// server keeps one per connection, the minimal-key lattice one per
/// enumeration), they grow to the largest sample seen and are never
/// shrunk, so the steady state allocates nothing.
#[derive(Clone, Debug)]
pub struct CollisionScratch {
    /// Every row's hash before its first code is folded in.
    seed: u64,
    hashes: Vec<u64>,
    slots: Vec<u32>,
}

impl Default for CollisionScratch {
    fn default() -> Self {
        CollisionScratch::new()
    }
}

impl CollisionScratch {
    /// Empty buffers, which grow on first use, and a fresh random seed.
    pub fn new() -> Self {
        CollisionScratch {
            seed: RandomState::new().hash_one(0u64),
            hashes: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Do two rows of `ds` agree on every attribute of `attrs`? Stops
    /// at the first confirmed collision. With `attrs` empty, any two
    /// rows agree; with fewer than two rows, none do.
    pub fn has_collision(&mut self, ds: &Dataset, attrs: &[AttrId]) -> bool {
        self.group::<true>(ds, attrs, mix).is_none()
    }

    /// The number of rows of `ds` whose projection onto `attrs` no
    /// other row shares: the singleton groups of
    /// [`crate::separation::group_sizes`].
    pub fn count_unique(&mut self, ds: &Dataset, attrs: &[AttrId]) -> usize {
        let (groups, repeated) = self
            .group::<false>(ds, attrs, mix)
            .expect("a counting pass runs to the end");
        groups - repeated
    }

    /// Groups the rows of `ds` by their projection onto `attrs`, the
    /// first row of each group standing for it in the table. Returns
    /// `None` at the first repeated projection if `STOP`, else
    /// `(groups, groups of two or more rows)`.
    fn group<const STOP: bool>(
        &mut self,
        ds: &Dataset,
        attrs: &[AttrId],
        mix: impl Fn(u64, u32) -> u64,
    ) -> Option<(usize, usize)> {
        let n = ds.n_rows();
        assert!(n < REPEATED as usize, "{n} rows overflow the slot encoding");
        self.hashes.clear();
        self.hashes.resize(n, self.seed);
        for &attr in attrs {
            for (h, &code) in self.hashes.iter_mut().zip(ds.column(attr).codes()) {
                *h = mix(*h, code);
            }
        }
        let capacity = (2 * n).max(2).next_power_of_two();
        let shift = 64 - capacity.trailing_zeros();
        let mask = capacity - 1;
        self.slots.clear();
        self.slots.resize(capacity, EMPTY);
        let (mut groups, mut repeated) = (0, 0);
        'rows: for (row, &h) in self.hashes.iter().enumerate() {
            let mut i = (h >> shift) as usize;
            loop {
                let slot = self.slots[i];
                if slot == EMPTY {
                    self.slots[i] = row as u32 + 1;
                    groups += 1;
                    continue 'rows;
                }
                let first = ((slot & !REPEATED) - 1) as usize;
                if self.hashes[first] == h && ds.rows_agree_on(first, row, attrs) {
                    if STOP {
                        return None;
                    }
                    if slot & REPEATED == 0 {
                        self.slots[i] = slot | REPEATED;
                        repeated += 1;
                    }
                    continue 'rows;
                }
                i = (i + 1) & mask;
            }
        }
        Some((groups, repeated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separation::group_sizes;
    use proptest::prelude::*;
    use qid_dataset::{DatasetBuilder, Value};

    /// A mixer that sends every row to one hash, so every probe past
    /// the first row goes through the exact confirm.
    fn degenerate(_: u64, _: u32) -> u64 {
        0x8000_0000_0000_0000
    }

    fn dataset(rows: &[Vec<i64>], m: usize) -> Dataset {
        let mut b = DatasetBuilder::new((0..m).map(|a| format!("a{a}")));
        for row in rows {
            b.push_row(row.iter().map(|&v| Value::Int(v))).unwrap();
        }
        b.finish()
    }

    fn sets(m: usize) -> Vec<Vec<AttrId>> {
        let mut sets: Vec<Vec<AttrId>> = (0u32..1 << m)
            .map(|mask| {
                (0..m)
                    .filter(|&a| mask & 1 << a != 0)
                    .map(AttrId::new)
                    .collect()
            })
            .collect();
        // A duplicated attribute projects like the single one.
        sets.push(vec![AttrId::new(0), AttrId::new(0)]);
        sets
    }

    fn matrix() -> impl Strategy<Value = (Vec<Vec<i64>>, usize)> {
        (0usize..120, 1usize..4, 1i64..5).prop_flat_map(|(rows, m, alphabet)| {
            proptest::collection::vec(proptest::collection::vec(0..alphabet, m), rows)
                .prop_map(move |rows| (rows, m))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// With every row on one hash, both modes still equal the
        /// sort-based group sizes: the confirm alone decides.
        #[test]
        fn degenerate_mixer_stays_exact((rows, m) in matrix()) {
            let ds = dataset(&rows, m);
            let mut scratch = CollisionScratch::new();
            for attrs in sets(m) {
                let sizes = group_sizes(&ds, &attrs);
                let any_repeat = sizes.iter().any(|&s| s > 1);
                let unique = sizes.iter().filter(|&&s| s == 1).count();
                prop_assert_eq!(
                    scratch.group::<true>(&ds, &attrs, degenerate).is_none(),
                    any_repeat
                );
                let (groups, repeated) = scratch
                    .group::<false>(&ds, &attrs, degenerate)
                    .unwrap();
                prop_assert_eq!(groups, sizes.len());
                prop_assert_eq!(groups - repeated, unique);
            }
        }
    }

    #[test]
    fn empty_sets_and_tiny_samples() {
        let mut scratch = CollisionScratch::new();
        let two = dataset(&[vec![1], vec![2]], 1);
        assert!(scratch.has_collision(&two, &[]));
        assert!(!scratch.has_collision(&two, &[AttrId::new(0)]));
        assert_eq!(scratch.count_unique(&two, &[]), 0);
        assert_eq!(scratch.count_unique(&two, &[AttrId::new(0)]), 2);
        let one = dataset(&[vec![1]], 1);
        assert!(!scratch.has_collision(&one, &[]));
        assert_eq!(scratch.count_unique(&one, &[]), 1);
        let none = dataset(&[], 1);
        assert!(!scratch.has_collision(&none, &[AttrId::new(0)]));
        assert_eq!(scratch.count_unique(&none, &[AttrId::new(0)]), 0);
    }

    #[test]
    fn buffers_stop_growing_once_sized() {
        let rows: Vec<Vec<i64>> = (0..300).map(|i| vec![i, i % 7]).collect();
        let ds = dataset(&rows, 2);
        let mut scratch = CollisionScratch::new();
        scratch.count_unique(&ds, &[AttrId::new(0)]);
        let (hashes, slots) = (scratch.hashes.as_ptr(), scratch.slots.as_ptr());
        for attrs in sets(2) {
            scratch.has_collision(&ds, &attrs);
            scratch.count_unique(&ds, &attrs);
        }
        assert_eq!(scratch.hashes.as_ptr(), hashes);
        assert_eq!(scratch.slots.as_ptr(), slots);
    }
}
