//! One-pass reservoir sampling.
//!
//! The paper observes that its sampling algorithms run in the streaming
//! model with space proportional to the sample size. These reservoirs
//! are the mechanism: after consuming any prefix of a stream, a
//! reservoir of capacity `k` holds a uniform `k`-subset of that prefix.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::{Rng, RngExt};

/// Vitter's **Algorithm R**: O(1) work per item, one RNG draw per item.
///
/// ```
/// use qid_sampling::Reservoir;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut res = Reservoir::new(3);
/// for x in 0..100 {
///     res.push(x, &mut rng);
/// }
/// assert_eq!(res.items().len(), 3);
/// assert_eq!(res.seen(), 100);
/// ```
#[derive(Clone, Debug)]
pub struct Reservoir<T> {
    capacity: usize,
    items: Vec<T>,
    seen: usize,
}

impl<T> Reservoir<T> {
    /// Creates a reservoir holding up to `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            items: Vec::with_capacity(capacity),
            seen: 0,
        }
    }

    /// Offers one item; returns `true` if it was retained (possibly
    /// displacing an earlier one).
    pub fn push<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) -> bool {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return true;
        }
        let j = rng.random_range(0..self.seen);
        if j < self.capacity {
            self.items[j] = item;
            true
        } else {
            false
        }
    }

    /// The current sample (uniform over all items seen).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the reservoir, returning the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The configured capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Li's **Algorithm L**: skip-based reservoir with O(k log(n/k)) total
/// RNG draws instead of O(n).
///
/// After the reservoir fills, the algorithm computes geometric skip
/// lengths; items inside a skip are rejected with *zero* per-item RNG
/// work. For sketches over multi-hundred-thousand-row streams this is
/// the difference between 581k draws and a few hundred.
#[derive(Clone, Debug)]
pub struct SkipReservoir<T> {
    capacity: usize,
    items: Vec<T>,
    seen: usize,
    /// Index (0-based among offered items) of the next item to accept.
    next_accept: usize,
    /// Algorithm L's running weight `W`.
    w: f64,
}

impl<T> SkipReservoir<T> {
    /// Creates a reservoir holding up to `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        SkipReservoir {
            capacity,
            items: Vec::with_capacity(capacity),
            seen: 0,
            next_accept: 0,
            w: 1.0,
        }
    }

    /// Draws the next accept index. Called when `self.seen` equals the
    /// index of the next incoming item; a skip of zero accepts it.
    fn schedule_next<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // W ← W · U1^{1/k};  skip ← ⌊log U2 / log(1−W)⌋
        let u1: f64 = rng.random();
        self.w *= u1.powf(1.0 / self.capacity as f64);
        let u2: f64 = rng.random();
        let skip = (u2.ln() / (1.0 - self.w).ln()).floor();
        // Guard against degenerate W (w → 0 or 1 under fp rounding).
        let skip = if skip.is_finite() && skip >= 0.0 {
            skip as usize
        } else {
            usize::MAX / 2
        };
        self.next_accept = self.seen.saturating_add(skip);
    }

    /// Offers one item; returns `true` if it was retained.
    pub fn push<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) -> bool {
        self.push_with(|| item, rng)
    }

    /// Offers one item, materialising it only if the reservoir retains
    /// it: `make` is called exactly once for a retained item and not at
    /// all for a skipped one — the common case after warm-up — so a
    /// caller holding a borrowed form of the item pays for the owned
    /// one only on accepts. The [`MultiReservoir::push_with`] twin.
    /// Accepts depend only on the RNG and the item count, so the
    /// trajectory is exactly [`push`](Self::push)'s.
    pub fn push_with<R: Rng + ?Sized, F: FnOnce() -> T>(&mut self, make: F, rng: &mut R) -> bool {
        if self.items.len() < self.capacity {
            self.items.push(make());
            self.seen += 1;
            if self.items.len() == self.capacity {
                self.schedule_next(rng);
            }
            return true;
        }
        let accept = self.seen == self.next_accept;
        self.seen += 1;
        if accept {
            let slot = rng.random_range(0..self.capacity);
            self.items[slot] = make();
            self.schedule_next(rng);
        }
        accept
    }

    /// The current sample (uniform over all items seen).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the reservoir, returning the sample.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The reservoir's scalar state, for checkpointing. Together with a
    /// copy of [`items`](Self::items) this is everything Algorithm L
    /// carries between items; [`SkipReservoir::resume`] rebuilds a
    /// reservoir that continues the exact same trajectory (same RNG ⇒
    /// same accepts, same slots, same final sample).
    pub fn state(&self) -> SkipState {
        SkipState {
            capacity: self.capacity,
            seen: self.seen,
            next_accept: self.next_accept,
            w_bits: self.w.to_bits(),
        }
    }

    /// Rebuilds a reservoir from a checkpoint taken by
    /// [`SkipReservoir::state`] plus the retained items.
    ///
    /// Returns `None` when the pieces are mutually inconsistent (item
    /// count does not match the phase implied by `seen`, or the weight
    /// is outside Algorithm L's (0, 1] invariant) — a corrupted or
    /// hand-edited checkpoint, not a programming error, so no panic.
    pub fn resume(state: SkipState, items: Vec<T>) -> Option<Self> {
        if state.capacity == 0 {
            return None;
        }
        let expected = state.seen.min(state.capacity);
        if items.len() != expected {
            return None;
        }
        let w = f64::from_bits(state.w_bits);
        if !w.is_finite() || !(0.0..=1.0).contains(&w) {
            return None;
        }
        Some(SkipReservoir {
            capacity: state.capacity,
            items,
            seen: state.seen,
            next_accept: state.next_accept,
            w,
        })
    }
}

/// The scalar half of a [`SkipReservoir`] checkpoint (the items travel
/// separately — they usually already live in a persisted sample file).
///
/// `w_bits` is the bit pattern of Algorithm L's running weight `W`
/// (`f64::to_bits`): bits rather than the float so a serialisation
/// round-trip cannot perturb the skip sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipState {
    /// Reservoir capacity `k`.
    pub capacity: usize,
    /// Items offered so far.
    pub seen: usize,
    /// Index (0-based among offered items) of the next accept.
    pub next_accept: usize,
    /// `f64::to_bits` of the running weight `W`.
    pub w_bits: u64,
}

/// `s` independent reservoirs of capacity `k` over one stream, sharing a
/// skip heap so the per-item cost is O(#reservoirs that fire), not O(s).
///
/// With `k = 2` this implements the paper's streaming Motwani–Xu
/// sketch: each slot independently holds a uniform unordered *pair* of
/// stream items, so the `s` slots form `s` i.i.d. uniform pairs (pair
/// sampling "with replacement" across slots, as the MX analysis
/// assumes). Total update work for `n` items is `O(n + s·k·log(n/k))`.
#[derive(Clone, Debug)]
pub struct MultiReservoir<T> {
    k: usize,
    slots: Vec<Vec<T>>,
    seen: usize,
    /// Min-heap of (next-accept index, slot).
    schedule: BinaryHeap<Reverse<(usize, usize)>>,
    /// Per-slot Algorithm L weight.
    weights: Vec<f64>,
}

impl<T: Clone> MultiReservoir<T> {
    /// Creates `s` independent reservoirs of capacity `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `s == 0`.
    pub fn new(s: usize, k: usize) -> Self {
        assert!(k > 0, "reservoir capacity must be positive");
        assert!(s > 0, "need at least one slot");
        MultiReservoir {
            k,
            slots: vec![Vec::with_capacity(k); s],
            seen: 0,
            schedule: BinaryHeap::new(),
            weights: vec![1.0; s],
        }
    }

    /// Draws the next accept index for `slot`. `base` is the index of
    /// the next incoming item; a skip of zero accepts it.
    fn schedule_slot<R: Rng + ?Sized>(&mut self, slot: usize, base: usize, rng: &mut R) {
        let u1: f64 = rng.random();
        self.weights[slot] *= u1.powf(1.0 / self.k as f64);
        let u2: f64 = rng.random();
        let w = self.weights[slot];
        let skip = (u2.ln() / (1.0 - w).ln()).floor();
        let skip = if skip.is_finite() && skip >= 0.0 {
            skip as usize
        } else {
            usize::MAX / 2
        };
        let next = base.saturating_add(skip);
        self.schedule.push(Reverse((next, slot)));
    }

    /// Offers one item to all slots.
    pub fn push<R: Rng + ?Sized>(&mut self, item: &T, rng: &mut R) {
        self.push_with(|| item.clone(), rng);
    }

    /// Offers one item to all slots, materialising a copy only when a
    /// slot actually retains it. `make` is called once per retaining
    /// slot and not at all for skipped items — the common case after
    /// warm-up — so callers holding a borrowed form of the item avoid
    /// an up-front conversion on the hot path.
    pub fn push_with<R: Rng + ?Sized, F: FnMut() -> T>(&mut self, mut make: F, rng: &mut R) {
        if self.seen < self.k {
            // Warm-up: every slot takes the first k items.
            for slot in &mut self.slots {
                slot.push(make());
            }
            self.seen += 1;
            if self.seen == self.k {
                for s in 0..self.slots.len() {
                    self.schedule_slot(s, self.seen, rng);
                }
            }
            return;
        }
        while let Some(&Reverse((next, slot))) = self.schedule.peek() {
            if next != self.seen {
                debug_assert!(next > self.seen, "missed a scheduled accept");
                break;
            }
            self.schedule.pop();
            let victim = rng.random_range(0..self.k);
            self.slots[slot][victim] = make();
            self.schedule_slot(slot, self.seen + 1, rng);
        }
        self.seen += 1;
    }

    /// The current samples, one `Vec` of (up to) `k` items per slot.
    pub fn slots(&self) -> &[Vec<T>] {
        &self.slots
    }

    /// Consumes the reservoir, returning all slots.
    pub fn into_slots(self) -> Vec<Vec<T>> {
        self.slots
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn algorithm_r_holds_prefix_when_short() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Reservoir::new(10);
        for x in 0..5 {
            assert!(r.push(x, &mut rng));
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
        assert_eq!(r.capacity(), 10);
    }

    #[test]
    fn algorithm_r_uniformity() {
        // Element 0 should survive in a k=1 reservoir over n=4 items with
        // probability 1/4.
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 40_000;
        let mut zero_kept = 0;
        for _ in 0..trials {
            let mut r = Reservoir::new(1);
            for x in 0..4 {
                r.push(x, &mut rng);
            }
            if r.items()[0] == 0 {
                zero_kept += 1;
            }
        }
        let frac = zero_kept as f64 / trials as f64;
        assert!((0.23..0.27).contains(&frac), "P(keep first) = {frac}");
    }

    #[test]
    fn skip_reservoir_matches_algorithm_r_distribution() {
        // Same uniformity check for Algorithm L.
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 40_000;
        let mut zero_kept = 0;
        for _ in 0..trials {
            let mut r = SkipReservoir::new(1);
            for x in 0..4 {
                r.push(x, &mut rng);
            }
            if r.items()[0] == 0 {
                zero_kept += 1;
            }
        }
        let frac = zero_kept as f64 / trials as f64;
        assert!((0.23..0.27).contains(&frac), "P(keep first) = {frac}");
    }

    #[test]
    fn skip_reservoir_k_many() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut r = SkipReservoir::new(50);
        for x in 0..10_000 {
            r.push(x, &mut rng);
        }
        assert_eq!(r.items().len(), 50);
        assert_eq!(r.seen(), 10_000);
        // Sample should not be the initial prefix.
        assert!(r.items().iter().any(|&x| x >= 50));
        let mut sorted = r.into_items();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "reservoir kept a duplicate index");
    }

    #[test]
    fn multi_reservoir_pairs_are_distinct_items() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mr = MultiReservoir::new(100, 2);
        for x in 0..1000usize {
            mr.push(&x, &mut rng);
        }
        assert_eq!(mr.seen(), 1000);
        for slot in mr.slots() {
            assert_eq!(slot.len(), 2);
            assert_ne!(slot[0], slot[1], "a pair slot holds a duplicate");
        }
    }

    #[test]
    fn multi_reservoir_slot_marginal_is_uniform_pair() {
        // Over {0,1,2}: each unordered pair should appear w.p. 1/3 in
        // any fixed slot.
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 30_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            let mut mr = MultiReservoir::new(1, 2);
            for x in 0..3usize {
                mr.push(&x, &mut rng);
            }
            let mut p = mr.slots()[0].clone();
            p.sort_unstable();
            *counts.entry((p[0], p[1])).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3);
        for (&pair, &c) in &counts {
            let frac = c as f64 / trials as f64;
            assert!(
                (0.30..0.37).contains(&frac),
                "pair {pair:?} frequency {frac}"
            );
        }
    }

    #[test]
    fn multi_reservoir_short_stream_keeps_prefix() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mr = MultiReservoir::new(3, 5);
        for x in 0..4usize {
            mr.push(&x, &mut rng);
        }
        for slot in mr.slots() {
            assert_eq!(slot, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn skip_reservoir_resume_continues_exact_trajectory() {
        // Run one reservoir straight through; run a second to the
        // checkpoint, round-trip it through state()/resume, and finish.
        // Same RNG sequence ⇒ bit-identical samples.
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut straight = SkipReservoir::new(20);
        for x in 0..5_000 {
            straight.push(x, &mut rng_a);
        }

        let mut rng_b = StdRng::seed_from_u64(11);
        let mut first_half = SkipReservoir::new(20);
        for x in 0..2_500 {
            first_half.push(x, &mut rng_b);
        }
        let state = first_half.state();
        let items = first_half.into_items();
        let mut resumed = SkipReservoir::resume(state, items).expect("valid checkpoint");
        for x in 2_500..5_000 {
            resumed.push(x, &mut rng_b);
        }

        assert_eq!(straight.items(), resumed.items());
        assert_eq!(straight.seen(), resumed.seen());
        assert_eq!(straight.state(), resumed.state());
    }

    #[test]
    fn skip_reservoir_push_with_matches_push() {
        // Same RNG, same stream: the same accepts land in the same
        // slots, and `make` runs exactly once per retained item.
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(13), StdRng::seed_from_u64(13));
        let (mut owned, mut lazy) = (SkipReservoir::new(16), SkipReservoir::new(16));
        let mut made = 0;
        for x in 0..5_000 {
            let kept = owned.push(x, &mut rng_a);
            let mut calls = 0;
            let kept_lazy = lazy.push_with(
                || {
                    calls += 1;
                    x
                },
                &mut rng_b,
            );
            assert_eq!(kept, kept_lazy, "item {x}");
            assert_eq!(calls, usize::from(kept), "item {x}");
            made += calls;
        }
        assert_eq!(owned.items(), lazy.items());
        assert_eq!(owned.state(), lazy.state());
        assert!(made < 500, "skips should spare most items, made {made}");
    }

    #[test]
    fn skip_reservoir_resume_rejects_inconsistent_checkpoints() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut r = SkipReservoir::new(3);
        for x in 0..100 {
            r.push(x, &mut rng);
        }
        let good = r.state();
        let items = r.into_items();

        // Item count disagrees with the phase implied by `seen`.
        assert!(SkipReservoir::resume(good, vec![1, 2]).is_none());
        // Zero capacity.
        let mut bad = good;
        bad.capacity = 0;
        assert!(SkipReservoir::resume(bad, items.clone()).is_none());
        // Weight outside (0, 1].
        let mut bad = good;
        bad.w_bits = 2.0_f64.to_bits();
        assert!(SkipReservoir::resume(bad, items.clone()).is_none());
        let mut bad = good;
        bad.w_bits = f64::NAN.to_bits();
        assert!(SkipReservoir::resume(bad, items.clone()).is_none());
        // The untouched checkpoint still resumes.
        assert!(SkipReservoir::resume(good, items).is_some());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Reservoir::<u32>::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = MultiReservoir::<u32>::new(0, 2);
    }
}
