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

/// Draws the next accept index of an Algorithm L reservoir of capacity
/// `k`, advancing its weight `w`. `base` is the index of the next
/// incoming item; a skip of zero accepts it.
fn draw_next_accept<R: Rng + ?Sized>(w: &mut f64, k: usize, base: usize, rng: &mut R) -> usize {
    // W ← W · U1^{1/k};  skip ← ⌊log U2 / log(1−W)⌋
    let u1: f64 = rng.random();
    *w *= u1.powf(1.0 / k as f64);
    let u2: f64 = rng.random();
    let skip = (u2.ln() / (1.0 - *w).ln()).floor();
    // Guard against degenerate W (w → 0 or 1 under fp rounding).
    let skip = if skip.is_finite() && skip >= 0.0 {
        skip as usize
    } else {
        usize::MAX / 2
    };
    base.saturating_add(skip)
}

/// Li's **Algorithm L**: skip-based reservoir with O(k log(n/k)) total
/// RNG draws instead of O(n).
///
/// After the reservoir fills, the algorithm computes geometric skip
/// lengths; items inside a skip are rejected with *zero* per-item RNG
/// work. For sketches over multi-hundred-thousand-row streams this is
/// the difference between 581k draws and a few hundred.
#[derive(Clone, Debug, PartialEq)]
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
        self.next_accept = draw_next_accept(&mut self.w, self.capacity, self.seen, rng);
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

    /// Rebuilds the reservoir that pushing `seen` items leaves, from the
    /// `items` it retained (in slot order), with `rng` fresh from the
    /// seed the pushes drew from; `rng` ends where they left it.
    ///
    /// Algorithm L's skips, slot choices and weight depend only on the
    /// RNG and the item count, never on the items, so stepping from
    /// accept to accept through the schedule re-derives everything but
    /// the items in `O(k log(n/k))` draws. Returns `None` unless
    /// `items.len() == min(seen, capacity)` — a sample that does not fit
    /// its row count, not a programming error, so no panic.
    pub fn replay<R: Rng + ?Sized>(
        capacity: usize,
        seen: usize,
        items: Vec<T>,
        rng: &mut R,
    ) -> Option<Self> {
        if capacity == 0 || items.len() != seen.min(capacity) {
            return None;
        }
        let mut reservoir = SkipReservoir {
            capacity,
            items,
            seen: seen.min(capacity),
            next_accept: 0,
            w: 1.0,
        };
        if seen < capacity {
            return Some(reservoir);
        }
        reservoir.schedule_next(rng);
        while reservoir.next_accept < seen {
            reservoir.seen = reservoir.next_accept + 1;
            // The accept's slot: `items` already hold what it chose, but
            // the draw moves the RNG as the push did.
            rng.random_range(0..capacity);
            reservoir.schedule_next(rng);
        }
        reservoir.seen = seen;
        Some(reservoir)
    }
}

/// `s` independent reservoirs of capacity `k` over one stream, sharing a
/// skip heap so the per-item cost is O(#reservoirs that fire), not O(s).
///
/// With `k = 2` this implements the paper's streaming Motwani–Xu
/// sketch: each slot independently holds a uniform unordered *pair* of
/// stream items, so the `s` slots form `s` i.i.d. uniform pairs (pair
/// sampling "with replacement" across slots, as the MX analysis
/// assumes). Total update work for `n` items is `O(n + s·k·log(n/k))`.
///
/// As for [`SkipReservoir`], which slot accepts which item and which
/// victim it drops depend only on the RNG and the item count, never on
/// the items. So one walk of the schedule drives a push, a
/// [`plan`](MultiReservoir::plan) that names every slot's items before
/// any item is read, and a [`replay`](MultiReservoir::replay) that
/// rebuilds a reservoir from the items it retained.
#[derive(Clone, Debug)]
pub struct MultiReservoir<T> {
    slots: Vec<Vec<T>>,
    schedule: Schedule,
}

/// The item-independent half of a [`MultiReservoir`]: the item count,
/// every slot's next accept and its Algorithm L weight.
#[derive(Clone, Debug)]
struct Schedule {
    k: usize,
    seen: usize,
    /// Min-heap of (next-accept index, slot).
    heap: BinaryHeap<Reverse<(usize, usize)>>,
    /// Per-slot Algorithm L weight.
    weights: Vec<f64>,
}

impl Schedule {
    /// Ends the warm-up: once every slot holds the first `k` items,
    /// schedules each slot's first accept, in slot order.
    fn start<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        debug_assert_eq!(self.seen, self.k, "the warm-up ends at k items");
        for slot in 0..self.weights.len() {
            let next = draw_next_accept(&mut self.weights[slot], self.k, self.seen, rng);
            self.heap.push(Reverse((next, slot)));
        }
    }

    /// Steps through every accept before item `to` in heap order —
    /// by item index, then slot — drawing each accept's victim and the
    /// slot's next accept, and calls `accept(slot, victim, item)` for
    /// each. Leaves `seen == to`. Only valid after [`start`](Self::start).
    fn advance<R: Rng + ?Sized>(
        &mut self,
        to: usize,
        rng: &mut R,
        mut accept: impl FnMut(usize, usize, usize),
    ) {
        // The slot's next accept replaces its entry at the top, so the
        // heap sifts once per accept.
        while let Some(mut top) = self.heap.peek_mut() {
            let Reverse((next, slot)) = *top;
            if next >= to {
                break;
            }
            debug_assert!(next >= self.seen, "missed a scheduled accept");
            let victim = rng.random_range(0..self.k);
            accept(slot, victim, next);
            let after = draw_next_accept(&mut self.weights[slot], self.k, next + 1, rng);
            *top = Reverse((after, slot));
        }
        self.seen = to;
    }
}

impl<T> MultiReservoir<T> {
    /// Creates `s` independent reservoirs of capacity `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `s == 0`.
    pub fn new(s: usize, k: usize) -> Self {
        assert!(k > 0, "reservoir capacity must be positive");
        assert!(s > 0, "need at least one slot");
        MultiReservoir {
            slots: (0..s).map(|_| Vec::with_capacity(k)).collect(),
            schedule: Schedule {
                k,
                seen: 0,
                heap: BinaryHeap::new(),
                weights: vec![1.0; s],
            },
        }
    }

    /// Offers one item to all slots, materialising a copy only when a
    /// slot actually retains it. `make` is called once per retaining
    /// slot and not at all for skipped items — the common case after
    /// warm-up — so callers holding a borrowed form of the item avoid
    /// an up-front conversion on the hot path.
    pub fn push_with<R: Rng + ?Sized, F: FnMut() -> T>(&mut self, mut make: F, rng: &mut R) {
        let schedule = &mut self.schedule;
        if schedule.seen < schedule.k {
            // Warm-up: every slot takes the first k items.
            for slot in &mut self.slots {
                slot.push(make());
            }
            schedule.seen += 1;
            if schedule.seen == schedule.k {
                schedule.start(rng);
            }
            return;
        }
        let slots = &mut self.slots;
        schedule.advance(schedule.seen + 1, rng, |slot, victim, _| {
            slots[slot][victim] = make();
        });
    }

    /// Rebuilds the reservoir that pushing `seen` items into `new(s, k)`
    /// leaves, from the `slots` it retained (each in victim order), with
    /// `rng` fresh from the seed the pushes drew from; `rng` ends where
    /// they left it. The shared-heap twin of [`SkipReservoir::replay`]:
    /// `O(s·k·log(n/k))` draws and heap steps, no item read. Returns
    /// `None` unless there are `s` slots of `min(seen, k)` items each —
    /// a sample that does not fit its row count, not a programming
    /// error, so no panic.
    pub fn replay<R: Rng + ?Sized>(
        s: usize,
        k: usize,
        seen: usize,
        slots: Vec<Vec<T>>,
        rng: &mut R,
    ) -> Option<Self> {
        let fits = s > 0 && k > 0 && slots.len() == s;
        if !fits || slots.iter().any(|slot| slot.len() != seen.min(k)) {
            return None;
        }
        let mut replayed = MultiReservoir::new(s, k);
        replayed.slots = slots;
        replayed.schedule.seen = seen.min(k);
        if seen >= k {
            replayed.schedule.start(rng);
            // The victims are already where the pushes put them; the
            // draws move the RNG as the pushes did.
            replayed.schedule.advance(seen, rng, |_, _, _| {});
        }
        Some(replayed)
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
        self.schedule.seen
    }
}

impl<T: Clone> MultiReservoir<T> {
    /// Offers one item to all slots.
    pub fn push<R: Rng + ?Sized>(&mut self, item: &T, rng: &mut R) {
        self.push_with(|| item.clone(), rng);
    }
}

impl MultiReservoir<usize> {
    /// The reservoir that pushing the items `0..n` into `new(s, k)`
    /// leaves, computed without offering them: each slot holds the
    /// indices of the items it retained, and `rng` ends where the
    /// pushes would leave it. A caller that knows its stream's length
    /// plans the slots first, then keeps only the items they name.
    ///
    /// # Panics
    /// Panics if `k == 0` or `s == 0`.
    pub fn plan<R: Rng + ?Sized>(s: usize, k: usize, n: usize, rng: &mut R) -> Self {
        let mut plan = MultiReservoir::new(s, k);
        let warm = n.min(k);
        for slot in &mut plan.slots {
            slot.extend(0..warm);
        }
        plan.schedule.seen = warm;
        if warm == k {
            plan.schedule.start(rng);
            let slots = &mut plan.slots;
            plan.schedule.advance(n, rng, |slot, victim, item| {
                slots[slot][victim] = item;
            });
        }
        plan
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
        // Run one reservoir straight through; push a second to the
        // midpoint, replay a third from its items and a fresh generator,
        // and finish. Same RNG sequence ⇒ bit-identical samples.
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
        let mut rng_c = StdRng::seed_from_u64(11);
        let items = first_half.items().to_vec();
        let mut resumed = SkipReservoir::replay(20, 2_500, items, &mut rng_c).expect("it fits");
        assert_eq!(resumed, first_half);
        assert_eq!(rng_c, rng_b);
        for x in 2_500..5_000 {
            resumed.push(x, &mut rng_c);
        }

        assert_eq!(resumed, straight);
        assert_eq!(rng_c, rng_a);
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
        assert_eq!(owned, lazy);
        assert_eq!(rng_a, rng_b);
        assert!(made < 500, "skips should spare most items, made {made}");
    }

    #[test]
    fn skip_reservoir_resume_rejects_inconsistent_checkpoints() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut r = SkipReservoir::new(3);
        for x in 0..100 {
            r.push(x, &mut rng);
        }
        let items = r.into_items();
        let replay = |capacity, seen, items| {
            SkipReservoir::replay(capacity, seen, items, &mut StdRng::seed_from_u64(12))
        };

        // Item count disagrees with the phase implied by `seen`.
        assert!(replay(3, 100, vec![1, 2]).is_none());
        assert!(replay(3, 2, items.clone()).is_none());
        assert!(replay(4, 100, items.clone()).is_none());
        // Zero capacity.
        assert!(replay(0, 0, Vec::new()).is_none());
        // The fitting sample still replays.
        assert!(replay(3, 100, items).is_some());
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

/// [`SkipReservoir::replay`] against the pushes it stands in for.
#[cfg(test)]
mod replay_tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `n` is 0, the capacity, below it, or anything up to 10⁶.
        #[test]
        fn a_replayed_reservoir_equals_a_pushed_one_and_continues_it(
            capacity in 1usize..=2048,
            shape in 0u8..4,
            raw in 0usize..=1_000_000,
            seed in 0u64..=u64::MAX,
        ) {
            let n = match shape {
                0 => 0,
                1 => capacity,
                2 => raw % capacity,
                _ => raw,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pushed = SkipReservoir::new(capacity);
            for x in 0..n {
                pushed.push(x, &mut rng);
            }
            let mut replayed_rng = StdRng::seed_from_u64(seed);
            let items = pushed.items().to_vec();
            let replayed = SkipReservoir::replay(capacity, n, items, &mut replayed_rng);
            prop_assert!(replayed.is_some(), "n {} did not replay", n);
            let mut replayed = replayed.unwrap();
            prop_assert!(replayed == pushed, "n {}", n);
            prop_assert!(replayed_rng == rng, "n {}", n);
            for x in n..n + 5_000 {
                let kept = pushed.push(x, &mut rng);
                prop_assert_eq!(replayed.push(x, &mut replayed_rng), kept, "item {}", x);
            }
            prop_assert!(replayed == pushed, "n {} + 5000", n);
            prop_assert!(replayed_rng == rng, "n {} + 5000", n);
        }
    }
}

/// [`MultiReservoir::plan`] and [`MultiReservoir::replay`] against the
/// pushes they stand in for.
#[cfg(test)]
mod multi_replay_tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    /// Everything but the items: the item count, the heap's entries in
    /// order, and the weights' bits.
    type ScheduleState = (usize, Vec<(usize, usize)>, Vec<u64>);

    impl<T> MultiReservoir<T> {
        fn schedule_state(&self) -> ScheduleState {
            let mut heap: Vec<_> = self.schedule.heap.iter().map(|r| r.0).collect();
            heap.sort_unstable();
            let weights = self.schedule.weights.iter().map(|w| w.to_bits()).collect();
            (self.schedule.seen, heap, weights)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `n` is 0, 1, 2, or anything up to 10⁶.
        #[test]
        fn a_planned_or_replayed_multi_reservoir_equals_a_pushed_one(
            s in 1usize..=512,
            shape in 0u8..4,
            raw in 0usize..=1_000_000,
            seed in 0u64..=u64::MAX,
        ) {
            let n = if shape < 3 { usize::from(shape) } else { raw };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pushed = MultiReservoir::new(s, 2);
            for x in 0..n {
                pushed.push(&(x as u32), &mut rng);
            }

            let mut plan_rng = StdRng::seed_from_u64(seed);
            let plan = MultiReservoir::plan(s, 2, n, &mut plan_rng);
            let planned: Vec<Vec<u32>> = plan
                .slots()
                .iter()
                .map(|slot| slot.iter().map(|&i| i as u32).collect())
                .collect();
            prop_assert!(planned == pushed.slots(), "n {}: planned slots", n);
            prop_assert!(plan.schedule_state() == pushed.schedule_state(), "n {}", n);
            prop_assert!(plan_rng == rng, "n {}: planned rng", n);

            let mut replayed_rng = StdRng::seed_from_u64(seed);
            let slots = pushed.slots().to_vec();
            let replayed = MultiReservoir::replay(s, 2, n, slots, &mut replayed_rng);
            prop_assert!(replayed.is_some(), "n {} did not replay", n);
            let mut replayed = replayed.unwrap();
            prop_assert!(replayed.slots() == pushed.slots(), "n {}", n);
            prop_assert!(replayed.schedule_state() == pushed.schedule_state(), "n {}", n);
            prop_assert!(replayed_rng == rng, "n {}: replayed rng", n);
            for x in n..n + 5_000 {
                pushed.push(&(x as u32), &mut rng);
                replayed.push(&(x as u32), &mut replayed_rng);
            }
            prop_assert!(replayed.slots() == pushed.slots(), "n {} + 5000", n);
            prop_assert!(replayed.schedule_state() == pushed.schedule_state(), "n {} + 5000", n);
            prop_assert!(replayed_rng == rng, "n {} + 5000: rng", n);
        }
    }

    #[test]
    fn replay_rejects_slots_that_do_not_fit() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pushed = MultiReservoir::new(4, 2);
        for x in 0..100u32 {
            pushed.push(&x, &mut rng);
        }
        let slots = pushed.into_slots();
        let replay = |s, k, seen, slots| {
            MultiReservoir::replay(s, k, seen, slots, &mut StdRng::seed_from_u64(3)).is_some()
        };
        assert!(!replay(3, 2, 100, slots.clone()), "slot count");
        assert!(!replay(4, 3, 100, slots.clone()), "capacity");
        assert!(
            !replay(4, 2, 1, slots.clone()),
            "a warm-up holds fewer items"
        );
        assert!(!replay(0, 2, 0, Vec::<Vec<u32>>::new()), "no slots");
        let mut short = slots.clone();
        short[2].pop();
        assert!(!replay(4, 2, 100, short), "one short slot");
        assert!(replay(4, 2, 100, slots));
    }
}
