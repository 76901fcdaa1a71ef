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

/// `s` independent reservoirs of capacity `k` over one stream, each
/// run by Li's **Algorithm L** and all sharing one skip heap.
///
/// Once a slot holds the first `k` items, Algorithm L draws a geometric
/// skip to the slot's next accept: the items inside a skip are rejected
/// with *zero* per-item RNG work, and an accept draws the victim it
/// replaces and the next skip. A slot thus makes `O(k log(n/k))` draws
/// over `n` items instead of Algorithm R's `n`, and the heap makes the
/// per-item cost O(#slots that fire), not O(s). Total update work for
/// `n` items is `O(n + s·k·log(n/k))`.
///
/// With `s = 1` this is Algorithm 1's tuple sample: a uniform
/// without-replacement `k`-subset of the stream. With `k = 2` it is the
/// paper's streaming Motwani–Xu sketch: each slot independently holds a
/// uniform unordered *pair* of stream items, so the `s` slots form `s`
/// i.i.d. uniform pairs (pair sampling "with replacement" across slots,
/// as the MX analysis assumes).
///
/// Which slot accepts which item and which victim it drops depend only
/// on the RNG and the item count, never on the items. So one walk of
/// the schedule drives a push, a [`plan`](MultiReservoir::plan) that
/// names every slot's items before any item is read, and a
/// [`replay`](MultiReservoir::replay) that rebuilds a reservoir from
/// the items it retained.
///
/// ```
/// use qid_sampling::MultiReservoir;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut res = MultiReservoir::new(1, 3);
/// for x in 0..100 {
///     res.push(&x, &mut rng);
/// }
/// assert_eq!(res.slots()[0].len(), 3);
/// assert_eq!(res.seen(), 100);
/// ```
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
    /// slot actually retains it; returns `true` if one did. `make` is
    /// called once per retaining slot and not at all for skipped items
    /// — the common case after warm-up — so callers holding a borrowed
    /// form of the item avoid an up-front conversion on the hot path.
    pub fn push_with<R: Rng + ?Sized, F: FnMut() -> T>(
        &mut self,
        mut make: F,
        rng: &mut R,
    ) -> bool {
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
            return true;
        }
        let slots = &mut self.slots;
        let mut kept = false;
        schedule.advance(schedule.seen + 1, rng, |slot, victim, _| {
            slots[slot][victim] = make();
            kept = true;
        });
        kept
    }

    /// Rebuilds the reservoir that pushing `seen` items into `new(s, k)`
    /// leaves, from the `slots` it retained (each in victim order), with
    /// `rng` fresh from the seed the pushes drew from; `rng` ends where
    /// they left it: stepping from accept to accept through the
    /// schedule re-derives everything but the items, in
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
    /// Offers one item to all slots; returns `true` if one retained it.
    pub fn push<R: Rng + ?Sized>(&mut self, item: &T, rng: &mut R) -> bool {
        self.push_with(|| item.clone(), rng)
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

    /// Everything but the items: the item count, the heap's entries in
    /// order, and the weights' bits.
    type ScheduleState = (usize, Vec<(usize, usize)>, Vec<u64>);

    impl<T> MultiReservoir<T> {
        pub(super) fn schedule_state(&self) -> ScheduleState {
            let mut heap: Vec<_> = self.schedule.heap.iter().map(|r| r.0).collect();
            heap.sort_unstable();
            let weights = self.schedule.weights.iter().map(|w| w.to_bits()).collect();
            (self.schedule.seen, heap, weights)
        }
    }

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
    fn one_slot_matches_algorithm_r_distribution() {
        // Same uniformity check for Algorithm L.
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 40_000;
        let mut zero_kept = 0;
        for _ in 0..trials {
            let mut r = MultiReservoir::new(1, 1);
            for x in 0..4 {
                r.push(&x, &mut rng);
            }
            if r.slots()[0][0] == 0 {
                zero_kept += 1;
            }
        }
        let frac = zero_kept as f64 / trials as f64;
        assert!((0.23..0.27).contains(&frac), "P(keep first) = {frac}");
    }

    #[test]
    fn one_slot_k_many() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut r = MultiReservoir::new(1, 50);
        for x in 0..10_000 {
            r.push(&x, &mut rng);
        }
        assert_eq!(r.slots()[0].len(), 50);
        assert_eq!(r.seen(), 10_000);
        // Sample should not be the initial prefix.
        assert!(r.slots()[0].iter().any(|&x| x >= 50));
        let mut sorted = r.into_slots().remove(0);
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
    fn one_slot_replay_continues_exact_trajectory() {
        // Run one reservoir straight through; push a second to the
        // midpoint, replay a third from its items and a fresh generator,
        // and finish. Same RNG sequence ⇒ bit-identical samples.
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut straight = MultiReservoir::new(1, 20);
        for x in 0..5_000 {
            straight.push(&x, &mut rng_a);
        }

        let mut rng_b = StdRng::seed_from_u64(11);
        let mut first_half = MultiReservoir::new(1, 20);
        for x in 0..2_500 {
            first_half.push(&x, &mut rng_b);
        }
        let mut rng_c = StdRng::seed_from_u64(11);
        let slots = first_half.slots().to_vec();
        let mut resumed = MultiReservoir::replay(1, 20, 2_500, slots, &mut rng_c).expect("it fits");
        assert_eq!(resumed.slots(), first_half.slots());
        assert_eq!(resumed.schedule_state(), first_half.schedule_state());
        assert_eq!(rng_c, rng_b);
        for x in 2_500..5_000 {
            resumed.push(&x, &mut rng_c);
        }

        assert_eq!(resumed.slots(), straight.slots());
        assert_eq!(resumed.schedule_state(), straight.schedule_state());
        assert_eq!(rng_c, rng_a);
    }

    #[test]
    fn one_slot_push_with_matches_push() {
        // Same RNG, same stream: the same accepts land in the same
        // places, and `make` runs exactly once per retained item.
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(13), StdRng::seed_from_u64(13));
        let (mut owned, mut lazy) = (MultiReservoir::new(1, 16), MultiReservoir::new(1, 16));
        let mut made = 0;
        for x in 0..5_000 {
            let kept = owned.push(&x, &mut rng_a);
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
        assert_eq!(owned.slots(), lazy.slots());
        assert_eq!(owned.schedule_state(), lazy.schedule_state());
        assert_eq!(rng_a, rng_b);
        assert!(made < 500, "skips should spare most items, made {made}");
    }

    #[test]
    fn one_slot_replay_rejects_samples_that_do_not_fit() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut r = MultiReservoir::new(1, 3);
        for x in 0..100 {
            r.push(&x, &mut rng);
        }
        let slots = r.into_slots();
        let replay = |k, seen, slots| {
            MultiReservoir::replay(1, k, seen, slots, &mut StdRng::seed_from_u64(12)).is_some()
        };

        // Item count disagrees with the phase implied by `seen`.
        assert!(!replay(3, 100, vec![vec![1, 2]]));
        assert!(!replay(3, 2, slots.clone()));
        assert!(!replay(4, 100, slots.clone()));
        // Zero capacity.
        assert!(!replay(0, 0, vec![Vec::new()]));
        // The fitting sample still replays.
        assert!(replay(3, 100, slots));
    }

    /// A digest of a slot's items, in order.
    fn digest(items: &[usize]) -> u64 {
        items.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
            (h ^ x as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// `(k, n, seed, digest of the items, next u64 the RNG draws)` of a
    /// capacity-`k` Algorithm L reservoir after pushing `0..n`, as the
    /// single-reservoir implementation this one replaced left them.
    const ONE_SLOT_GOLDEN: [(usize, usize, u64, u64, u64); 48] = [
        (1, 0, 0, 0xcbf29ce484222325, 0x99ec5f36cb75f2b4),
        (1, 0, 1, 0xcbf29ce484222325, 0xb3f2af6d0fc710c5),
        (1, 0, 2, 0xcbf29ce484222325, 0x1a28690da8a8d057),
        (1, 1, 0, 0xaf63bd4c8601b7df, 0x1a5f849d4933e6e0),
        (1, 1, 1, 0xaf63bd4c8601b7df, 0x92f89756082a4514),
        (1, 1, 2, 0xaf63bd4c8601b7df, 0x2f1829af001ef205),
        (1, 2, 0, 0xaf63bc4c8601b62c, 0xffef8375d9ebcaca),
        (1, 2, 1, 0xaf63bc4c8601b62c, 0x24c123126ffda722),
        (1, 2, 2, 0xaf63bd4c8601b7df, 0x2f1829af001ef205),
        (1, 50000, 0, 0xafab844c867baf04, 0x3cdebc44a5bc1936),
        (1, 50000, 1, 0xaf9e424c866527de, 0x6d8eb8acb8d215d1),
        (1, 50000, 2, 0xafb5bc4c868d0c2c, 0xe3df3c44a0db4a53),
        (7, 6, 0, 0xa54ac5bf0ea60dde, 0x99ec5f36cb75f2b4),
        (7, 6, 1, 0xa54ac5bf0ea60dde, 0xb3f2af6d0fc710c5),
        (7, 6, 2, 0xa54ac5bf0ea60dde, 0x1a28690da8a8d057),
        (7, 7, 0, 0x841bdba5e4298608, 0x1a5f849d4933e6e0),
        (7, 7, 1, 0x841bdba5e4298608, 0x92f89756082a4514),
        (7, 7, 2, 0x841bdba5e4298608, 0x2f1829af001ef205),
        (7, 8, 0, 0xe03966061380b0b9, 0xffef8375d9ebcaca),
        (7, 8, 1, 0x8ce756a5e92e6b19, 0x24c123126ffda722),
        (7, 8, 2, 0xc635bafcc5bcc2b6, 0x3c69a1b6d15cf0d0),
        (7, 50000, 0, 0x37172e46f994f563, 0xd81cc933854afa52),
        (7, 50000, 1, 0xd1761514a66b128b, 0x74a8d0218d376b8d),
        (7, 50000, 2, 0xca6f69ca16b2244d, 0xaf063903170f0089),
        (120, 119, 0, 0x8b9c837512ce6fe8, 0x99ec5f36cb75f2b4),
        (120, 119, 1, 0x8b9c837512ce6fe8, 0xb3f2af6d0fc710c5),
        (120, 119, 2, 0x8b9c837512ce6fe8, 0x1a28690da8a8d057),
        (120, 120, 0, 0x0962feeef4c7ab2d, 0x1a5f849d4933e6e0),
        (120, 120, 1, 0x0962feeef4c7ab2d, 0x92f89756082a4514),
        (120, 120, 2, 0x0962feeef4c7ab2d, 0x2f1829af001ef205),
        (120, 121, 0, 0x04dae51fc4c55ac1, 0xffef8375d9ebcaca),
        (120, 121, 1, 0xcfb1c2de7389f709, 0x24c123126ffda722),
        (120, 121, 2, 0xadf61a7809c7d20f, 0x3c69a1b6d15cf0d0),
        (120, 50000, 0, 0x4ce90a216a8c210f, 0x3b424c788d2f7490),
        (120, 50000, 1, 0xc2e91dabace7a442, 0x93488060b496d45b),
        (120, 50000, 2, 0xef7881421bf48d9f, 0x64a5f53f86507d9d),
        (500, 499, 0, 0x425112bfe7de4508, 0x99ec5f36cb75f2b4),
        (500, 499, 1, 0x425112bfe7de4508, 0xb3f2af6d0fc710c5),
        (500, 499, 2, 0x425112bfe7de4508, 0x1a28690da8a8d057),
        (500, 500, 0, 0x8e07d716feaf3681, 0x1a5f849d4933e6e0),
        (500, 500, 1, 0x8e07d716feaf3681, 0x92f89756082a4514),
        (500, 500, 2, 0x8e07d716feaf3681, 0x2f1829af001ef205),
        (500, 501, 0, 0xa3a47c34cbbf4d34, 0xffef8375d9ebcaca),
        (500, 501, 1, 0x1f4587ef29fb5464, 0x24c123126ffda722),
        (500, 501, 2, 0x592ac76ef63745c4, 0x3c69a1b6d15cf0d0),
        (500, 50000, 0, 0x98487089b31f4942, 0x43b653f51346cea9),
        (500, 50000, 1, 0xfcd9929473e8e414, 0x35263610d971723e),
        (500, 50000, 2, 0x1e4b2383c543cf10, 0x84486548558497f7),
    ];

    #[test]
    fn one_slot_pushes_and_replays_match_the_golden() {
        for (k, n, seed, items, next) in ONE_SLOT_GOLDEN {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pushed = MultiReservoir::new(1, k);
            for x in 0..n {
                pushed.push(&x, &mut rng);
            }
            let case = format!("k {k}, n {n}, seed {seed}");
            assert_eq!(pushed.slots()[0].len(), n.min(k), "{case}");
            assert_eq!(digest(&pushed.slots()[0]), items, "{case}: pushed items");
            assert_eq!(rng.next_u64(), next, "{case}: pushed rng");

            let mut rng = StdRng::seed_from_u64(seed);
            let replayed = MultiReservoir::replay(1, k, n, pushed.into_slots(), &mut rng);
            assert_eq!(replayed.expect("it fits").seen(), n, "{case}");
            assert_eq!(rng.next_u64(), next, "{case}: replayed rng");
        }
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

/// [`MultiReservoir::plan`] and [`MultiReservoir::replay`] against the
/// pushes they stand in for.
#[cfg(test)]
mod multi_replay_tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    /// Plans, replays and pushes `n` items into `s` slots of `k` from
    /// `seed`, and checks that the plan and the replay equal the pushed
    /// reservoir (items, schedule and RNG), and that the replay goes on
    /// to match it over 5,000 further pushes.
    fn plan_and_replay_match_pushes(
        s: usize,
        k: usize,
        n: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pushed = MultiReservoir::new(s, k);
        for x in 0..n {
            pushed.push(&(x as u32), &mut rng);
        }

        let mut plan_rng = StdRng::seed_from_u64(seed);
        let plan = MultiReservoir::plan(s, k, n, &mut plan_rng);
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
        let replayed = MultiReservoir::replay(s, k, n, slots, &mut replayed_rng);
        prop_assert!(replayed.is_some(), "n {} did not replay", n);
        let mut replayed = replayed.unwrap();
        prop_assert!(replayed.slots() == pushed.slots(), "n {}", n);
        prop_assert!(
            replayed.schedule_state() == pushed.schedule_state(),
            "n {}",
            n
        );
        prop_assert!(replayed_rng == rng, "n {}: replayed rng", n);
        for x in n..n + 5_000 {
            let kept = pushed.push(&(x as u32), &mut rng);
            prop_assert_eq!(
                replayed.push(&(x as u32), &mut replayed_rng),
                kept,
                "item {}",
                x
            );
        }
        prop_assert!(replayed.slots() == pushed.slots(), "n {} + 5000", n);
        prop_assert!(
            replayed.schedule_state() == pushed.schedule_state(),
            "n {} + 5000",
            n
        );
        prop_assert!(replayed_rng == rng, "n {} + 5000: rng", n);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One slot of up to 2048 items: Algorithm 1's tuple sample.
        /// `n` is 0, `k`, `k + 1`, below `k`, or anything up to 10⁶.
        #[test]
        fn one_slot_plans_and_replays_equal_pushes(
            k in 1usize..=2048,
            shape in 0u8..5,
            raw in 0usize..=1_000_000,
            seed in 0u64..=u64::MAX,
        ) {
            let n = match shape {
                0 => 0,
                1 => k,
                2 => k + 1,
                3 => raw % k,
                _ => raw,
            };
            plan_and_replay_match_pushes(1, k, n, seed)?;
        }

        /// Up to 512 slots of two items: Theorem 2's pair sketch, the
        /// shape the first `sketch` plans. `n` is 0, 1, 2, or anything
        /// up to 10⁶.
        #[test]
        fn pair_slots_plan_and_replay_equal_pushes(
            s in 1usize..=512,
            shape in 0u8..4,
            raw in 0usize..=1_000_000,
            seed in 0u64..=u64::MAX,
        ) {
            let n = if shape < 3 { usize::from(shape) } else { raw };
            plan_and_replay_match_pushes(s, 2, n, seed)?;
        }

        /// Up to 512 slots of up to 2048 items, at most 2048 items in
        /// all. `n` is 0, `k`, `k + 1`, below `k`, or anything up to 10⁶.
        #[test]
        fn many_slots_plan_and_replay_equal_pushes(
            k in 1usize..=2048,
            many in 1usize..=512,
            shape in 0u8..5,
            raw in 0usize..=1_000_000,
            seed in 0u64..=u64::MAX,
        ) {
            let s = many.min(2048 / k).max(1);
            let n = match shape {
                0 => 0,
                1 => k,
                2 => k + 1,
                3 => raw % k,
                _ => raw,
            };
            plan_and_replay_match_pushes(s, k, n, seed)?;
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
