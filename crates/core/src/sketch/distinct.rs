//! KMV (k-minimum-values) distinct-count sketches for per-column
//! cardinality estimation over a stream.
//!
//! The resident audit service answers `stats` (per-attribute distinct
//! counts) from stream-mode entries without materialising the data:
//! during the one-pass sample build, every column feeds a tiny
//! [`DistinctSketch`]. The sketch keeps the `k` smallest 64-bit hashes
//! of the *distinct* values seen; if fewer than `k` hashes are
//! retained, the count is exact, otherwise the classic KMV estimator
//! `(k−1)·2⁶⁴ / h₍ₖ₎` applies (relative standard error `≈ 1/√(k−2)`,
//! so ~6% at the default `k = 256`). State is `O(k)` per column,
//! independent of `n`, matching the service's `Θ(m/√ε)` memory story.

use qid_dataset::{Value, ValueRef};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable 64-bit hash of a [`Value`], used by [`DistinctSketch`]:
/// [`hash_value_ref`] of the borrowed value.
pub fn hash_value(v: &Value) -> u64 {
    hash_value_ref(v.into())
}

/// The one definition of the [`DistinctSketch`] hash, over a borrowed
/// value, so a scan can hash a field typed in place without owning it.
///
/// FNV-1a over a tagged byte encoding (so `Int(1)`, `Float(1.0)` and
/// `Text("1")` hash apart, mirroring value inequality), finished with a
/// SplitMix64 mix for uniform high bits — KMV ranks hashes over the
/// whole `u64` range, which raw FNV's weak diffusion would bias. The
/// function is defined by this code, not by `std`'s unstable
/// `DefaultHasher`, so persisted sketch state stays valid across
/// toolchain upgrades.
pub fn hash_value_ref(v: ValueRef<'_>) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    };
    match v {
        ValueRef::Null => eat(0),
        ValueRef::Int(i) => {
            eat(1);
            i.to_le_bytes().into_iter().for_each(&mut eat);
        }
        ValueRef::Float(f) => {
            eat(2);
            f.to_bits().to_le_bytes().into_iter().for_each(&mut eat);
        }
        ValueRef::Text(s) => {
            eat(3);
            s.as_bytes().iter().copied().for_each(&mut eat);
        }
    }
    // SplitMix64 finalizer.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A k-minimum-values distinct-count sketch over [`Value`]s.
///
/// Exact below `k` retained hashes, a `(1 ± O(1/√k))` estimate above.
/// Deterministic: the hash function is fixed, so the same value set
/// always produces the same state and estimate (duplicates never change
/// either).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistinctSketch {
    k: usize,
    /// The `≤ k` smallest distinct hashes seen, ascending: a binary
    /// search dedups, extraction is already ordered, and the last
    /// element is the current maximum, so once `k` are held a hash at
    /// or above it is rejected in one compare. Past warm-up the vector
    /// never reallocates; an accepted hash shifts at most `k` words.
    minima: Vec<u64>,
}

impl DistinctSketch {
    /// Creates an empty sketch retaining at most `k` hashes.
    ///
    /// # Panics
    /// Panics if `k < 2` (the estimator needs `k − 1 ≥ 1`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "DistinctSketch needs k >= 2, got {k}");
        DistinctSketch {
            k,
            minima: Vec::new(),
        }
    }

    /// Rebuilds a sketch from previously extracted state (the inverse
    /// of [`DistinctSketch::minima`], used by the registry's disk
    /// tier). Hashes beyond the `k` smallest are dropped, so a
    /// truncated or over-full snapshot still yields a valid sketch.
    ///
    /// # Panics
    /// Panics if `k < 2`.
    pub fn from_minima(k: usize, hashes: impl IntoIterator<Item = u64>) -> Self {
        let mut sk = DistinctSketch::new(k);
        for h in hashes {
            sk.observe_hash(h);
        }
        sk
    }

    /// The retention parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Records one value observation.
    pub fn observe(&mut self, v: &Value) {
        self.observe_ref(v.into());
    }

    /// Records one observation of a borrowed value; the same state
    /// change as [`observe`](Self::observe) on its owned form.
    pub fn observe_ref(&mut self, v: ValueRef<'_>) {
        self.observe_hash(hash_value_ref(v));
    }

    fn observe_hash(&mut self, h: u64) {
        let full = self.minima.len() == self.k;
        if full && h >= self.minima[self.k - 1] {
            return;
        }
        if let Err(at) = self.minima.binary_search(&h) {
            if full {
                self.minima.pop();
            }
            self.minima.insert(at, h);
        }
    }

    /// True iff the estimate is an exact distinct count (fewer than `k`
    /// distinct hashes retained, so every distinct value is accounted
    /// for — modulo 64-bit hash collisions).
    pub fn is_exact(&self) -> bool {
        self.minima.len() < self.k
    }

    /// The distinct-count estimate.
    pub fn estimate(&self) -> usize {
        if self.is_exact() {
            return self.minima.len();
        }
        let kth = *self.minima.last().expect("k >= 2 retained") as f64;
        if kth <= 0.0 {
            return self.minima.len();
        }
        let est = (self.k as f64 - 1.0) * (u64::MAX as f64 + 1.0) / kth;
        (est.round() as usize).max(self.minima.len())
    }

    /// The retained hashes, smallest first (the sketch's full state,
    /// for persistence).
    pub fn minima(&self) -> impl Iterator<Item = u64> + '_ {
        self.minima.iter().copied()
    }

    /// Approximate resident size in bytes.
    pub fn stored_bytes(&self) -> usize {
        self.minima.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sets_are_exact() {
        let mut sk = DistinctSketch::new(64);
        for i in 0..40i64 {
            sk.observe(&Value::Int(i % 10)); // duplicates don't inflate
        }
        assert!(sk.is_exact());
        assert_eq!(sk.estimate(), 10);
    }

    #[test]
    fn variants_hash_apart() {
        let mut sk = DistinctSketch::new(16);
        sk.observe(&Value::Int(1));
        sk.observe(&Value::float(1.0));
        sk.observe(&Value::text("1"));
        sk.observe(&Value::Null);
        assert_eq!(sk.estimate(), 4);
    }

    #[test]
    fn large_sets_estimate_within_kmv_error() {
        let mut sk = DistinctSketch::new(256);
        let n = 10_000i64;
        for i in 0..n {
            sk.observe(&Value::Int(i));
            sk.observe(&Value::Int(i)); // duplicate stream
        }
        assert!(!sk.is_exact());
        let est = sk.estimate() as f64;
        let err = (est - n as f64).abs() / n as f64;
        // Deterministic draw; 3/√(k−2) ≈ 19% is a generous cap.
        assert!(err < 0.19, "estimate {est} vs {n} (err {err:.3})");
        assert!(sk.estimate() >= 256);
    }

    #[test]
    fn deterministic_and_order_independent() {
        let mut a = DistinctSketch::new(32);
        let mut b = DistinctSketch::new(32);
        for i in 0..500i64 {
            a.observe(&Value::Int(i));
            b.observe(&Value::Int(499 - i));
        }
        assert_eq!(a, b);
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn minima_roundtrip_preserves_state() {
        let mut sk = DistinctSketch::new(32);
        for i in 0..1000i64 {
            sk.observe(&Value::Int(i * 7));
        }
        let back = DistinctSketch::from_minima(32, sk.minima());
        assert_eq!(back, sk);
        assert_eq!(back.estimate(), sk.estimate());
        assert_eq!(sk.stored_bytes(), 32 * 8);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_tiny_k() {
        let _ = DistinctSketch::new(1);
    }
}
