//! One-pass (streaming) construction of every sketch.
//!
//! The paper: "sampling pairs of tuples can easily be implemented in
//! the streaming model and the space would be proportional to the
//! number of samples." These builders realise that:
//!
//! * the tuple filter keeps a single size-`r` reservoir (Algorithm L) —
//!   a uniform without-replacement sample, exactly what Algorithm 1
//!   requires;
//! * the pair filter and the non-separation sketch keep `s` independent
//!   size-2 reservoirs sharing one skip heap
//!   ([`qid_sampling::MultiReservoir`]) — each slot ends as an
//!   independent uniform pair, matching the i.i.d.-pairs analysis.
//!
//! Space: `O(r·m)` / `O(s·m)` values; update cost is dominated by the
//! reservoirs' `O(capacity · log(n/capacity))` accepted items.

use std::cell::LazyCell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qid_dataset::{Dataset, DatasetBuilder, DatasetError, TupleSource, Value};
use qid_sampling::reservoir::{MultiReservoir, SkipReservoir};

use crate::filter::{FilterParams, PairSampleFilter, TupleSampleFilter};
use crate::sketch::{NonSeparationSketch, SketchParams};

/// The live state of a one-pass tuple-sample build (Algorithm 1's
/// size-`r` reservoir plus its RNG), factored out of
/// [`tuple_filter_from_stream`] so a build can *pause and resume*.
///
/// A cold build is `new` → `push` every tuple → [`to_filter`]. An
/// append-aware consumer keeps only the filter's sample and the row
/// count: [`resume`] replays the reservoir's schedule from the seed and
/// takes the sample back as its items, then the consumer pushes only
/// the new suffix and finishes — by construction the exact computation
/// a cold rebuild over the whole stream would run, so the resulting
/// filter is bit-identical.
///
/// [`to_filter`]: TupleIngest::to_filter
/// [`resume`]: TupleIngest::resume
#[derive(Clone, Debug)]
pub struct TupleIngest {
    names: Vec<String>,
    rng: StdRng,
    reservoir: SkipReservoir<Vec<Value>>,
}

impl TupleIngest {
    /// Starts a tuple-sample build over a stream with the given
    /// attribute names; `params` sizes the reservoir (Θ(m/√ε)).
    pub fn new(names: Vec<String>, params: FilterParams, seed: u64) -> Self {
        TupleIngest {
            rng: StdRng::seed_from_u64(seed),
            reservoir: SkipReservoir::new(Self::capacity(params, names.len())),
            names,
        }
    }

    /// Resumes the build that pushing `rows` tuples into
    /// `new(names, params, seed)` leaves, from the tuples it retained
    /// (its filter's sample rows, in order). Returns `None` unless there
    /// are exactly `min(rows, capacity)` of them — see
    /// [`SkipReservoir::replay`].
    pub fn resume(
        names: Vec<String>,
        params: FilterParams,
        seed: u64,
        rows: usize,
        items: Vec<Vec<Value>>,
    ) -> Option<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = Self::capacity(params, names.len());
        let reservoir = SkipReservoir::replay(capacity, rows, items, &mut rng)?;
        Some(TupleIngest {
            names,
            rng,
            reservoir,
        })
    }

    /// The reservoir size `r = ⌈m/√ε⌉` (at least 1) of a build over
    /// `attrs` attributes: the number of tuples its sample holds once
    /// the stream is that long.
    pub fn capacity(params: FilterParams, attrs: usize) -> usize {
        params.tuple_sample_size(attrs).max(1)
    }

    /// Offers one tuple; returns `true` if the reservoir retained it.
    pub fn push(&mut self, tuple: Vec<Value>) -> bool {
        self.push_with(|| tuple)
    }

    /// Offers one tuple, building it only if the reservoir retains it
    /// (see [`SkipReservoir::push_with`]): the same trajectory as
    /// [`push`](Self::push), with `make` called once per retained row.
    pub fn push_with(&mut self, make: impl FnOnce() -> Vec<Value>) -> bool {
        self.reservoir.push_with(make, &mut self.rng)
    }

    /// Tuples offered so far (the stream length `n`).
    pub fn rows(&self) -> usize {
        self.reservoir.seen()
    }

    /// Attribute names the build was started with.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Builds the Algorithm 1 filter over the sample retained so far.
    /// Non-consuming: the ingest remains valid for further pushes.
    pub fn to_filter(&self, params: FilterParams) -> Result<TupleSampleFilter, DatasetError> {
        let mut b = DatasetBuilder::new(self.names.clone());
        for tuple in self.reservoir.items() {
            b.push_row(tuple.clone())?;
        }
        Ok(TupleSampleFilter::from_sample(b.finish(), params))
    }
}

/// The live state of a one-pass pair-sample build: `s` independent
/// size-2 reservoirs sharing one skip heap, plus the RNG. The pair
/// analogue of [`TupleIngest`], paused by keeping it (a clone resumes
/// it) rather than by replay: a pair sample restored from disk comes
/// without one, and the next append drops it.
#[derive(Clone, Debug)]
pub struct PairIngest {
    names: Vec<String>,
    rng: StdRng,
    mr: MultiReservoir<Vec<Value>>,
}

impl PairIngest {
    /// Starts a pair-sample build with `s` slots over a stream with
    /// the given attribute names.
    pub fn new(names: Vec<String>, s: usize, seed: u64) -> Self {
        PairIngest {
            names,
            rng: StdRng::seed_from_u64(seed),
            mr: MultiReservoir::new(s.max(1), 2),
        }
    }

    /// Offers one tuple to all slots. The tuple is copied only when a
    /// slot retains it.
    pub fn push(&mut self, tuple: &[Value]) {
        self.push_with(|| tuple.to_vec());
    }

    /// Offers one tuple to all slots, building it only if some slot
    /// retains it: the same trajectory as [`push`](Self::push), with
    /// `make` called at most once per row and each retaining slot
    /// keeping a clone of what it built.
    pub fn push_with(&mut self, make: impl FnOnce() -> Vec<Value>) {
        let made = LazyCell::new(make);
        self.mr.push_with(|| Vec::clone(&made), &mut self.rng);
    }

    /// Tuples offered so far (the stream length `n`).
    pub fn rows(&self) -> usize {
        self.mr.seen()
    }

    /// Approximate heap bytes the paused build retains: the `2s` pair
    /// tuple copies plus text payloads.
    pub fn retained_bytes(&self) -> usize {
        self.mr
            .slots()
            .iter()
            .flat_map(|slot| slot.iter())
            .map(|t| tuple_bytes(t))
            .sum()
    }

    /// Lays the slots out as the `2s`-row pair data set the filters
    /// expect (pair `i` at rows `(i, s+i)`). Errors on streams shorter
    /// than 2 tuples — no pairs exist.
    fn to_pair_rows(&self) -> Result<Dataset, DatasetError> {
        let n = self.mr.seen();
        if n < 2 {
            return Err(DatasetError::InvalidSpec(format!(
                "pair sampling needs a stream of at least 2 tuples, got {n}"
            )));
        }
        let mut b = DatasetBuilder::new(self.names.clone());
        for slot in self.mr.slots() {
            debug_assert_eq!(slot.len(), 2, "slots hold exactly 2 after n >= 2");
            b.push_row(slot[0].clone())?;
        }
        for slot in self.mr.slots() {
            b.push_row(slot[1].clone())?;
        }
        Ok(b.finish())
    }

    /// Builds the Motwani–Xu pair filter over the pairs retained so
    /// far. Non-consuming.
    pub fn to_pair_filter(&self, params: FilterParams) -> Result<PairSampleFilter, DatasetError> {
        Ok(PairSampleFilter::from_pair_rows(
            self.to_pair_rows()?,
            params,
        ))
    }

    /// Builds the non-separation sketch (Theorem 2) over the pairs
    /// retained so far. Non-consuming.
    pub fn to_sketch(&self, params: SketchParams) -> Result<NonSeparationSketch, DatasetError> {
        Ok(NonSeparationSketch::from_pair_rows(
            self.to_pair_rows()?,
            self.mr.seen(),
            params,
        ))
    }
}

/// Approximate heap bytes of one retained tuple: the `Vec` spine plus
/// each value's text payload (ints, floats, and nulls are inline;
/// interned strings are counted at full length even when shared —
/// cache accounting prefers a small overestimate to an undercount).
fn tuple_bytes(tuple: &[Value]) -> usize {
    std::mem::size_of::<Vec<Value>>()
        + std::mem::size_of_val(tuple)
        + tuple
            .iter()
            .map(|v| match v {
                Value::Text(s) => s.len(),
                _ => 0,
            })
            .sum::<usize>()
}

/// Builds the tuple filter (Algorithm 1) in one pass.
///
/// Returns an error if the stream itself errors; short streams simply
/// yield a smaller (complete) sample.
pub fn tuple_filter_from_stream(
    source: &mut dyn TupleSource,
    params: FilterParams,
    seed: u64,
) -> Result<TupleSampleFilter, DatasetError> {
    let mut ingest = TupleIngest::new(source.attr_names(), params, seed);
    while let Some(tuple) = source.next_tuple()? {
        ingest.push(tuple);
    }
    ingest.to_filter(params)
}

/// Builds the Motwani–Xu pair filter in one pass.
///
/// Each of the `s` slots is an independent 2-reservoir, so the stored
/// pairs are i.i.d. uniform unordered pairs of stream tuples. Streams
/// with fewer than 2 tuples produce an error (no pairs exist).
pub fn pair_filter_from_stream(
    source: &mut dyn TupleSource,
    params: FilterParams,
    seed: u64,
) -> Result<PairSampleFilter, DatasetError> {
    let s = params.pair_sample_size(source.n_attrs()).max(1);
    let mut ingest = PairIngest::new(source.attr_names(), s, seed);
    while let Some(tuple) = source.next_tuple()? {
        ingest.push(&tuple);
    }
    ingest.to_pair_filter(params)
}

/// Builds the non-separation sketch in one pass.
pub fn sketch_from_stream(
    source: &mut dyn TupleSource,
    params: SketchParams,
    seed: u64,
) -> Result<NonSeparationSketch, DatasetError> {
    let s = params.pair_sample_size(source.n_attrs()).max(1);
    let mut ingest = PairIngest::new(source.attr_names(), s, seed);
    while let Some(tuple) = source.next_tuple()? {
        ingest.push(&tuple);
    }
    ingest.to_sketch(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qid_dataset::{AttrId, DatasetTupleSource, VecTupleSource};

    use crate::filter::{FilterDecision, SeparationFilter};
    use crate::sketch::SketchAnswer;

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

    fn attrs(ids: &[usize]) -> Vec<AttrId> {
        ids.iter().map(|&i| AttrId::new(i)).collect()
    }

    #[test]
    fn streaming_tuple_filter_classifies() {
        let ds = fixture(500);
        let mut src = DatasetTupleSource::new(&ds);
        let f = tuple_filter_from_stream(&mut src, FilterParams::new(0.01), 5).unwrap();
        assert_eq!(f.query(&attrs(&[0])), FilterDecision::Accept);
        assert_eq!(f.query(&attrs(&[1])), FilterDecision::Reject);
        // m=3, ε=0.01 → 30 samples.
        assert_eq!(f.sample_size(), 30);
    }

    #[test]
    fn streaming_pair_filter_classifies() {
        let ds = fixture(500);
        let mut src = DatasetTupleSource::new(&ds);
        let f = pair_filter_from_stream(&mut src, FilterParams::new(0.01), 5).unwrap();
        assert_eq!(f.query(&attrs(&[0])), FilterDecision::Accept);
        assert_eq!(f.query(&attrs(&[1])), FilterDecision::Reject);
        assert_eq!(f.sample_size(), 300);
    }

    #[test]
    fn streaming_pairs_are_distinct_rows() {
        // Every pair slot must hold two different stream tuples, so the
        // id attribute separates all of them.
        let ds = fixture(100);
        let mut src = DatasetTupleSource::new(&ds);
        let f = pair_filter_from_stream(&mut src, FilterParams::new(0.05), 1).unwrap();
        assert_eq!(f.query(&attrs(&[0])), FilterDecision::Accept);
    }

    #[test]
    fn streaming_sketch_estimates() {
        let ds = fixture(400);
        let mut src = DatasetTupleSource::new(&ds);
        let sk = sketch_from_stream(&mut src, SketchParams::new(0.25, 0.1, 2), 7).unwrap();
        // const is fully unseparated: Γ = C(400,2).
        let est = sk.query(&attrs(&[1])).estimate().expect("dense subset");
        let exact = ds.n_pairs() as f64;
        assert!((est - exact).abs() / exact < 0.05, "est {est} vs {exact}");
        // id is a key.
        assert_eq!(sk.query(&attrs(&[0])), SketchAnswer::Small);
    }

    fn row(i: usize) -> Vec<Value> {
        vec![Value::Int(i as i64), Value::text(format!("t{}", i % 7))]
    }

    #[test]
    fn tuple_ingest_push_with_matches_push() {
        let names = vec!["id".to_string(), "t".to_string()];
        let params = FilterParams::new(0.05);
        let mut owned = TupleIngest::new(names.clone(), params, 3);
        let mut lazy = TupleIngest::new(names, params, 3);
        for i in 0..3_000 {
            let kept = owned.push(row(i));
            let mut calls = 0;
            let kept_lazy = lazy.push_with(|| {
                calls += 1;
                row(i)
            });
            assert_eq!(kept, kept_lazy, "row {i}");
            assert_eq!(calls, usize::from(kept), "row {i}");
        }
        assert_eq!(owned.reservoir, lazy.reservoir);
        assert_eq!(owned.rng, lazy.rng);
    }

    #[test]
    fn tuple_ingest_resume_continues_the_pushed_build() {
        let names = vec!["id".to_string(), "t".to_string()];
        let params = FilterParams::new(0.05);
        let mut pushed = TupleIngest::new(names.clone(), params, 3);
        for i in 0..2_000 {
            pushed.push(row(i));
        }
        let items = pushed.reservoir.items().to_vec();
        let short = items[1..].to_vec();
        assert!(TupleIngest::resume(names.clone(), params, 3, 2_000, short).is_none());
        let mut resumed = TupleIngest::resume(names, params, 3, 2_000, items).unwrap();
        for i in 2_000..3_000 {
            assert_eq!(resumed.push(row(i)), pushed.push(row(i)), "row {i}");
        }
        assert_eq!(resumed.reservoir, pushed.reservoir);
        assert_eq!(resumed.rng, pushed.rng);
    }

    #[test]
    fn pair_ingest_push_with_matches_push() {
        let names = vec!["id".to_string(), "t".to_string()];
        let mut owned = PairIngest::new(names.clone(), 40, 9);
        let mut lazy = PairIngest::new(names, 40, 9);
        for i in 0..3_000 {
            owned.push(&row(i));
            let mut calls = 0;
            lazy.push_with(|| {
                calls += 1;
                row(i)
            });
            let id = Value::Int(i as i64);
            let retained = lazy.mr.slots().iter().flatten().any(|t| t[0] == id);
            assert_eq!(calls, usize::from(retained), "row {i}");
        }
        assert_eq!(owned.mr.slots(), lazy.mr.slots());
        assert_eq!(owned.rows(), lazy.rows());
    }

    #[test]
    fn short_stream_tuple_filter_degenerates_gracefully() {
        let mut src = VecTupleSource::new(["a"], vec![vec![Value::Int(1)]]);
        let f = tuple_filter_from_stream(&mut src, FilterParams::new(0.5), 0).unwrap();
        assert_eq!(f.sample_size(), 1);
        assert_eq!(f.query(&attrs(&[0])), FilterDecision::Accept);
    }

    #[test]
    fn short_stream_pair_filter_errors() {
        let mut src = VecTupleSource::new(["a"], vec![vec![Value::Int(1)]]);
        let err = pair_filter_from_stream(&mut src, FilterParams::new(0.5), 0);
        assert!(err.is_err());
    }

    #[test]
    fn streaming_matches_materialised_distribution() {
        // Not a distribution test per se: check both paths agree on
        // clear-cut classifications across seeds.
        let ds = fixture(300);
        for seed in 0..5 {
            let mut src = DatasetTupleSource::new(&ds);
            let streamed =
                tuple_filter_from_stream(&mut src, FilterParams::new(0.02), seed).unwrap();
            let direct = TupleSampleFilter::build(&ds, FilterParams::new(0.02), seed);
            for a in [vec![0usize], vec![1], vec![2]] {
                let a = attrs(&a);
                assert_eq!(streamed.query(&a), direct.query(&a));
            }
        }
    }
}
