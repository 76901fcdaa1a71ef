//! One-pass (streaming) construction of every sketch.
//!
//! The paper: "sampling pairs of tuples can easily be implemented in
//! the streaming model and the space would be proportional to the
//! number of samples." These builders realise that with one mechanism,
//! Li's Algorithm L over `s` slots of `k` rows sharing one skip heap
//! ([`qid_sampling::MultiReservoir`]):
//!
//! * the tuple filter keeps one slot of `r` rows ([`TupleIngest`]) — a
//!   uniform without-replacement sample, exactly what Algorithm 1
//!   requires;
//! * the pair filter and the non-separation sketch keep `s` slots of 2
//!   rows ([`PairIngest`]) — each slot ends as an independent uniform
//!   pair, matching the i.i.d.-pairs analysis.
//!
//! Space: `O(r·m)` / `O(s·m)` values; update cost is dominated by the
//! reservoirs' `O(capacity · log(n/capacity))` accepted items.
//!
//! Which items a reservoir accepts depends only on its seed and the
//! number of items offered. So a paused build is never stored: it is
//! replayed from the seed, the row count and the table of rows it
//! retained — the filter's sample or the sketch's pair table
//! ([`TupleIngest::resume`], [`PairIngest::resume`]). And a pair build
//! over a stream of known length is planned before the stream is read
//! ([`PairIngest::plan`]), so only the rows its pairs end on are kept.

use std::cell::LazyCell;
use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qid_dataset::csv::{CsvTupleSource, SCAN_BATCH_BYTES};
use qid_dataset::{Dataset, DatasetBuilder, DatasetError, TupleSource, Value};
use qid_sampling::reservoir::MultiReservoir;

use crate::filter::{FilterParams, PairSampleFilter, TupleSampleFilter};
use crate::sketch::{NonSeparationSketch, SketchParams};

/// The live state of a one-pass build, shared by [`TupleIngest`] and
/// [`PairIngest`]: `s` slots of `k` rows, their RNG, and the table a
/// resumed build took its rows from.
///
/// A slot keeps a shared reference to a row: a row is built once however
/// many slots accept it, and an accept copies no tuple.
#[derive(Clone, Debug)]
struct Ingest {
    rng: StdRng,
    mr: MultiReservoir<Held>,
    /// The table a resumed build took its slots from, which
    /// [`Held::Table`] indexes; no rows for a new build.
    table: Dataset,
}

/// A row a slot holds.
#[derive(Clone, Debug)]
enum Held {
    /// Row `r` of the resumed table.
    Table(usize),
    /// A row pushed since, shared by every slot that accepted it.
    Pushed(Arc<[Value]>),
}

impl Ingest {
    /// Starts a build of `s` slots of `k` rows over a stream with the
    /// given attribute names.
    fn new(names: Vec<String>, s: usize, k: usize, seed: u64) -> Self {
        Ingest {
            rng: StdRng::seed_from_u64(seed),
            mr: MultiReservoir::new(s, k),
            table: DatasetBuilder::new(names).finish(),
        }
    }

    /// Resumes the build that pushing `rows` tuples into
    /// `new(_, s, k, seed)` leaves, from `table`: its slots laid out as
    /// [`gather`](Self::gather) lays them out, whose attribute names it
    /// takes. The table is shared, not copied. Returns `None` unless the
    /// table holds `s` slots of `min(rows, k)` rows — see
    /// [`MultiReservoir::replay`].
    fn resume(table: &Dataset, s: usize, k: usize, seed: u64, rows: usize) -> Option<Self> {
        if s == 0 || !table.n_rows().is_multiple_of(s) {
            return None;
        }
        let held = table.n_rows() / s;
        let slots = (0..s)
            .map(|i| (0..held).map(|j| Held::Table(j * s + i)).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mr = MultiReservoir::replay(s, k, rows, slots, &mut rng)?;
        Some(Ingest {
            rng,
            mr,
            table: table.clone(),
        })
    }

    /// Offers one tuple to all slots, building it only if some slot
    /// retains it — then once, the retaining slots sharing what `make`
    /// built. Returns `true` if one did.
    fn push_with(&mut self, make: impl FnOnce() -> Arc<[Value]>) -> bool {
        let made = LazyCell::new(make);
        self.mr
            .push_with(|| Held::Pushed(Arc::clone(&made)), &mut self.rng)
    }

    /// Tuples offered so far (the stream length `n`).
    fn rows(&self) -> usize {
        self.mr.seen()
    }

    /// Lays the slots out as one data set — row `j` of slot `i` at row
    /// `j·s + i`, so with one slot its rows in order and with slots of
    /// two pair `i` at rows `(i, s+i)` — gathered out of the resumed
    /// table and the rows pushed since, so only pushed rows are
    /// interned. The data set that pushing those rows through a
    /// [`DatasetBuilder`] in turn builds.
    fn gather(&self) -> Result<Dataset, DatasetError> {
        // Each pushed row once, in order of first reference: a row shared
        // by several slots is one allocation, and its address names it.
        let mut pushed = DatasetBuilder::new(self.table.schema().names());
        let mut at = HashMap::new();
        let slots = self.mr.slots();
        let held = slots[0].len();
        let mut layout = Vec::with_capacity(held * slots.len());
        for j in 0..held {
            for slot in slots {
                layout.push(match &slot[j] {
                    Held::Table(row) => (0, *row),
                    Held::Pushed(row) => {
                        let next = at.len();
                        let key = Arc::as_ptr(row).cast::<Value>() as usize;
                        let row_at = *at.entry(key).or_insert(next);
                        if row_at == next {
                            pushed.push_row_ref(row)?;
                        }
                        (1, row_at)
                    }
                });
            }
        }
        let parts = [&self.table, &pushed.finish()];
        Ok(Dataset::gather_first_seen(&parts, &layout))
    }
}

/// A one-pass tuple-sample build: Algorithm 1's size-`r` reservoir —
/// one slot of `r` rows — plus its RNG, factored out of
/// [`tuple_filter_from_stream`] so a build can *pause and resume*.
///
/// A cold build is `new` → `push` every tuple → [`to_filter`]. An
/// append-aware consumer keeps only the filter's sample and the row
/// count: [`resume`] replays the reservoir's schedule from the seed and
/// takes the sample back as its rows, then the consumer pushes only
/// the new suffix and finishes — by construction the exact computation
/// a cold rebuild over the whole stream would run, so the resulting
/// filter is bit-identical.
///
/// [`to_filter`]: TupleIngest::to_filter
/// [`resume`]: TupleIngest::resume
#[derive(Clone, Debug)]
pub struct TupleIngest(Ingest);

impl TupleIngest {
    /// Starts a tuple-sample build over a stream with the given
    /// attribute names; `params` sizes the reservoir (Θ(m/√ε)).
    pub fn new(names: Vec<String>, params: FilterParams, seed: u64) -> Self {
        let k = Self::capacity(params, names.len());
        TupleIngest(Ingest::new(names, 1, k, seed))
    }

    /// Resumes the build that pushing `rows` tuples into
    /// `new(names, params, seed)` leaves, from the `sample` of the
    /// filter it built, whose attribute names it takes. The sample is
    /// shared, not copied. Returns `None` unless it holds exactly
    /// `min(rows, capacity)` rows — see [`MultiReservoir::replay`].
    pub fn resume(sample: &Dataset, params: FilterParams, seed: u64, rows: usize) -> Option<Self> {
        let k = Self::capacity(params, sample.n_attrs());
        Ingest::resume(sample, 1, k, seed, rows).map(TupleIngest)
    }

    /// The reservoir size `r = ⌈m/√ε⌉` (at least 1) of a build over
    /// `attrs` attributes: the number of tuples its sample holds once
    /// the stream is that long.
    pub fn capacity(params: FilterParams, attrs: usize) -> usize {
        params.tuple_sample_size(attrs).max(1)
    }

    /// Offers one tuple; returns `true` if the reservoir retained it.
    pub fn push(&mut self, tuple: Vec<Value>) -> bool {
        self.push_with(|| tuple.into())
    }

    /// Offers one tuple, building it only if the reservoir retains it:
    /// the same trajectory as [`push`](Self::push), with `make` called
    /// once per retained row.
    pub fn push_with(&mut self, make: impl FnOnce() -> Arc<[Value]>) -> bool {
        self.0.push_with(make)
    }

    /// Tuples offered so far (the stream length `n`).
    pub fn rows(&self) -> usize {
        self.0.rows()
    }

    /// Builds the Algorithm 1 filter over the sample retained so far.
    /// Non-consuming: the ingest remains valid for further pushes.
    pub fn to_filter(&self, params: FilterParams) -> Result<TupleSampleFilter, DatasetError> {
        Ok(TupleSampleFilter::from_sample(self.0.gather()?, params))
    }
}

/// A one-pass pair-sample build: `s` independent size-2 reservoirs
/// sharing one skip heap — `s` slots of 2 rows — plus the RNG. The pair
/// analogue of [`TupleIngest`], paused and resumed the same way: an
/// append-aware consumer keeps only the sketch it built and the row
/// count, and [`resume`] replays the reservoirs' schedule from the seed
/// and takes the sketch's pair table back as their rows.
///
/// A first build over a stream of known length need not push every row:
/// [`plan`] names the rows the pairs end on before the stream is read,
/// and the consumer hands over only those.
///
/// [`resume`]: PairIngest::resume
/// [`plan`]: PairIngest::plan
#[derive(Clone, Debug)]
pub struct PairIngest(Ingest);

impl PairIngest {
    /// Starts a pair-sample build with `s` slots over a stream with
    /// the given attribute names.
    pub fn new(names: Vec<String>, s: usize, seed: u64) -> Self {
        PairIngest(Ingest::new(names, s.max(1), 2, seed))
    }

    /// Resumes the build that pushing `rows` tuples into
    /// `new(names, s, seed)` leaves, from the pair table of the sketch
    /// (or filter) it built: pair `i` at rows `(i, s+i)`, whose
    /// attribute names and `s` it takes. The table is shared, not
    /// copied. Returns `None` unless the table holds whole pairs and
    /// `rows` is at least 2 — see [`MultiReservoir::replay`].
    pub fn resume(pairs: &Dataset, seed: u64, rows: usize) -> Option<Self> {
        Ingest::resume(pairs, pairs.n_rows() / 2, 2, seed, rows).map(PairIngest)
    }

    /// Plans the build that pushing `rows` tuples into `new(_, s, seed)`
    /// runs, before any tuple is read: the slots as row indices, with the
    /// sorted rows they name ([`PairPlan::wanted`]).
    /// [`PairPlan::to_sketch`] then takes just those rows and builds the
    /// sketch [`to_sketch`](Self::to_sketch) would have.
    pub fn plan(s: usize, seed: u64, rows: usize) -> PairPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let slots = MultiReservoir::plan(s.max(1), 2, rows, &mut rng).into_slots();
        let mut wanted: Vec<usize> = slots.iter().flatten().copied().collect();
        wanted.sort_unstable();
        wanted.dedup();
        PairPlan {
            rows,
            slots,
            wanted,
        }
    }

    /// Offers one tuple to all slots. The tuple is copied only when a
    /// slot retains it.
    pub fn push(&mut self, tuple: &[Value]) {
        self.push_with(|| tuple.into());
    }

    /// Offers one tuple to all slots, building it only if some slot
    /// retains it: the same trajectory as [`push`](Self::push), with
    /// `make` called at most once per row and the retaining slots
    /// sharing what it built.
    pub fn push_with(&mut self, make: impl FnOnce() -> Arc<[Value]>) {
        self.0.push_with(make);
    }

    /// Tuples offered so far (the stream length `n`).
    pub fn rows(&self) -> usize {
        self.0.rows()
    }

    /// The `2s`-row pair data set the filters expect (pair `i` at rows
    /// `(i, s+i)`). Errors on streams shorter than 2 tuples — no pairs
    /// exist.
    fn to_pair_rows(&self) -> Result<Dataset, DatasetError> {
        pairs_exist(self.rows())?;
        self.0.gather()
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
            self.rows(),
            params,
        ))
    }
}

/// A pair build planned over a stream of known length
/// ([`PairIngest::plan`]): each slot's rows as indices into the stream.
#[derive(Clone, Debug)]
pub struct PairPlan {
    rows: usize,
    slots: Vec<Vec<usize>>,
    wanted: Vec<usize>,
}

impl PairPlan {
    /// The distinct stream indices the pairs end on, ascending: the
    /// rows [`to_sketch`](Self::to_sketch) takes, at most `2s` of them.
    pub fn wanted(&self) -> &[usize] {
        &self.wanted
    }

    /// Builds the non-separation sketch from the [`wanted`](Self::wanted)
    /// rows, in that order — the sketch that pushing the whole stream
    /// through a [`PairIngest`] builds. The pair table is gathered out of
    /// `rows` ([`Dataset::gather_first_seen`]), so no value is hashed
    /// again. Errors if a row is missing or extra, or on streams shorter
    /// than 2 tuples.
    pub fn to_sketch(
        &self,
        rows: &Dataset,
        params: SketchParams,
    ) -> Result<NonSeparationSketch, DatasetError> {
        pairs_exist(self.rows)?;
        if rows.n_rows() != self.wanted.len() {
            return Err(DatasetError::InvalidSpec(format!(
                "the planned pairs end on {} rows, got {}",
                self.wanted.len(),
                rows.n_rows()
            )));
        }
        let layout: Vec<(usize, usize)> = (0..2)
            .flat_map(|side| self.slots.iter().map(move |slot| slot[side]))
            .map(|row| (0, self.wanted.binary_search(&row).expect("a wanted row")))
            .collect();
        Ok(NonSeparationSketch::from_pair_rows(
            Dataset::gather_first_seen(&[rows], &layout),
            self.rows,
            params,
        ))
    }
}

/// Errors unless a stream of `n` tuples has a pair to sample.
fn pairs_exist(n: usize) -> Result<(), DatasetError> {
    if n < 2 {
        return Err(DatasetError::InvalidSpec(format!(
            "pair sampling needs a stream of at least 2 tuples, got {n}"
        )));
    }
    Ok(())
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

/// [`tuple_filter_from_stream`] over a CSV source, typing only the rows
/// the reservoir accepts: every other row is framed and counted, never
/// typed or copied. Which rows are accepted depends only on the seed and
/// the count, so the filter is the one `tuple_filter_from_stream` builds
/// from the same source and seed. Returns it with the row count.
pub fn tuple_filter_from_csv(
    source: CsvTupleSource,
    params: FilterParams,
    seed: u64,
) -> Result<(TupleSampleFilter, usize), DatasetError> {
    let mut ingest = TupleIngest::new(source.attr_names(), params, seed);
    source.scan_rows(SCAN_BATCH_BYTES, |mut row| {
        ingest.push_with(|| row.to_shared_values());
    })?;
    Ok((ingest.to_filter(params)?, ingest.rows()))
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

    /// Each slot's rows, by value.
    fn held(ingest: &Ingest) -> Vec<Vec<Vec<Value>>> {
        let row = |h: &Held| match h {
            Held::Table(r) => ingest.table.row(*r).to_vec(),
            Held::Pushed(row) => row.to_vec(),
        };
        let slots = ingest.mr.slots().iter();
        slots.map(|slot| slot.iter().map(row).collect()).collect()
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
                row(i).into()
            });
            assert_eq!(kept, kept_lazy, "row {i}");
            assert_eq!(calls, usize::from(kept), "row {i}");
        }
        assert_eq!(held(&owned.0), held(&lazy.0));
        assert_eq!(owned.0.rng, lazy.0.rng);
    }

    #[test]
    fn tuple_ingest_resume_continues_the_pushed_build() {
        let names = vec!["id".to_string(), "t".to_string()];
        let params = FilterParams::new(0.05);
        let mut pushed = TupleIngest::new(names, params, 3);
        for i in 0..2_000 {
            pushed.push(row(i));
        }
        let filter = pushed.to_filter(params).unwrap();
        let sample = filter.sample();
        let short = sample.gather(&(1..sample.n_rows()).collect::<Vec<_>>());
        assert!(TupleIngest::resume(&short, params, 3, 2_000).is_none());
        let mut resumed = TupleIngest::resume(sample, params, 3, 2_000).unwrap();
        assert_eq!(held(&resumed.0), held(&pushed.0));
        assert_eq!(resumed.0.rng, pushed.0.rng);
        for i in 2_000..3_000 {
            assert_eq!(resumed.push(row(i)), pushed.push(row(i)), "row {i}");
        }
        assert_eq!(held(&resumed.0), held(&pushed.0));
        assert_eq!(resumed.0.rng, pushed.0.rng);
        let (a, b) = (resumed.to_filter(params), pushed.to_filter(params));
        assert_eq!(table(a.unwrap().sample()), table(b.unwrap().sample()));
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
                row(i).into()
            });
            let id = Value::Int(i as i64);
            let retained = held(&lazy.0).iter().flatten().any(|t| t[0] == id);
            assert_eq!(calls, usize::from(retained), "row {i}");
        }
        assert_eq!(held(&owned.0), held(&lazy.0));
        assert_eq!(owned.rows(), lazy.rows());
    }

    /// Each attribute, and each column's codes and dictionary.
    type Table = (Vec<qid_dataset::Attribute>, Vec<(Vec<u32>, Vec<Value>)>);

    /// Every byte of a table that a persisted or queried sketch reads.
    fn table(ds: &Dataset) -> Table {
        let cols = ds
            .columns()
            .iter()
            .map(|c| (c.codes().to_vec(), c.dict().to_vec()))
            .collect();
        (ds.schema().attrs().to_vec(), cols)
    }

    /// Rows that repeat values across rows and columns, with mixed types.
    fn mixed_row(i: usize) -> Vec<Value> {
        let t = match i % 5 {
            0 => Value::Null,
            1 => Value::Int((i % 3) as i64),
            _ => Value::text(format!("t{}", i % 11)),
        };
        vec![Value::Int(i as i64), t, Value::float((i % 4) as f64 / 2.0)]
    }

    fn names() -> Vec<String> {
        ["id", "t", "f"].map(str::to_string).to_vec()
    }

    /// The rows of [`mixed_row`] at `indices`, as a data set.
    fn wanted_rows(indices: &[usize]) -> Dataset {
        let mut b = DatasetBuilder::new(names());
        for &i in indices {
            b.push_row(mixed_row(i)).unwrap();
        }
        b.finish()
    }

    #[test]
    fn a_planned_sketch_equals_a_pushed_one() {
        let params = SketchParams::new(0.25, 0.1, 2);
        // Streams shorter than, near and far past the slot count.
        for (n, s) in [(2, 50), (3, 50), (40, 50), (3_000, 50), (500, 1)] {
            let mut pushed = PairIngest::new(names(), s, 21);
            for i in 0..n {
                pushed.push(&mixed_row(i));
            }
            let plan = PairIngest::plan(s, 21, n);
            assert!(plan.wanted().windows(2).all(|w| w[0] < w[1]), "n {n}");
            assert!(plan.wanted().len() <= 2 * s, "n {n}");
            let planned = plan.to_sketch(&wanted_rows(plan.wanted()), params);
            let pushed = pushed.to_sketch(params).unwrap();
            assert_eq!(
                table(planned.unwrap().pairs()),
                table(pushed.pairs()),
                "n {n}"
            );
            let planned = plan.to_sketch(&wanted_rows(plan.wanted()), params);
            assert_eq!(
                planned.unwrap().source_pairs(),
                pushed.source_pairs(),
                "n {n}"
            );
            let short = wanted_rows(&plan.wanted()[1..]);
            assert!(plan.to_sketch(&short, params).is_err(), "n {n}");
        }
        let short = PairIngest::plan(5, 21, 1);
        let rows = wanted_rows(short.wanted());
        assert!(short.to_sketch(&rows, params).is_err(), "no pairs in 1 row");
    }

    #[test]
    fn the_pair_table_numbers_codes_as_pushing_every_row_does() {
        let mut ingest = PairIngest::new(names(), 60, 4);
        for i in 0..200 {
            ingest.push(&mixed_row(i));
        }
        let mut b = DatasetBuilder::new(names());
        for side in 0..2 {
            for slot in held(&ingest.0) {
                b.push_row(slot[side].clone()).unwrap();
            }
        }
        let sketch = ingest.to_sketch(SketchParams::new(0.25, 0.1, 2)).unwrap();
        assert_eq!(table(sketch.pairs()), table(&b.finish()));
    }

    #[test]
    fn pair_ingest_resume_continues_the_pushed_build() {
        let params = SketchParams::new(0.25, 0.1, 2);
        for cut in [2, 30, 1_000] {
            let mut pushed = PairIngest::new(names(), 40, 8);
            for i in 0..cut {
                pushed.push(&mixed_row(i));
            }
            let sketch = pushed.to_sketch(params).unwrap();
            let mut resumed = PairIngest::resume(sketch.pairs(), 8, cut).unwrap();
            assert_eq!(held(&resumed.0), held(&pushed.0), "cut {cut}");
            assert_eq!(resumed.0.rng, pushed.0.rng, "cut {cut}");
            for i in cut..cut + 2_000 {
                resumed.push(&mixed_row(i));
                pushed.push(&mixed_row(i));
            }
            assert_eq!(held(&resumed.0), held(&pushed.0), "cut {cut}");
            assert_eq!(resumed.0.rng, pushed.0.rng, "cut {cut}");
            let (a, b) = (resumed.to_sketch(params), pushed.to_sketch(params));
            assert_eq!(table(a.unwrap().pairs()), table(b.unwrap().pairs()));
            let resumed_names: Vec<&str> = resumed.0.table.schema().names().collect();
            assert_eq!(resumed_names, names());
            assert!(
                PairIngest::resume(sketch.pairs(), 8, 1).is_none(),
                "no pair in 1 row"
            );
        }
        let mut odd = DatasetBuilder::new(names());
        odd.push_row(mixed_row(0)).unwrap();
        assert!(
            PairIngest::resume(&odd.finish(), 8, 10).is_none(),
            "half a pair"
        );
    }

    #[test]
    fn the_csv_route_draws_the_generic_routes_sample() {
        use qid_dataset::csv::CsvOptions;
        use std::io::Cursor;
        let mut csv = String::from("id,zip,score,note\n");
        for i in 0..3_000 {
            csv += &format!("{i},9{:04},{}.5,\"n, {}\"\n", i % 37, i % 11, i % 5);
        }
        let opts = CsvOptions::default();
        let rows = |f: &TupleSampleFilter| {
            let ds = f.sample();
            (0..ds.n_rows())
                .map(|r| ds.row(r).to_vec())
                .collect::<Vec<_>>()
        };
        for seed in 0..4 {
            let params = FilterParams::new(0.01);
            let open = || CsvTupleSource::from_reader(Cursor::new(csv.clone()), &opts).unwrap();
            let (csv_route, n) = tuple_filter_from_csv(open(), params, seed).unwrap();
            let generic = tuple_filter_from_stream(&mut open(), params, seed).unwrap();
            assert_eq!(n, 3_000);
            assert_eq!(rows(&csv_route), rows(&generic), "seed {seed}");
        }
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
