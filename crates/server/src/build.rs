//! Building entries: the one source scan ([`scan`]) and the three
//! things it feeds — a cold stream build ([`build_entry`]), an append
//! absorb ([`absorb`]) and the first in-process sketch
//! ([`build_sketch`]).
//!
//! Every scan reads exactly the bytes its stamp describes: a cold build
//! reads `[0, stamp.len)` of the stamp captured before it started, an
//! absorb reads `[old.len, new.len)`, and the sketch scan reads the
//! entry's `[0, stamp.len)`. Rows appended while a scan runs are
//! therefore never fed twice — they are left for the next revalidation
//! to classify as an append and absorb exactly once.

use std::fs::File;
use std::io::Read as _;
use std::ops::Range;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, OnceLock};

use qid_core::filter::{FilterParams, SeparationFilter, TupleSampleFilter};
use qid_core::sketch::{DistinctSketch, NonSeparationSketch};
use qid_core::stream::{sketch_from_stream, PairIngest, TupleIngest};
use qid_dataset::csv::{read_csv, CsvOptions, CsvTupleSource};
use qid_dataset::{AttrId, Dataset, DatasetError, DatasetTupleSource, TupleSource};

use crate::freshness::SourceStamp;
use crate::proto::{sketch_params, DatasetRef, LoadMode};

/// Retention parameter `k` of the per-column [`DistinctSketch`]s built
/// for stream-mode entries: `stats` answers are exact below `k`
/// distinct values per column and `(1 ± O(1/√k)) ≈ ±6%` estimates
/// above, at `≤ 8·k` bytes per column.
pub const COLUMN_SKETCH_K: usize = 256;

/// The artifacts cached for one dataset: the tuple sample (Theorem 1),
/// the per-column distinct-count sketches, the lazily built
/// non-separation sketch (Theorem 2), and — for memory-mode loads —
/// the materialised dataset.
#[derive(Debug)]
pub struct Entry {
    /// The resident tuple-sample filter (always present).
    pub filter: TupleSampleFilter,
    /// The fully materialised dataset — `None` for stream-mode loads
    /// and disk-restored entries, where only the sample is kept.
    pub dataset: Option<Dataset>,
    /// Per-column KMV distinct-count sketches (one per attribute, in
    /// schema order), built during the loading pass so `stats` always
    /// answers without materialising. Every construction path produces
    /// them (build, restore, append absorb), so `stats` on a stream
    /// entry can never fall back to a silent full materialisation.
    pub cols: Vec<DistinctSketch>,
    /// Rows seen when the entry was built (stream length or `n_rows`).
    pub rows: usize,
    /// Attribute count.
    pub attrs: usize,
    /// Approximate resident bytes at build time: the sample, the
    /// column sketches, the materialised dataset's codes (if any), and
    /// the retained resumable-ingest tuples (a second copy of the
    /// sample rows, kept so appends can resume). Together with the
    /// lazily added non-separation sketch bytes this is what LRU
    /// eviction charges against [`crate::registry::RegistryConfig::cache_bytes`].
    pub stored_bytes: usize,
    /// Source-file stamp captured *before* the building scan, so a
    /// file rewritten mid-scan still reads as changed on the next hit.
    /// `None` when the source could not be statted.
    pub source: Option<SourceStamp>,
    /// The paused streaming build (reservoir + RNG) this entry's
    /// sample came from. `Some` for stream-built and checkpoint-
    /// restored entries; appends resume it over just the new suffix.
    /// `None` for memory-mode entries (they rebuild fully — the
    /// materialised dataset must cover the appended rows anyway) and
    /// pre-checkpoint restores.
    pub(crate) ingest: Option<TupleIngest>,
    /// The paused pair-sample build behind the non-separation sketch,
    /// recorded when [`crate::registry::Registry::sketch_for`] builds by scanning in
    /// process — so an append can advance the sketch over the suffix
    /// instead of re-scanning. Written at most once, like the sketch.
    pub(crate) pair_ingest: OnceLock<PairIngest>,
    /// The lazily built Theorem 2 sketch: written once (concurrent
    /// `sketch` queries collapse onto one build), dropped with the
    /// entry.
    pub(crate) sketch_cell: OnceLock<Result<Arc<NonSeparationSketch>, String>>,
    /// Bytes the built sketch adds to the resident total; swapped to 0
    /// exactly once when the bytes are released (eviction, unload, or
    /// reclaim after a lost race), so the accounting never
    /// double-subtracts.
    pub(crate) sketch_bytes: AtomicUsize,
}

impl Entry {
    pub(crate) fn new(
        filter: TupleSampleFilter,
        dataset: Option<Dataset>,
        cols: Vec<DistinctSketch>,
        rows: usize,
        attrs: usize,
        source: Option<SourceStamp>,
        ingest: Option<TupleIngest>,
    ) -> Entry {
        let stored_bytes = filter.stored_bytes()
            + dataset.as_ref().map_or(0, |ds| ds.code_bytes())
            + cols.iter().map(DistinctSketch::stored_bytes).sum::<usize>()
            + ingest.as_ref().map_or(0, TupleIngest::retained_bytes);
        Entry {
            filter,
            dataset,
            cols,
            rows,
            attrs,
            stored_bytes,
            source,
            ingest,
            pair_ingest: OnceLock::new(),
            sketch_cell: OnceLock::new(),
            sketch_bytes: AtomicUsize::new(0),
        }
    }

    /// The cached non-separation sketch, if one has been built for this
    /// entry (see [`crate::registry::Registry::sketch_for`]).
    pub fn sketch(&self) -> Option<Arc<NonSeparationSketch>> {
        self.sketch_cell
            .get()
            .and_then(|r| r.as_ref().ok().cloned())
    }

    /// True iff this entry can absorb a pure append without a re-scan
    /// (it carries resumable ingest state).
    pub fn append_capable(&self) -> bool {
        self.ingest.is_some()
    }
}

/// The sinks one source scan advances: the tuple reservoir, the
/// per-column distinct-count sketches and the pair reservoirs behind
/// the non-separation sketch. A scan feeds whichever are present.
#[derive(Default)]
struct Feed {
    /// The paused Theorem 1 sample build.
    tuples: Option<TupleIngest>,
    /// One KMV sketch per column, or none.
    cols: Vec<DistinctSketch>,
    /// The paused Theorem 2 pair-sample build.
    pairs: Option<PairIngest>,
}

/// The one source scan: feeds every data row stored in bytes `range`
/// of `path` through the sinks `start` returns, and reads not one byte
/// past `range.end` — the stamped length.
///
/// Rows come from the CSV reader's borrowed cursor
/// ([`CsvTupleSource::next_row`]): each field is typed and hashed into
/// its column sketch in place, and an owned tuple is built only for a
/// row a reservoir keeps — `O(r log(n/r))` rows, not `n`.
///
/// With `names == None` the range starts at offset 0 with the header
/// row, whose attribute names `start` receives. Otherwise `range.start`
/// sits on a row boundary of a source whose header named `names`, and
/// `start` receives those.
fn scan(
    path: &str,
    range: Range<u64>,
    names: Option<Vec<String>>,
    start: impl FnOnce(Vec<String>) -> Feed,
) -> Result<Feed, String> {
    let opts = CsvOptions::default();
    let opened = match names {
        None => File::open(path)
            .map_err(DatasetError::from)
            .and_then(|file| CsvTupleSource::from_reader(file.take(range.end), &opts)),
        Some(names) => CsvTupleSource::open_suffix(
            path,
            range.start,
            range.end.saturating_sub(range.start),
            names,
            &opts,
        ),
    };
    let mut src = opened.map_err(|e| format!("reading {path}: {e}"))?;
    let mut feed = start(src.attr_names());
    while let Some(mut row) = src
        .next_row()
        .map_err(|e| format!("streaming {path}: {e}"))?
    {
        for (sk, v) in feed.cols.iter_mut().zip(row.values()) {
            sk.observe_ref(v);
        }
        if let Some(pairs) = &mut feed.pairs {
            pairs.push_with(|| row.to_values());
        }
        if let Some(tuples) = &mut feed.tuples {
            tuples.push_with(|| row.to_values());
        }
    }
    Ok(feed)
}

/// The bytes a stamp describes: `[0, len)`, or the whole file when the
/// source could not be stamped.
fn stamped_len(source: Option<SourceStamp>) -> u64 {
    source.map_or(u64::MAX, |s| s.len)
}

/// Builds `ds`'s entry from the first `source.len` bytes of its file —
/// `source` being the stamp captured *before* this call, so a file
/// rewritten during the read differs from it and the next lookup
/// rebuilds, while rows appended during the read are absorbed by the
/// next lookup exactly once.
pub(crate) fn build_entry(
    ds: &DatasetRef,
    mode: LoadMode,
    source: Option<SourceStamp>,
) -> Result<Entry, String> {
    if !(ds.eps > 0.0 && ds.eps < 1.0) {
        return Err(format!("eps must be in (0, 1), got {}", ds.eps));
    }
    let params = FilterParams::new(ds.eps);
    match mode {
        LoadMode::Memory => {
            let dataset = File::open(&ds.path)
                .map_err(DatasetError::from)
                .and_then(|file| read_csv(file.take(stamped_len(source)), &CsvOptions::default()))
                .map_err(|e| format!("reading {}: {e}", ds.path))?;
            let (rows, attrs) = (dataset.n_rows(), dataset.n_attrs());
            big_enough(rows, attrs)?;
            let filter = TupleSampleFilter::build(&dataset, params, ds.seed);
            let cols = cols_from_dataset(&dataset);
            // No resumable ingest: a memory-mode entry must cover any
            // appended rows in its materialised dataset anyway, so an
            // append rebuilds it fully.
            Ok(Entry::new(
                filter,
                Some(dataset),
                cols,
                rows,
                attrs,
                source,
                None,
            ))
        }
        LoadMode::Stream => {
            // Driven through a TupleIngest (the same computation
            // `tuple_filter_from_stream` runs) so the reservoir + RNG
            // state stays on the entry: a later pure append resumes it
            // over just the new suffix. The same pass feeds the column
            // sketches.
            let feed = scan(&ds.path, 0..stamped_len(source), None, |names| Feed {
                cols: (0..names.len())
                    .map(|_| DistinctSketch::new(COLUMN_SKETCH_K))
                    .collect(),
                tuples: Some(TupleIngest::new(names, params, ds.seed)),
                pairs: None,
            })?;
            let entry = sampled(&ds.path, feed, params, source)?;
            big_enough(entry.rows, entry.attrs)?;
            Ok(entry)
        }
    }
}

/// The stream entry a scan fed: the sample its reservoir holds, its
/// column sketches, and the reservoir itself, parked for the next
/// append.
fn sampled(
    path: &str,
    feed: Feed,
    params: FilterParams,
    source: Option<SourceStamp>,
) -> Result<Entry, String> {
    let ingest = feed.tuples.expect("a stream scan feeds tuples");
    let filter = ingest
        .to_filter(params)
        .map_err(|e| format!("streaming {path}: {e}"))?;
    let (rows, attrs) = (ingest.rows(), feed.cols.len());
    Ok(Entry::new(
        filter,
        None,
        feed.cols,
        rows,
        attrs,
        source,
        Some(ingest),
    ))
}

/// Rejects a source too small for a sample to say anything.
fn big_enough(rows: usize, attrs: usize) -> Result<(), String> {
    if rows < 2 || attrs == 0 {
        return Err(format!(
            "data set too small to analyse ({rows} rows x {attrs} attributes)"
        ));
    }
    Ok(())
}

/// Feeds the appended suffix — bytes `[old.len, new.len)` of `path` —
/// through `old`'s paused reservoir, column sketches and, if its sketch
/// was built in-process, pair reservoirs. Returns an entry equal to a
/// cold rebuild over the grown file, with the advanced pair state
/// already on it, plus the advanced sketch for the caller to admit.
pub(crate) fn absorb(
    path: &str,
    old: &Entry,
    new: SourceStamp,
    eps: f64,
) -> Result<(Entry, Option<NonSeparationSketch>), String> {
    let old_len = old.source.ok_or("entry has no source stamp")?.len;
    let ingest = old
        .ingest
        .clone()
        .ok_or("entry has no resumable ingest state")?;
    let names = ingest.names().to_vec();
    let mut feed = scan(path, old_len..new.len, Some(names), |_| Feed {
        tuples: Some(ingest),
        cols: old.cols.clone(),
        pairs: old.pair_ingest.get().cloned(),
    })?;
    let pairs = feed.pairs.take();
    let entry = sampled(path, feed, FilterParams::new(eps), Some(new))?;
    // The old entry had an in-process sketch: advance it over the
    // suffix too, so `sketch` stays warm across appends. The pair state
    // goes on the entry before admission, so the sketch byte charge
    // covers its retained tuples.
    let sketch = pairs.and_then(|pairs| {
        let sketch = pairs.to_sketch(sketch_params()).ok()?;
        let _ = entry.pair_ingest.set(pairs);
        Some(sketch)
    });
    Ok((entry, sketch))
}

/// Builds `entry`'s Theorem 2 sketch without the disk tier: from the
/// materialised dataset when resident (no I/O at all), else by one
/// scan of the stamped bytes of `path`, keeping the paused pair state
/// on the entry so a later append can advance it. Both produce the same
/// sketch — the materialised dataset preserves source row order.
pub(crate) fn build_sketch(
    path: &str,
    entry: &Entry,
    seed: u64,
) -> Result<NonSeparationSketch, String> {
    let params = sketch_params();
    if let Some(dataset) = &entry.dataset {
        let mut src = DatasetTupleSource::new(dataset);
        return sketch_from_stream(&mut src, params, seed).map_err(|e| e.to_string());
    }
    let feed = scan(path, 0..stamped_len(entry.source), None, |names| {
        let slots = params.pair_sample_size(names.len()).max(1);
        Feed {
            pairs: Some(PairIngest::new(names, slots, seed)),
            ..Feed::default()
        }
    })?;
    let pairs = feed.pairs.expect("a sketch scan feeds pairs");
    let sketch = pairs
        .to_sketch(params)
        .map_err(|e| format!("streaming {path}: {e}"))?;
    // The sample and the sketch must describe the same data: if the
    // source changed between the entry build and this scan, fail now —
    // the stamp-on-hit check will rebuild the entry (and with it this
    // sketch) on the next lookup.
    if SourceStamp::capture(path) != entry.source {
        return Err(format!(
            "{path} changed while the sketch was building; retry"
        ));
    }
    let _ = entry.pair_ingest.set(pairs);
    Ok(sketch)
}

/// Column sketches for a materialised dataset, fed from the column
/// dictionaries: a freshly parsed dataset's dictionary *is* its
/// distinct value set, and KMV state depends only on that set, so this
/// produces byte-identical sketches to streaming every row — in
/// `O(distinct)` instead of `O(n)` per column.
fn cols_from_dataset(ds: &Dataset) -> Vec<DistinctSketch> {
    (0..ds.n_attrs())
        .map(|a| {
            let mut sk = DistinctSketch::new(COLUMN_SKETCH_K);
            for v in ds.column(AttrId::new(a)).dict().iter() {
                sk.observe(v);
            }
            sk
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{self, Header};
    use crate::registry::CacheKey;

    /// A fixture with every field shape the typing rules treat
    /// specially: `i64` bounds and the first integer past them, `+5`,
    /// `-0`, `-0.0`, `1e3`, `.5`, `inf`/`NaN`/`infinity` (text),
    /// `""`/`?` (null), ASCII and NBSP padding, multibyte text, quoted
    /// fields with commas, doubled quotes and embedded newlines, padding
    /// before an opening quote, CRLF and LF endings and blank lines.
    const BASE: &str = include_str!("../testdata/field_shapes.csv");
    /// Rows appended to [`BASE`], ending in trailing blank lines.
    const APPEND: &str = include_str!("../testdata/field_shapes_append.csv");

    /// FNV-64 of the artifact the stream build of [`BASE`] persists
    /// (tuple sample, column sketches and, after `sketch`, pair sample),
    /// as written by the owned-tuple scan this cursor replaced.
    const GOLDEN_BASE: u64 = 0xaeb4_97fe_66ee_4921;
    /// The same after [`APPEND`] is absorbed (and for a cold build of
    /// the grown file).
    const GOLDEN_GROWN: u64 = 0xc2c9_fb27_4c7d_4445;

    const EPS: f64 = 0.01;
    const SEED: u64 = 7;

    fn write(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join(format!("qid-build-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn dsref(path: &str) -> DatasetRef {
        DatasetRef {
            path: path.into(),
            eps: EPS,
            seed: SEED,
        }
    }

    /// FNV-64 of the artifact `entry` persists with `sketch`'s pairs,
    /// with what differs from run to run — path, mtime and capture
    /// time — fixed, so only the data and the sampling state count.
    fn artifact_fnv(entry: &Entry, sketch: Option<&NonSeparationSketch>) -> u64 {
        let mut source = entry.source.expect("a stamped entry");
        (source.mtime_s, source.mtime_ns, source.captured_ms) = (0, 0, 0);
        let header = Header {
            key: CacheKey {
                path: "field_shapes.csv".into(),
                eps_bits: EPS.to_bits(),
                seed: SEED,
            },
            rows: entry.rows,
            attrs: entry.attrs,
            source,
            ingest: entry.ingest.as_ref().map(TupleIngest::checkpoint),
        };
        let pairs = sketch.map(|sk| (sk.params(), sk.pairs()));
        artifact::fnv64(&artifact::encode(
            &header,
            &entry.cols,
            entry.filter.sample(),
            pairs,
        ))
    }

    /// A cold stream build plus its first sketch scan.
    fn cold(path: &str) -> (Entry, NonSeparationSketch) {
        let entry =
            build_entry(&dsref(path), LoadMode::Stream, SourceStamp::capture(path)).unwrap();
        let sketch = build_sketch(path, &entry, SEED).unwrap();
        (entry, sketch)
    }

    #[test]
    fn stream_artifacts_match_the_golden_bytes() {
        let path = write("grow.csv", BASE);
        let (entry, sketch) = cold(&path);
        assert_eq!(entry.rows, 400);
        let base = artifact_fnv(&entry, Some(&sketch));

        std::fs::write(&path, format!("{BASE}{APPEND}")).unwrap();
        let grown_stamp = SourceStamp::capture(&path).unwrap();
        let (absorbed, advanced) = absorb(&path, &entry, grown_stamp, EPS).unwrap();
        assert_eq!(absorbed.rows, 520);
        let advanced = advanced.expect("the in-process sketch advances over the suffix");
        let grown = artifact_fnv(&absorbed, Some(&advanced));

        let cold_path = write("cold.csv", &format!("{BASE}{APPEND}"));
        let (rebuilt, rebuilt_sketch) = cold(&cold_path);
        assert_eq!(artifact_fnv(&rebuilt, Some(&rebuilt_sketch)), grown);

        assert_eq!(base, GOLDEN_BASE, "cold build of the base file");
        assert_eq!(grown, GOLDEN_GROWN, "build + append absorb");
    }
}
