//! Building entries: the one source scan ([`scan`]) and the four
//! things it feeds — a cold build in either mode ([`build_entry`]), an
//! append absorb ([`absorb`]), the first in-process sketch
//! ([`build_sketch`]) and the rows of an entry built without them
//! ([`materialise`]).
//!
//! Every scan reads exactly the bytes its stamp describes: a cold build
//! reads `[0, stamp.len)` of the stamp captured before it started, an
//! absorb reads `[old.len, new.len)`, and the sketch and rows scans read
//! the entry's `[0, stamp.len)`. Rows appended while a scan runs are
//! therefore never fed twice — they are left for the next revalidation
//! to classify as an append and absorb exactly once.

use std::fs::File;
use std::io::Read as _;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use qid_core::filter::{FilterParams, SeparationFilter, TupleSampleFilter};
use qid_core::sketch::{DistinctSketch, NonSeparationSketch};
use qid_core::stream::{PairIngest, TupleIngest};
use qid_dataset::csv::{CsvOptions, CsvTupleSource, SCAN_BATCH_BYTES};
use qid_dataset::{AttrId, Dataset, DatasetBuilder, DatasetError, TupleSource};

use crate::freshness::SourceStamp;
use crate::proto::{sketch_params, DatasetRef, LoadMode};

/// Retention parameter `k` of the per-column [`DistinctSketch`]s built
/// for stream-mode entries: `stats` answers are exact below `k`
/// distinct values per column and `(1 ± O(1/√k)) ≈ ±6%` estimates
/// above, at `≤ 8·k` bytes per column.
pub const COLUMN_SKETCH_K: usize = 256;

/// The artifacts cached for one dataset: the tuple sample (Theorem 1),
/// the per-column distinct-count sketches, and two write-once cells —
/// the lazily built non-separation sketch (Theorem 2) and the
/// materialised rows. Every entry is built by the same scan, so an
/// entry holds the very sample, checkpoint and answers of any other
/// entry for the same source and seed, whether or not its rows are set.
#[derive(Debug)]
pub struct Entry {
    /// The resident tuple-sample filter (always present).
    pub filter: TupleSampleFilter,
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
    /// column sketches, and the retained resumable-ingest tuples (a
    /// second copy of the sample rows, kept so appends can resume).
    /// Together with the two cells' bytes (`Entry::footprint`) this is
    /// what LRU eviction charges against
    /// [`crate::registry::RegistryConfig::cache_bytes`].
    pub stored_bytes: usize,
    /// Source-file stamp captured *before* the building scan, so a
    /// file rewritten mid-scan still reads as changed on the next hit.
    /// `None` when the source could not be statted.
    pub source: Option<SourceStamp>,
    /// The paused streaming build (reservoir + RNG) this entry's
    /// sample came from. `Some` for built and checkpoint-restored
    /// entries, so the key's artifact always carries the checkpoint;
    /// appends resume it over just the new suffix. `None` for
    /// pre-checkpoint restores.
    pub(crate) ingest: Option<TupleIngest>,
    /// The paused pair-sample build behind the non-separation sketch,
    /// recorded when [`crate::registry::Registry::sketch_for`] builds in
    /// process, by a scan or from the materialised rows — so an append
    /// can advance the sketch over the suffix instead of re-scanning.
    /// Written at most once, like the sketch.
    pub(crate) pair_ingest: OnceLock<PairIngest>,
    /// The lazily built Theorem 2 sketch and its resident bytes (the
    /// pairs plus the retained pair-sample tuples, weighed once when
    /// the cell is set): written once (concurrent `sketch` queries
    /// collapse onto one build), dropped with the entry.
    pub(crate) sketch_cell: OnceLock<Result<(Arc<NonSeparationSketch>, usize), String>>,
    /// The materialised rows and their code bytes, weighed once when
    /// the cell is set: by the memory-mode scan that built the entry,
    /// or later by [`materialise`] (concurrent memory-mode lookups
    /// collapse onto one scan). Written once, a failed scan too, and
    /// dropped with the entry; an absorb starts an entry without them.
    pub(crate) dataset_cell: OnceLock<Result<(Dataset, usize), String>>,
}

impl Entry {
    pub(crate) fn new(
        filter: TupleSampleFilter,
        cols: Vec<DistinctSketch>,
        rows: usize,
        attrs: usize,
        source: Option<SourceStamp>,
        ingest: Option<TupleIngest>,
    ) -> Entry {
        let stored_bytes = filter.stored_bytes()
            + cols.iter().map(DistinctSketch::stored_bytes).sum::<usize>()
            + ingest.as_ref().map_or(0, TupleIngest::retained_bytes);
        Entry {
            filter,
            cols,
            rows,
            attrs,
            stored_bytes,
            source,
            ingest,
            pair_ingest: OnceLock::new(),
            sketch_cell: OnceLock::new(),
            dataset_cell: OnceLock::new(),
        }
    }

    /// The cached non-separation sketch, if one has been built for this
    /// entry (see [`crate::registry::Registry::sketch_for`]).
    pub fn sketch(&self) -> Option<Arc<NonSeparationSketch>> {
        match self.sketch_cell.get() {
            Some(Ok((sketch, _))) => Some(Arc::clone(sketch)),
            _ => None,
        }
    }

    /// The materialised dataset, once a memory-mode lookup has set it.
    pub fn dataset(&self) -> Option<&Dataset> {
        match self.dataset_cell.get() {
            Some(Ok((dataset, _))) => Some(dataset),
            _ => None,
        }
    }

    /// What this entry holds resident: [`Entry::stored_bytes`] plus its
    /// built sketch's and materialised rows' bytes, if any.
    pub(crate) fn footprint(&self) -> u64 {
        let sketch = match self.sketch_cell.get() {
            Some(Ok((_, bytes))) => *bytes,
            _ => 0,
        };
        let rows = match self.dataset_cell.get() {
            Some(Ok((_, bytes))) => *bytes,
            _ => 0,
        };
        (self.stored_bytes + sketch + rows) as u64
    }

    /// True iff this entry can absorb a pure append without a re-scan:
    /// it carries resumable ingest state.
    pub fn append_capable(&self) -> bool {
        self.ingest.is_some()
    }
}

/// The sinks one source scan advances: the tuple reservoir, the
/// per-column distinct-count sketches, the pair reservoirs behind the
/// non-separation sketch and the materialised rows. A scan feeds
/// whichever are present.
#[derive(Default)]
struct Feed {
    /// The paused Theorem 1 sample build.
    tuples: Option<TupleIngest>,
    /// One KMV sketch per column, or none.
    cols: Vec<DistinctSketch>,
    /// The paused Theorem 2 pair-sample build.
    pairs: Option<PairIngest>,
    /// Every row, for a memory-mode entry's dataset.
    rows: Option<DatasetBuilder>,
}

/// Slots in each column's table of a [`FieldMemo`]: a power of two.
/// Measured on the ledger's stream build: 256 slots gave back part of
/// the gain, 4096 were no faster served and held 1.3 MB more at peak,
/// and 16384 were slower.
const MEMO_SLOTS: usize = 1024;

/// The longest field a [`FieldMemo`] slot holds: its bytes and a length
/// byte fill one `u128`.
const MEMO_MAX_LEN: usize = 15;

/// A scan-local, direct-mapped memo of each column's recent raw fields,
/// so a field a column has just seen is neither typed nor hashed again.
///
/// Skipping it is exact: re-observing a hash leaves a KMV sketch as it
/// was (a retained hash is deduped; a rejected or evicted one is at or
/// above the `k`-th minimum, which only falls), and typing is a pure
/// function of the field's bytes and the scan's `CsvOptions`. A slot is
/// keyed by the exact bytes and their length, so `1` and `1\0` differ;
/// longer fields bypass the memo. Memory is `MEMO_SLOTS` slots per
/// column whatever the row count, and a high-cardinality column costs
/// one probe per cell.
struct FieldMemo {
    /// `MEMO_SLOTS` slots per column: a field's bytes, little-endian and
    /// zero-padded, with its length plus one in the top byte, so 0 is an
    /// empty slot.
    slots: Vec<u128>,
}

impl FieldMemo {
    fn new(cols: usize) -> FieldMemo {
        FieldMemo {
            slots: vec![0; cols * MEMO_SLOTS],
        }
    }

    /// True if `field` is in column `col`'s slot for it; otherwise it
    /// takes the slot, for the caller to type and observe.
    fn seen(&mut self, col: usize, field: &str) -> bool {
        let Some((at, key)) = Self::slot(field) else {
            return false;
        };
        let slot = &mut self.slots[col * MEMO_SLOTS + at];
        if *slot == key {
            return true;
        }
        *slot = key;
        false
    }

    /// The slot index and key of `field`, or `None` past
    /// [`MEMO_MAX_LEN`] bytes.
    ///
    /// The bytes are gathered with overlapping loads from both ends
    /// rather than a variable-length copy (which took a third of the
    /// memo's gain): each load puts every byte it reads at its own
    /// position, so overlaps agree and the length decides the rest.
    fn slot(field: &str) -> Option<(usize, u128)> {
        let b = field.as_bytes();
        let n = b.len();
        if n > MEMO_MAX_LEN {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        let u32_at =
            |i: usize| u64::from(u32::from_le_bytes(b[i..i + 4].try_into().expect("4 bytes")));
        let byte_at = |i: usize| u64::from(b[i]) << (8 * i);
        // Bytes 0..8 and 8..n.
        let (lo, hi) = match n {
            0 => (0, 0),
            1..=3 => (byte_at(0) | byte_at(n / 2) | byte_at(n - 1), 0),
            4..=7 => (u32_at(0) | u32_at(n - 4) << (8 * (n - 4)), 0),
            8 => (u64_at(0), 0),
            _ => (u64_at(0), u64_at(n - 8) >> (8 * (16 - n))),
        };
        let key = u128::from(lo) | u128::from(hi) << 64 | (n as u128 + 1) << 120;
        let mixed = (lo ^ hi.rotate_left(29)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Some(((mixed >> (64 - MEMO_SLOTS.trailing_zeros())) as usize, key))
    }
}

/// The one source scan: feeds every data row stored in bytes `range`
/// of `path` through the sinks `start` returns, and reads not one byte
/// past `range.end` — the stamped length.
///
/// Rows come from the CSV reader's two-stage scan
/// ([`CsvTupleSource::scan_rows`]): a helper thread frames records
/// while this thread types each field and hashes it into its column
/// sketch in place — unless the column's [`FieldMemo`] has just seen
/// the field — and builds an owned tuple only for a row a reservoir
/// keeps — `O(r log(n/r))` rows, not `n`. The sinks see every row in
/// source order on this thread, so what they hold is what a serial
/// scan would leave.
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
    let src = opened.map_err(|e| format!("reading {path}: {e}"))?;
    let mut feed = start(src.attr_names());
    let mut memo = FieldMemo::new(feed.cols.len());
    // The scan has already checked each row's arity, so the builder can
    // only fail on a column past `u32::MAX` distinct values.
    let mut overflow = None;
    src.scan_rows(SCAN_BATCH_BYTES, |mut row| {
        for (col, (sk, field)) in feed.cols.iter_mut().zip(row.raw_fields()).enumerate() {
            if !memo.seen(col, field) {
                sk.observe_ref(row.typed(field));
            }
        }
        if let Some(pairs) = &mut feed.pairs {
            pairs.push_with(|| row.to_values());
        }
        if let Some(tuples) = &mut feed.tuples {
            tuples.push_with(|| row.to_values());
        }
        if let Some(rows) = &mut feed.rows {
            if let Err(e) = rows.push_row(row.to_values()) {
                overflow.get_or_insert(e);
            }
        }
    })
    .map_err(|e| format!("streaming {path}: {e}"))?;
    match overflow {
        Some(e) => Err(format!("reading {path}: {e}")),
        None => Ok(feed),
    }
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
    // Driven through a TupleIngest (the same computation
    // `tuple_filter_from_stream` runs) so the reservoir + RNG state
    // stays on the entry: a later pure append resumes it over just the
    // new suffix. The same pass feeds the column sketches or, in memory
    // mode, materialises the rows, whose dictionaries then give the
    // column sketches in `O(distinct)`.
    let memory = mode == LoadMode::Memory;
    let feed = scan(&ds.path, 0..stamped_len(source), None, |names| Feed {
        cols: if memory {
            Vec::new()
        } else {
            (0..names.len())
                .map(|_| DistinctSketch::new(COLUMN_SKETCH_K))
                .collect()
        },
        rows: memory.then(|| DatasetBuilder::new(&names)),
        tuples: Some(TupleIngest::new(names, params, ds.seed)),
        pairs: None,
    })?;
    let entry = sampled(&ds.path, feed, params, source)?;
    big_enough(entry.rows, entry.attrs)?;
    Ok(entry)
}

/// The entry a scan fed: the sample its reservoir holds, its column
/// sketches, the materialised dataset if the scan kept the rows, and
/// the reservoir itself, parked for the next append.
fn sampled(
    path: &str,
    feed: Feed,
    params: FilterParams,
    source: Option<SourceStamp>,
) -> Result<Entry, String> {
    let ingest = feed.tuples.expect("an entry scan feeds tuples");
    let filter = ingest
        .to_filter(params)
        .map_err(|e| format!("streaming {path}: {e}"))?;
    let dataset = feed.rows.map(weighed);
    let cols = match &dataset {
        Some((dataset, _)) => cols_from_dataset(dataset),
        None => feed.cols,
    };
    let (rows, attrs) = (ingest.rows(), ingest.names().len());
    let entry = Entry::new(filter, cols, rows, attrs, source, Some(ingest));
    if let Some(dataset) = dataset {
        let _ = entry.dataset_cell.set(Ok(dataset));
    }
    Ok(entry)
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
        rows: None,
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
/// scan of the stamped bytes of `path`. Either way the rows go through
/// one paused pair build, kept on the entry so a later append can
/// advance it. Both produce the same sketch — the materialised dataset
/// preserves source row order.
pub(crate) fn build_sketch(
    path: &str,
    entry: &Entry,
    seed: u64,
) -> Result<NonSeparationSketch, String> {
    let params = sketch_params();
    let new_pairs = |names: Vec<String>| {
        let slots = params.pair_sample_size(names.len()).max(1);
        PairIngest::new(names, slots, seed)
    };
    let pairs = match entry.dataset() {
        Some(dataset) => {
            let mut pairs = new_pairs(dataset.schema().names().map(str::to_string).collect());
            for row in dataset.rows() {
                pairs.push_with(|| row.to_vec());
            }
            pairs
        }
        None => {
            let feed = scan(path, 0..stamped_len(entry.source), None, |names| Feed {
                pairs: Some(new_pairs(names)),
                ..Feed::default()
            })?;
            still_stamped(path, entry, "sketch")?;
            feed.pairs.expect("a sketch scan feeds pairs")
        }
    };
    let sketch = pairs
        .to_sketch(params)
        .map_err(|e| format!("streaming {path}: {e}"))?;
    let _ = entry.pair_ingest.set(pairs);
    Ok(sketch)
}

/// Materialises `entry`'s rows, weighed for its dataset cell, by one
/// scan of the stamped bytes of `path` that feeds nothing else.
pub(crate) fn materialise(path: &str, entry: &Entry) -> Result<(Dataset, usize), String> {
    let feed = scan(path, 0..stamped_len(entry.source), None, |names| Feed {
        rows: Some(DatasetBuilder::new(&names)),
        ..Feed::default()
    })?;
    still_stamped(path, entry, "dataset")?;
    Ok(weighed(feed.rows.expect("a rows scan feeds rows")))
}

/// Finishes a scan's rows and weighs their codes once.
fn weighed(rows: DatasetBuilder) -> (Dataset, usize) {
    let dataset = rows.finish();
    let bytes = dataset.code_bytes();
    (dataset, bytes)
}

/// The sample and what a later scan built beside it must describe the
/// same data: if the source changed between the entry build and that
/// scan, fail now — the stamp-on-hit check will rebuild the entry (and
/// with it `what`) on the next lookup.
fn still_stamped(path: &str, entry: &Entry, what: &str) -> Result<(), String> {
    if SourceStamp::capture(path) != entry.source {
        return Err(format!(
            "{path} changed while the {what} was building; retry"
        ));
    }
    Ok(())
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

    /// FNV-1a of the artifact the stream build of [`BASE`] persists
    /// (tuple sample, column sketches and, after `sketch`, pair sample),
    /// normalised as [`artifact_fnv`] describes. Taken from the
    /// version-4 artifact — FNV-1a stamp hashes and checksum — so it
    /// pins that the move to the word-wide content hash left every
    /// sample, KMV and pair byte where it was.
    const GOLDEN_BASE: u64 = 0x66ba_3a47_371b_c7e6;
    /// The same after [`APPEND`] is absorbed (and for a cold build of
    /// the grown file).
    const GOLDEN_GROWN: u64 = 0xd535_d84f_1e34_1e50;

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

    /// FNV-1a of the artifact `entry` persists with `sketch`'s pairs,
    /// with what differs from run to run — path, mtime and capture
    /// time — fixed, so only the data and the sampling state count.
    /// What the artifact version decides is left out too: the source
    /// hashes are zeroed, and the magic, version and trailing checksum
    /// are not hashed.
    fn artifact_fnv(entry: &Entry, sketch: Option<&NonSeparationSketch>) -> u64 {
        let mut source = entry.source.expect("a stamped entry");
        (source.mtime_s, source.mtime_ns, source.captured_ms) = (0, 0, 0);
        (source.prefix_hash, source.full_hash) = (0, 0);
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
        let bytes = artifact::encode(&header, &entry.cols, entry.filter.sample(), pairs);
        bytes[6..bytes.len() - 8]
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// A cold stream build plus its first sketch scan.
    fn cold(path: &str) -> (Entry, NonSeparationSketch) {
        let entry =
            build_entry(&dsref(path), LoadMode::Stream, SourceStamp::capture(path)).unwrap();
        let sketch = build_sketch(path, &entry, SEED).unwrap();
        (entry, sketch)
    }

    #[test]
    fn a_ragged_row_in_the_first_batch_fails_the_build() {
        // ~1.5 MB with a ragged row in the first batch: the first error
        // in source order, as the serial scan reported it.
        let mut text = String::from("a,b,c\n");
        for i in 0..100_000 {
            text += &if i == 4 {
                "4,x\n".into()
            } else {
                format!("{i},x-{i},{}\n", i % 7)
            };
        }
        let path = write("ragged.csv", &text);
        let err =
            build_entry(&dsref(&path), LoadMode::Stream, SourceStamp::capture(&path)).unwrap_err();
        assert!(err.ends_with(": row 4: expected 3 values, got 2"), "{err}");
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

/// The [`FieldMemo`] against the scan it shortcuts: every column sketch
/// a memoised scan leaves equals one that observed every typed field.
#[cfg(test)]
mod memo_tests {
    use proptest::prelude::*;

    use super::*;

    /// Fields the memo or the typing treats specially: 15, 16 and 17+
    /// bytes (ASCII and multibyte), a trailing NUL, spellings of one
    /// integer, the null tokens, padding, and quoted text with commas
    /// and newlines.
    const SHAPES: &[&str] = &[
        "123456789012345",
        "1234567890123456",
        "12345678901234567",
        "abcdefghijklmno",
        "abcdefghijklmnop",
        "abcdefghijklmnoq",
        "abcdefghijklmnopqrstuvwxyz",
        "1234567",
        "12345678",
        "123456789",
        "abcdefgh",
        "1",
        "1\0",
        " 1",
        "1 ",
        "01",
        "+1",
        "1.0",
        "",
        "?",
        " ? ",
        " ",
        "a,b",
        "line1\nline2",
        "cr\r\nlf",
        "say \"what\"",
        "naïve",
        "日本語",
        "😀😀😀a",
        "😀😀😀😀",
        "日本語日本語",
        "\u{a0}7\u{a0}",
    ];

    /// `n` fields that share one memo slot, so interleaving them makes
    /// each evict the other: found by brute force over `make(i)`.
    fn colliding(n: usize, make: impl Fn(usize) -> String) -> Vec<String> {
        let mut by_slot = vec![Vec::new(); MEMO_SLOTS];
        for i in 0.. {
            let field = make(i);
            let (at, _) = FieldMemo::slot(&field).expect("a short field");
            by_slot[at].push(field);
            if by_slot[at].len() == n {
                return std::mem::take(&mut by_slot[at]);
            }
        }
        unreachable!()
    }

    fn write(contents: &str) -> String {
        let dir = std::env::temp_dir().join(format!("qid-build-memo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("memo.csv");
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// What a field looks like in a record: quoted when it must be.
    fn escaped(field: &str) -> String {
        if field.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    /// The column sketches the scan leaves for `path`, with the memo:
    /// over the whole file, or as a build of `[0, cut)` and an absorb
    /// of `[cut, len)`.
    fn memoised(path: &str, width: usize, k: usize, cut: Option<u64>) -> Vec<DistinctSketch> {
        let new_cols = |_| Feed {
            cols: (0..width).map(|_| DistinctSketch::new(k)).collect(),
            ..Feed::default()
        };
        let Some(cut) = cut else {
            return scan(path, 0..u64::MAX, None, new_cols).unwrap().cols;
        };
        let head = scan(path, 0..cut, None, new_cols).unwrap().cols;
        let names = (0..width).map(|c| format!("c{c}")).collect();
        scan(path, cut..u64::MAX, Some(names), |_| Feed {
            cols: head,
            ..Feed::default()
        })
        .unwrap()
        .cols
    }

    /// The column sketches of observing every typed field of `path`.
    fn observed_every_field(path: &str, width: usize, k: usize) -> Vec<DistinctSketch> {
        let mut cols: Vec<_> = (0..width).map(|_| DistinctSketch::new(k)).collect();
        let mut src = CsvTupleSource::open(path, &CsvOptions::default()).unwrap();
        while let Some(row) = src.next_row().unwrap() {
            for (sk, v) in cols.iter_mut().zip(row.values()) {
                sk.observe_ref(v);
            }
        }
        cols
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_memoised_scan_leaves_the_sketches_of_observing_every_field(
            width in 1usize..4,
            picks in proptest::collection::vec(0usize..1000, 1..1200),
            k in 0usize..3,
            split in 0usize..1000,
        ) {
            // Half the fields are keys that share a slot: text, and
            // integers that type alike but for their values.
            let mut keys = colliding(3, |i| format!("k{i}"));
            keys.extend(colliding(3, |i| i.to_string()));
            keys.extend(colliding(2, |i| format!("日{i}")));
            let pool: Vec<String> = keys
                .iter()
                .map(String::as_str)
                .chain(SHAPES.iter().copied())
                .map(str::to_string)
                .collect();
            let field = |pick: usize| {
                if pick < 500 {
                    &keys[pick % keys.len()]
                } else {
                    &pool[pick % pool.len()]
                }
            };
            let k = [2, 8, COLUMN_SKETCH_K][k];
            let header: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
            let mut text = header.join(",") + "\n";
            let mut row_ends = vec![text.len()];
            for row in picks.chunks_exact(width) {
                let fields: Vec<String> = row.iter().map(|&p| escaped(field(p))).collect();
                text += &fields.join(",");
                text += "\n";
                row_ends.push(text.len());
            }
            let path = write(&text);
            let expected = observed_every_field(&path, width, k);
            prop_assert_eq!(&memoised(&path, width, k, None), &expected, "csv {:?}", text);
            let cut = row_ends[split % row_ends.len()] as u64;
            prop_assert_eq!(&memoised(&path, width, k, Some(cut)), &expected, "cut {}", cut);
        }
    }

    /// One-, two- and three-byte characters and NUL.
    const ALPHABET: [char; 5] = ['a', 'b', '\0', 'é', '語'];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `a` is up to 12 characters; `b` is `a`, or `a` with one
        /// character replaced, removed or inserted.
        #[test]
        fn two_fields_share_a_key_only_if_they_are_equal(
            chars in proptest::collection::vec(0usize..5, 0..12),
            edit in 0u8..4,
            at in 0usize..12,
            with in 0usize..5,
        ) {
            let a: String = chars.iter().map(|&c| ALPHABET[c]).collect();
            let mut b: Vec<char> = a.chars().collect();
            let at = at % (b.len() + 1);
            match edit {
                0 => {}
                1 if at < b.len() => b[at] = ALPHABET[with],
                2 if at < b.len() => drop(b.remove(at)),
                _ => b.insert(at, ALPHABET[with]),
            }
            let b: String = b.into_iter().collect();
            let (ka, kb) = (FieldMemo::slot(&a), FieldMemo::slot(&b));
            prop_assert_eq!(ka.is_some(), a.len() <= MEMO_MAX_LEN);
            if let (Some(ka), Some(kb)) = (ka, kb) {
                prop_assert_eq!(ka.1 == kb.1, a == b, "{:?} {:?}", a, b);
                prop_assert!(ka.1 != 0);
            }
        }
    }

    #[test]
    fn keys_tell_length_and_bytes_apart_and_long_fields_bypass() {
        let key = |f: &str| FieldMemo::slot(f).map(|(_, key)| key);
        assert_ne!(key("1"), key("1\0"));
        assert_ne!(key(""), Some(0), "an empty field is not an empty slot");
        assert!(key("123456789012345").is_some());
        assert_eq!(key("1234567890123456"), None);
        let mut memo = FieldMemo::new(2);
        assert!(!memo.seen(0, "x"));
        assert!(memo.seen(0, "x"));
        assert!(!memo.seen(1, "x"), "columns keep their own tables");
        assert!(!memo.seen(0, "1234567890123456"));
        assert!(!memo.seen(0, "1234567890123456"), "long fields never hit");
    }
}
