//! The disk tier: persisting an entry as its key's artifact, restoring
//! entries and sketches from artifacts, finding the keys to re-admit at
//! startup, disk GC under the byte budget, and the startup sweep of
//! temp files a killed writer left behind. The byte layout itself lives
//! in [`crate::artifact`]; this module decides *when* an artifact may
//! stand in for a source scan.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;

use qid_core::filter::{FilterParams, TupleSampleFilter};
use qid_core::sketch::{DistinctSketch, NonSeparationSketch, SketchParams};
use qid_core::stream::TupleIngest;

use crate::artifact::{self, Header};
use crate::build::{Entry, COLUMN_SKETCH_K};
use crate::freshness::SourceStamp;
use crate::registry::CacheKey;

/// True iff `h` describes exactly `entry` of `key`: the same key, shape
/// and source stamp. Only then may the artifact's pair sample be paired
/// with the entry's tuple sample.
fn describes(h: &Header, key: &CacheKey, entry: &Entry) -> bool {
    h.key == *key && (h.rows, h.attrs, Some(h.source)) == (entry.rows, entry.attrs, entry.source)
}

/// Publishes `entry` as `key`'s artifact under `dir` — with `sketch`'s
/// pair sample, or else with the pair section of the artifact it
/// replaces when that describes the very same data (a materialising
/// upgrade or a memory-mode load re-persists an unchanged source and
/// must not drop the persisted pair sample). Best-effort: a failed
/// persist only costs the next restart a re-scan. Entries built from an
/// unstattable source cannot be validated on restore, so they are not
/// persisted.
pub(crate) fn persist(
    dir: &Path,
    key: &CacheKey,
    entry: &Entry,
    sketch: Option<&NonSeparationSketch>,
) {
    let Some(source) = entry.source else {
        return;
    };
    let header = Header {
        key: key.clone(),
        rows: entry.rows,
        attrs: entry.attrs,
        source,
        ingest: entry.ingest.as_ref().map(TupleIngest::checkpoint),
    };
    let old = match sketch {
        Some(_) => None,
        None => std::fs::read(artifact::path(dir, key.fnv64())).ok(),
    };
    let kept = old
        .as_deref()
        .and_then(|bytes| artifact::parse(bytes).ok())
        .filter(|old| describes(&old.header, key, entry))
        .and_then(|old| old.pairs().ok().flatten());
    let pairs = sketch
        .map(|sk| (sk.params(), sk.pairs()))
        .or(kept.as_ref().map(|(params, table)| (*params, table)));
    let bytes = artifact::encode(&header, &entry.cols, entry.filter.sample(), pairs);
    let _ = artifact::publish(dir, key, &bytes);
}

/// Garbage-collects the artifacts under `dir` down to `budget` bytes,
/// removing whole artifacts (one file per key) least-recently-*used*
/// first and `protect` (the key just persisted) never. Recency is the
/// journal's per-key last-access order from `access` (restores touch
/// it; they never touch the file's mtime, which is why mtime alone once
/// evicted a hot restored key ahead of a cold never-requested one).
/// Keys the journal has never seen sort before all known ones — they
/// are exactly the never-requested artifacts the budget should drop
/// first; mtime breaks ties and carries the whole ordering when the
/// journal is disabled. Returns each removed `(stem, bytes)`.
pub(crate) fn collect_garbage(
    dir: &Path,
    budget: u64,
    protect: u64,
    access: impl FnOnce() -> HashMap<u64, u64>,
) -> Vec<(u64, u64)> {
    let artifacts = artifact::list(dir);
    let mut total: u64 = artifacts.iter().map(|(_, _, meta)| meta.len()).sum();
    if total <= budget {
        return Vec::new();
    }
    let access = access();
    let mut victims: Vec<(u64, std::time::SystemTime, u64, PathBuf, u64)> = artifacts
        .into_iter()
        .filter(|&(stem, _, _)| stem != protect)
        .map(|(stem, path, meta)| {
            let seq = access.get(&stem).copied().unwrap_or(0);
            let mtime = meta.modified().unwrap_or(UNIX_EPOCH);
            (seq, mtime, stem, path, meta.len())
        })
        .collect();
    victims.sort_by_key(|v| (v.0, v.1, v.2));
    let mut removed = Vec::new();
    for (_, _, stem, path, bytes) in victims {
        if total <= budget {
            break;
        }
        let _ = std::fs::remove_file(path);
        total = total.saturating_sub(bytes);
        removed.push((stem, bytes));
    }
    removed
}

/// The key whose artifact is stored under `stem`, for startup
/// re-admission. The artifact carries the key's full identity; trusting
/// it is gated on the stem round-tripping, so a collision or a foreign
/// file yields `None`.
pub(crate) fn key_of(dir: &Path, stem: u64) -> Option<CacheKey> {
    let bytes = std::fs::read(artifact::path(dir, stem)).ok()?;
    let key = artifact::parse(&bytes).ok()?.header.key;
    (key.fnv64() == stem).then_some(key)
}

/// Restores `entry`'s non-separation sketch from the pair section of
/// its artifact under `dir`. Succeeds only if the artifact describes
/// exactly this entry (key, shape and the source stamp the *entry* was
/// built against) and was built with the server's current sketch
/// parameters — so a sketch from an older file version can never be
/// paired with a newer sample.
pub(crate) fn restore_sketch(
    dir: &Path,
    key: &CacheKey,
    entry: &Entry,
    params: SketchParams,
) -> Option<NonSeparationSketch> {
    let bytes = std::fs::read(artifact::path(dir, key.fnv64())).ok()?;
    let art = artifact::parse(&bytes).ok()?;
    if !describes(&art.header, key, entry) {
        return None; // a stem collision, or sketch and sample describe different data
    }
    let (stored, pairs) = art.pairs().ok()??;
    let bits = |p: SketchParams| {
        (
            p.alpha.to_bits(),
            p.eps.to_bits(),
            p.k,
            p.multiplier.to_bits(),
        )
    };
    if bits(stored) != bits(params) {
        return None; // the server's sketch contract changed
    }
    Some(NonSeparationSketch::from_pair_rows(
        pairs, entry.rows, params,
    ))
}

/// Restores `key`'s entry from its artifact under `dir`. Succeeds only
/// if the artifact is intact, names exactly `key`, and the source's
/// current stamp matches the recorded one, so persistence never
/// resurrects stale data. The pair section stays encoded: it is decoded
/// on the first `sketch`.
pub(crate) fn restore(dir: &Path, key: &CacheKey) -> Option<Entry> {
    let bytes = std::fs::read(artifact::path(dir, key.fnv64())).ok()?;
    let art = artifact::parse(&bytes).ok()?;
    let h = &art.header;
    if h.key != *key {
        return None; // file-stem hash collision
    }
    let now = SourceStamp::capture(&key.path)?;
    if now != h.source {
        return None; // the source changed since the sample was taken
    }
    let sample = art.sample().ok()?;
    // Resume the paused ingest, if the artifact carries a checkpoint:
    // the persisted sample rows *are* the reservoir items in slot
    // order. A checkpoint that does not cohere with the header drops
    // the resume — the entry still restores, it just rebuilds fully on
    // the next append.
    let ingest = h.ingest.filter(|ck| ck.skip.seen == h.rows).and_then(|ck| {
        let names = sample.schema().names().map(str::to_string).collect();
        let items = sample.rows().map(|row| row.to_vec()).collect();
        TupleIngest::resume(names, ck, items)
    });
    let filter =
        TupleSampleFilter::from_sample(sample, FilterParams::new(f64::from_bits(key.eps_bits)));
    let cols = art
        .cols
        .iter()
        .map(|minima| DistinctSketch::from_minima(COLUMN_SKETCH_K, minima.iter().copied()))
        .collect();
    Some(Entry::new(
        filter,
        None,
        cols,
        h.rows,
        h.attrs,
        Some(now),
        ingest,
    ))
}

/// How old a `*.tmp` file must be before the startup sweep removes it.
/// An in-flight persist lives milliseconds between write and rename;
/// an hour-old temp file can only be debris from a killed writer. The
/// age gate keeps the sweep from deleting a live sibling process's
/// in-flight file when several servers share one cache dir.
pub(crate) const TMP_SWEEP_MIN_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

/// True iff `name` is a temp file this registry writes: an artifact
/// publish or a journal rotation.
pub(crate) fn is_registry_tmp(name: &str) -> bool {
    artifact::is_tmp(name) || crate::wal::is_tmp(name)
}

/// Removes temp files left behind by a writer killed mid-persist
/// (temp names are never reused: pid + counter). Only names the
/// registry writes are touched ([`is_registry_tmp`]): a shared dir's
/// foreign `*.tmp` files are never ours to delete.
///
/// With `crashed` — the journal found no clean-shutdown record for the
/// previous life — every registry tmp file is known debris and is
/// reclaimed immediately, so a crash-restart loop faster than the age
/// gate cannot accumulate orphans inside the disk budget's directory.
/// Without crash evidence (clean shutdown, first boot, or no journal)
/// only files past [`TMP_SWEEP_MIN_AGE`] go, preserving a live sibling
/// process's in-flight persist.
pub(crate) fn sweep_tmp_files(dir: &Path, crashed: bool) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if !entry.file_name().to_str().is_some_and(is_registry_tmp) {
            continue;
        }
        let old_enough = crashed
            || entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age >= TMP_SWEEP_MIN_AGE);
        if old_enough {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}
