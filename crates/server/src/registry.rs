//! The registry lifecycle subsystem: `(path, eps, seed) → cached sketch`,
//! sharded, budgeted, persistent, and self-invalidating.
//!
//! The paper's economics are: building the `Θ(m/√ε)` tuple sample costs
//! a full scan, answering a query against it costs `O(|A|·r log r)`. So
//! the registry builds once and every subsequent `audit`/`key`/`check`
//! shares the resident [`qid_core::filter::TupleSampleFilter`]. On top of that single
//! invariant this module layers the full cache lifecycle:
//!
//! * **Sharding.** Keys are spread over 16 independent
//!   `RwLock<HashMap>` shards by key hash, so a cache hit takes only a
//!   shared read lock on one shard — concurrent readers of
//!   *different* datasets (and of the same dataset) never serialise on
//!   a global mutex. Entries are immutable `Arc`s, so the read path
//!   clones a pointer and leaves.
//! * **Build collapsing.** Concurrent first requests for the same key
//!   are collapsed onto one build via a per-entry [`OnceLock`]: the
//!   losers block until the winner's artifacts are ready, so two
//!   clients racing on a cold dataset still cause exactly one CSV scan.
//! * **LRU eviction.** With [`RegistryConfig::cache_bytes`] set, every
//!   fill that pushes the resident total over budget — a slot's entry,
//!   or an entry's sketch or rows cell — evicts least-recently-used
//!   entries until the total fits again. The total is summed from the
//!   resident entries themselves (each one's [`Entry::stored_bytes`]
//!   plus its set cells) wherever it is read, so no ledger can drift
//!   from what the slots hold. The entry
//!   being returned is never evicted, so a single over-budget dataset
//!   still works.
//! * **Disk persistence.** With [`RegistryConfig::cache_dir`] set,
//!   every entry read from the source is persisted as one checksummed
//!   artifact per key ([`crate::artifact`]); a later miss — in this
//!   process or after a restart — restores it instead of re-scanning
//!   the (possibly multi-GB) source.
//! * **File-change invalidation.** Every hit re-stamps the source
//!   ([`SourceStamp`]) and classifies it against the stamp captured
//!   *before* the building scan; `freshness.rs` documents the racy-stat
//!   discipline and the blind spots that remain. Restores check the
//!   same stamp, so persistence never resurrects stale data.
//! * **Append absorption.** A grown source whose entire old content
//!   still hashes to the recorded stamp, ending on a row boundary, is a
//!   pure append: the entry's paused ingest resumes over just the new
//!   suffix, bit-identical to a cold rebuild (`cache_append_updates`).
//! * **One lookup path.** [`Registry::get_or_load`] in either mode,
//!   [`Registry::sweep`] and startup re-admission all go through one
//!   resolver: it classifies the resident slot once (fresh, appended,
//!   stale, pending or absent), acts on that, and reports what this
//!   caller paid — shared, absorbed, restored or scanned. Every fill
//!   restores first. A memory-mode lookup then sets the entry's rows
//!   cell if it is empty. The hit, miss and disk-hit counters are
//!   bumped in one place from the dearest step paid, so each lookup
//!   counts exactly once.
//! * **Background revalidation.** [`Registry::sweep`] (driven by the
//!   server's `--sweep-ms` thread) walks resident entries, re-stamps
//!   fresh ones (keeping the [`Registry::peek`] window open so the
//!   zero-alloc fast path never falls back), and absorbs/rebuilds
//!   changed ones ahead of traffic (`cache_sweep_refreshes`).
//! * **Warm-tier GC.** With [`RegistryConfig::cache_disk_bytes`] set,
//!   persisted artifacts (one file per key) are garbage-collected
//!   oldest-first whenever a persist pushes the directory over budget,
//!   so never-again-requested keys cannot grow the cache dir forever.
//!
//! Freshness (`freshness.rs`), building and the one source scan
//! (`build.rs`) and the disk tier (`disk.rs`) live in their own
//! modules; this one keeps the shards, slots, LRU and the resolver.
//!
//! `docs/ARCHITECTURE.md` draws the full lifecycle state machine.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use qid_core::sketch::NonSeparationSketch;
use qid_core::stream::PairIngest;

use crate::artifact;
use crate::build;
use crate::disk;
use crate::freshness::{self, Freshness};
use crate::proto::{sketch_params, DatasetRef, LoadMode};

pub use crate::build::{Entry, COLUMN_SKETCH_K};
pub use crate::freshness::{SourceStamp, FINGERPRINT_PREFIX, MTIME_RACE_WINDOW_MS};

/// 64-bit FNV-1a parameters for [`CacheKey::fnv64`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The registry's exact cache identity. `eps` is keyed by bit pattern
/// (the wire carries the same `f64` both ways, so equal requests hash
/// equal), and the path is canonicalised when possible so `./a.csv` and
/// `a.csv` share an entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonicalised dataset path.
    pub path: String,
    /// `eps.to_bits()`.
    pub eps_bits: u64,
    /// Sampling seed.
    pub seed: u64,
}

impl CacheKey {
    /// Builds the key for a request's dataset reference.
    pub fn of(ds: &DatasetRef) -> CacheKey {
        let path = std::fs::canonicalize(&ds.path)
            .ok()
            .and_then(|p| p.to_str().map(str::to_string))
            .unwrap_or_else(|| ds.path.clone());
        CacheKey {
            path,
            eps_bits: ds.eps.to_bits(),
            seed: ds.seed,
        }
    }

    /// 64-bit FNV-1a over the full key — the persistence file stem.
    /// (Shard selection uses the std hasher via `Registry::shard`, not
    /// this.)
    pub fn fnv64(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for byte in self
            .path
            .as_bytes()
            .iter()
            .copied()
            .chain(self.eps_bits.to_le_bytes())
            .chain(self.seed.to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// The dataset reference this key resolves (its path canonical).
    fn dataset_ref(&self) -> DatasetRef {
        DatasetRef {
            path: self.path.clone(),
            eps: f64::from_bits(self.eps_bits),
            seed: self.seed,
        }
    }
}

/// Number of independent cache shards. More shards mean less read-lock
/// contention across distinct datasets.
const SHARDS: usize = 16;

/// One cache slot: the build cell plus the LRU stamp. The cell is
/// written exactly once; the stamp is bumped on every touch.
#[derive(Debug, Default)]
struct SlotInner {
    cell: OnceLock<Result<Arc<Entry>, String>>,
    last_used: AtomicU64,
    /// When this slot's entry last passed a source-stat freshness check,
    /// as milliseconds since the registry was created **plus one** (so
    /// `0` means "never validated"). [`Registry::peek`] serves without
    /// re-statting while this stamp is younger than
    /// [`RegistryConfig::revalidate_ms`].
    validated: AtomicU64,
    /// True once the stat alone is known to prove freshness for this
    /// slot's entry: either the stamp was never racy, or a fingerprint
    /// re-read passed *after* the mtime race window closed (any later
    /// rewrite must move the mtime). Until then, every hit on a racy
    /// stamp pays the prefix re-read — see [`Registry::find`].
    content_settled: std::sync::atomic::AtomicBool,
}

type Slot = Arc<SlotInner>;
type Shard = RwLock<HashMap<CacheKey, Slot>>;

/// How the registry is sized and where it persists.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// LRU memory budget in bytes over every entry's footprint (its
    /// [`Entry::stored_bytes`] plus its set cells); `None` disables eviction.
    pub cache_bytes: Option<u64>,
    /// Directory for the persistent warm tier (one checksummed binary
    /// artifact per key, plus the registry journal); `None` disables
    /// persistence.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the persistent warm tier; `None` disables disk
    /// GC. When a persist pushes the directory's artifact total over
    /// this, whole artifacts (one file per key) are removed
    /// oldest-first until it fits — so keys that are never requested
    /// again cannot grow the cache dir without bound.
    pub cache_disk_bytes: Option<u64>,
    /// How long (milliseconds) a freshness check stays valid for the
    /// allocation-free [`Registry::peek`] fast path. Within this window
    /// of the last source stat, `peek` serves the resident entry
    /// without re-statting the file; `0` (the default here) disables
    /// `peek` entirely, preserving strict stat-on-every-hit
    /// invalidation. [`Registry::get_or_load`] always stats regardless.
    pub revalidate_ms: u64,
    /// Observer for cache lifecycle events (build, restore, evict,
    /// stale rebuild, unload, purge); `None` disables the hook. A
    /// plain `fn` pointer rather than a closure so the config keeps
    /// deriving `Clone`/`Debug`; the server installs an NDJSON logger
    /// here behind `--log-json`.
    pub event_sink: Option<fn(RegistryEvent)>,
    /// Size budget for the registry's write-ahead journal
    /// (`registry.wal` under [`RegistryConfig::cache_dir`]): past this
    /// many bytes the journal is folded into `registry.snapshot` and
    /// truncated, bounding replay cost. `0` disables the journal (and
    /// with it warm restart recovery); the journal is also off when no
    /// cache dir is configured. See [`crate::wal`].
    pub wal_max_bytes: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            cache_bytes: None,
            cache_dir: None,
            cache_disk_bytes: None,
            revalidate_ms: 0,
            event_sink: None,
            wal_max_bytes: crate::wal::DEFAULT_WAL_MAX_BYTES,
        }
    }
}

/// A cache lifecycle event, delivered to
/// [`RegistryConfig::event_sink`] as it happens. `key` is the entry's
/// FNV-1a key hash ([`CacheKey::fnv64`]) — the same 16-hex-digit stem
/// the persistence tier uses, so log lines join against on-disk
/// artifacts and trace spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegistryEvent {
    /// A scan of the source produced a new entry or set an entry's rows.
    Built {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// The entry's resident footprint, bytes.
        bytes: u64,
    },
    /// A persisted artifact was restored from the cache dir (no scan).
    Restored {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// The restored entry's resident footprint, bytes.
        bytes: u64,
    },
    /// The LRU budget evicted a completed entry.
    Evicted {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// Bytes released by the eviction.
        bytes: u64,
    },
    /// A source-file change forced a rebuild of a resident entry.
    StaleRebuild {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
    },
    /// A grown source was absorbed incrementally: only the appended
    /// suffix was scanned, the resident entry's reservoir resumed.
    AppendUpdate {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// Suffix bytes absorbed (new length minus old length).
        bytes: u64,
    },
    /// The warm-tier byte budget removed a persisted key's artifacts
    /// (oldest first).
    DiskEvicted {
        /// FNV-1a hash of the removed artifacts' cache key stem.
        key: u64,
        /// Artifact bytes removed.
        bytes: u64,
    },
    /// A non-separation witness sketch was built and admitted for a
    /// resident entry (persisted as the pair section of the key's
    /// artifact).
    SketchBuilt {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
        /// The sketch's resident footprint, bytes.
        bytes: u64,
    },
    /// An explicit `unload` removed the entry (resident or persisted).
    Unloaded {
        /// FNV-1a hash of the entry's cache key.
        key: u64,
    },
    /// An `unload --all` purge completed.
    Purged {
        /// Resident entries dropped.
        entries: u64,
        /// Persisted artifact files removed.
        files: u64,
    },
}

/// A point-in-time view of the registry's lifecycle counters, consumed
/// by the `metrics` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Lookups answered from a resident entry (including waits on a
    /// concurrent build — the scan was still shared).
    pub hits: u64,
    /// Scans of the whole source (cold builds, stale rebuilds, rows
    /// scans, sketch builds, failed builds), paid by a lookup, the
    /// sweeper or a `sketch`. Each lookup counts exactly once, as a
    /// hit, a miss or a disk hit.
    pub misses: u64,
    /// Artifacts restored from [`RegistryConfig::cache_dir`] instead of
    /// a scan, by a lookup, the sweeper, startup re-admission or a
    /// `sketch`.
    pub disk_hits: u64,
    /// Entries evicted by the LRU budget.
    pub evictions: u64,
    /// Rebuilds forced by a source mtime/len change.
    pub stale_rebuilds: u64,
    /// Rows-only scans that set the rows of an entry built or
    /// restored without them, for a memory-mode lookup (each is also a
    /// miss — the scan reads the whole stamped source).
    pub upgrades: u64,
    /// Grown sources absorbed incrementally (suffix-only scans; these
    /// are *not* stale rebuilds and not misses).
    pub append_updates: u64,
    /// Stale or appended entries the background sweeper refreshed
    /// ahead of traffic (entries that merely re-stamped fresh are not
    /// counted).
    pub sweep_refreshes: u64,
    /// Current resident total: every entry's [`Entry::stored_bytes`]
    /// plus its built non-separation sketch and materialised rows, if
    /// any.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub datasets: usize,
    /// Prior lives of this registry's cache dir: how many times a
    /// journal-armed registry has opened it before this one. `0` on a
    /// first boot or when the journal is disabled.
    pub restarts: u64,
    /// Journal records replayed at startup to recover this registry's
    /// counters and resident set.
    pub wal_replayed_events: u64,
}

/// The shared cache. All methods take `&self`; the registry is meant to
/// live in an `Arc` shared by every worker thread.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Shard>,
    config: RegistryConfig,
    /// Epoch for the per-slot `validated` stamps (monotonic, so stamps
    /// are immune to wall-clock jumps).
    born: Instant,
    clock: AtomicU64,
    /// The cumulative lifecycle counters, in an `Arc` because the
    /// journal's flusher thread journals them independently of the
    /// registry's lifetime (see [`crate::wal`]).
    counters: Arc<crate::wal::LifecycleCounters>,
    /// The write-ahead journal, when persistence is configured and
    /// [`RegistryConfig::wal_max_bytes`] is non-zero.
    wal: Option<Arc<crate::wal::Wal>>,
    /// Prior lives recovered from the journal (see
    /// [`RegistrySnapshot::restarts`]).
    restarts: u64,
    /// Journal records replayed at startup.
    wal_replayed_events: u64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_config(RegistryConfig::default())
    }
}

impl Drop for Registry {
    /// A dropped registry is a **clean** shutdown: the journal writes
    /// the clean-shutdown record with the final counters, syncs, and
    /// joins its flusher thread. A killed process never
    /// runs this — the record's absence is exactly the crash evidence
    /// the next boot's recovery keys off.
    fn drop(&mut self) {
        if let Some(wal) = &self.wal {
            wal.close(&self.counters);
        }
    }
}

/// What one resolution cost its caller — the single input to the hit,
/// miss and disk-hit counters (see [`Registry::count`]). Ordered by
/// cost, so a resolution that takes several steps reports its dearest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Paid {
    /// Served a resident entry, or waited on another caller's fill.
    Shared,
    /// Absorbed an appended suffix into the resident entry.
    Absorbed,
    /// Restored the key's artifact from the cache dir.
    Restored,
    /// Scanned the whole source.
    Scanned,
}

/// Who is resolving a key. It decides how an empty slot is filled and
/// whether the resolution is a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Want {
    /// A lookup in this mode: a memory-mode lookup also sets the
    /// entry's rows.
    Lookup(LoadMode),
    /// The background sweeper: refreshes changed resident entries and
    /// never creates a slot or waits on one.
    Sweep,
    /// Startup re-admission: restores an absent key, never scans.
    Readmit,
}

impl Want {
    /// How this caller fills an empty slot.
    fn fill(self) -> Fill {
        match self {
            Want::Readmit => Fill::Restore,
            Want::Lookup(mode) => Fill::Scan(mode),
            Want::Sweep => Fill::Scan(LoadMode::Stream),
        }
    }
}

/// What one look at a key's slot found.
enum Found {
    /// No slot.
    Absent,
    /// A fill in flight, or a failed one about to be dropped.
    Pending(Slot),
    /// A healthy entry whose source passed its freshness check.
    Fresh(Arc<Entry>),
    /// The source grew by a pure append the entry can absorb.
    Appended(Slot, Arc<Entry>, SourceStamp),
    /// The source changed in a way only a rebuild covers.
    Stale(Slot),
}

/// How a slot is filled.
enum Fill {
    /// Restore the key's artifact; never scan.
    Restore,
    /// Restore the key's artifact when it is usable, else scan the
    /// source in this mode.
    Scan(LoadMode),
    /// Absorb the appended suffix into the old entry, falling back to a
    /// full stream scan if that fails.
    Absorb(Arc<Entry>, SourceStamp),
}

impl Registry {
    /// Creates an empty registry with the default configuration
    /// (no budget, no persistence).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with an explicit lifecycle
    /// configuration.
    ///
    /// When persistence is configured this is also **recovery**: the
    /// write-ahead journal under the cache dir is replayed first
    /// (see [`crate::wal`]) — cumulative counters resume, the
    /// journal's verdict on the previous life's shutdown decides how
    /// aggressively orphaned `*.tmp` files are swept (crash evidence
    /// ⇒ immediately; clean or unknown ⇒ only past the age gate), and
    /// the previous resident set is eagerly re-admitted from the warm
    /// tier in preserved LRU order, so replayed keys serve their first
    /// post-restart request without a build miss.
    pub fn with_config(config: RegistryConfig) -> Self {
        // The journal's replay verdict gates the tmp sweep, so open it
        // before touching anything else in the dir.
        let wal = match (&config.cache_dir, config.wal_max_bytes) {
            (Some(dir), max) if max > 0 => crate::wal::Wal::open(dir, max).ok().map(Arc::new),
            _ => None,
        };
        let crashed = wal
            .as_ref()
            .map(|w| w.recovery().had_journal && !w.recovery().clean_shutdown)
            .unwrap_or(false);
        if let Some(dir) = &config.cache_dir {
            disk::sweep_tmp_files(dir, crashed);
        }
        let counters = Arc::new(crate::wal::LifecycleCounters::default());
        let (restarts, wal_replayed_events, resident) = match &wal {
            Some(w) => {
                let r = w.recovery();
                counters.seed(&r.counters);
                (r.restarts, r.events, r.resident.clone())
            }
            None => (0, 0, Vec::new()),
        };
        let registry = Registry {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            config,
            born: Instant::now(),
            clock: AtomicU64::new(0),
            counters: Arc::clone(&counters),
            wal: wal.clone(),
            restarts,
            wal_replayed_events,
        };
        // Arm before re-admitting so the restores of this life are
        // journaled like any other.
        if let Some(w) = &wal {
            w.arm(counters);
        }
        // Re-admit the previous life's resident set, least recently
        // touched first so the LRU order survives the restart.
        // Restore-only: a key whose artifact is gone, stale or foreign
        // stays out (its next request rebuilds normally) — recovery
        // never pays cold source scans for state it merely remembers.
        if let Some(dir) = registry.config.cache_dir.clone() {
            for key in resident.iter().filter_map(|&stem| disk::key_of(&dir, stem)) {
                let _ = registry.resolve(&key, &key.dataset_ref(), Want::Readmit);
            }
        }
        registry
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Delivers a lifecycle event to the write-ahead journal and the
    /// configured sink. No event is emitted on the served-hit fast
    /// path, so neither observer can cost the zero-alloc window
    /// anything.
    fn emit(&self, event: RegistryEvent) {
        if let Some(wal) = &self.wal {
            wal.record(event);
        }
        if let Some(sink) = self.config.event_sink {
            sink(event);
        }
    }

    fn touch(&self, slot: &Slot) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// Milliseconds since the registry was created, offset by one so a
    /// zero `validated` stamp always means "never".
    fn stamp_now(&self) -> u64 {
        (self.born.elapsed().as_millis() as u64).saturating_add(1)
    }

    /// Records that `slot`'s entry just passed (or just finished) a
    /// source-freshness check, opening the [`Registry::peek`] window.
    fn stamp_validated(&self, slot: &Slot) {
        slot.validated.store(self.stamp_now(), Ordering::Relaxed);
    }

    /// The configured [`RegistryConfig::revalidate_ms`] window; `0`
    /// means [`Registry::peek`] (and the request fast path built on
    /// it) is disabled.
    pub fn revalidate_window_ms(&self) -> u64 {
        self.config.revalidate_ms
    }

    /// The allocation-free read path: returns the resident entry for
    /// `key` iff it is built, healthy, and was freshness-checked within
    /// the last [`RegistryConfig::revalidate_ms`] milliseconds. Counted
    /// as a cache hit. Returns `None` — never builds, restores, or
    /// stats — in every other case; callers fall back to
    /// [`Registry::get_or_load`], whose stat re-opens the window.
    ///
    /// With `revalidate_ms == 0` (the default) this always returns
    /// `None`: strict stat-on-every-hit invalidation.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Entry>> {
        self.peek_with(key, |entry| Some(Arc::clone(entry)))
    }

    /// [`Registry::peek`] for a caller that may still turn the entry
    /// down: `serve` runs on the fresh resident entry, and the lookup
    /// counts as a hit (and touches the LRU clock) only when it returns
    /// `Some`. A declined peek leaves no trace, so the general path
    /// that answers the request instead counts its one lookup.
    pub(crate) fn peek_with<R>(
        &self,
        key: &CacheKey,
        serve: impl FnOnce(&Arc<Entry>) -> Option<R>,
    ) -> Option<R> {
        let window = self.config.revalidate_ms;
        if window == 0 {
            return None;
        }
        let slot = self
            .shard(key)
            .read()
            .expect("shard lock")
            .get(key)
            .map(Arc::clone)?;
        let stamp = slot.validated.load(Ordering::Relaxed);
        if stamp == 0 || self.stamp_now().saturating_sub(stamp) >= window {
            return None;
        }
        let Some(Ok(entry)) = slot.cell.get() else {
            return None;
        };
        let served = serve(entry)?;
        self.touch(&slot);
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(served)
    }

    /// Returns the cached entry for `ds`, building it on first use.
    /// With [`LoadMode::Memory`] the entry's rows are set too
    /// ([`Entry::dataset`]): by the cold scan itself, or by one
    /// rows-only scan of the entry's stamped bytes when the entry was
    /// built, restored or absorbed without them (`cache_upgrades`).
    /// Concurrent callers collapse onto one scan either way.
    ///
    /// The boolean is `true` iff the lookup was answered without paying
    /// a source scan or restore *by this caller*: a resident entry, a
    /// wait on a concurrent build, or a suffix-only append absorb. It is
    /// `false` for cold builds, disk restores, stale rebuilds and rows
    /// scans. Failed builds are evicted so a later request can retry
    /// (e.g. after the file appears).
    pub fn get_or_load(
        &self,
        ds: &DatasetRef,
        mode: LoadMode,
    ) -> (Result<Arc<Entry>, String>, bool) {
        let (result, paid) = self.resolve(&CacheKey::of(ds), ds, Want::Lookup(mode));
        (result, paid <= Paid::Absorbed)
    }

    /// Returns the entry's Theorem 2 [`NonSeparationSketch`], building
    /// it on first use (with the protocol-fixed
    /// [`crate::proto::sketch_params`] and the entry's
    /// seed).
    ///
    /// Concurrent callers collapse onto one build via the entry's
    /// `OnceLock`, exactly like cold sample builds. The build source
    /// is, in order of preference: the persisted pair sample from the
    /// disk tier (`cache_disk_hits`), the resident materialised
    /// dataset (no I/O at all), or a fresh one-pass scan of the source
    /// CSV (`cache_misses`). All three produce the *same* sketch —
    /// the streaming builder is the single definition, and the
    /// materialised dataset preserves source row order — so answers
    /// never depend on how the entry happens to be resident.
    ///
    /// A failed build is cached on the entry (the slot is written
    /// once); the error clears when the entry itself is rebuilt
    /// (stale source) or dropped (`unload`).
    pub fn sketch_for(
        &self,
        ds: &DatasetRef,
        entry: &Arc<Entry>,
    ) -> Result<Arc<NonSeparationSketch>, String> {
        let key = CacheKey::of(ds);
        let mut set = false;
        let result = match entry.sketch_cell.get_or_init(|| {
            set = true;
            let dir = self.config.cache_dir.as_deref();
            if let Some(sk) =
                dir.and_then(|dir| disk::restore_sketch(dir, &key, entry, sketch_params()))
            {
                self.count(Paid::Restored, false);
                return Ok(self.admit_sketch(entry, sk, &key));
            }
            if entry.dataset().is_none() {
                self.count(Paid::Scanned, false);
            }
            let built = build::build_sketch(&key.path, entry, ds.seed)?;
            self.persist(&key, entry, Some(&built));
            Ok(self.admit_sketch(entry, built, &key))
        }) {
            Ok((sketch, _)) => Ok(Arc::clone(sketch)),
            Err(e) => Err(e.clone()),
        };
        if set && result.is_ok() {
            self.enforce_budget(&key);
        }
        result
    }

    /// Weighs a freshly built (or restored) sketch once and wraps it
    /// for the cell. The weight includes the paused pair-sample tuples
    /// retained alongside the sketch (set on `entry.pair_ingest` before
    /// this call), so LRU eviction sees the full cost of keeping the
    /// sketch append-resumable.
    fn admit_sketch(
        &self,
        entry: &Entry,
        sketch: NonSeparationSketch,
        key: &CacheKey,
    ) -> (Arc<NonSeparationSketch>, usize) {
        let bytes = sketch.stored_bytes()
            + entry
                .pair_ingest
                .get()
                .map_or(0, PairIngest::retained_bytes);
        self.emit(RegistryEvent::SketchBuilt {
            key: key.fnv64(),
            bytes: bytes as u64,
        });
        (Arc::new(sketch), bytes)
    }

    /// Drops the resident entry and its persisted artifact, if any.
    /// Returns `true` iff something was removed. An entry mid-build is
    /// left alone (it will be admitted normally; unload it again once
    /// it is resident).
    pub fn unload(&self, ds: &DatasetRef) -> bool {
        let key = CacheKey::of(ds);
        let removed_resident = {
            let mut map = self.shard(&key).write().expect("shard lock");
            match map.get(&key) {
                Some(slot) if slot.cell.get().is_some() => {
                    map.remove(&key);
                    true
                }
                _ => false,
            }
        };
        let removed_disk = self
            .config
            .cache_dir
            .as_ref()
            .is_some_and(|dir| std::fs::remove_file(artifact::path(dir, key.fnv64())).is_ok());
        if removed_resident || removed_disk {
            self.emit(RegistryEvent::Unloaded { key: key.fnv64() });
        }
        removed_resident || removed_disk
    }

    /// Purges the whole cache (`unload --all`): drops every *completed*
    /// resident entry — a slot mid-build is left alone, matching
    /// [`Registry::unload`] — and removes every persisted cache
    /// artifact in the cache dir, whether or not a resident entry
    /// references it (this is the GC path for keys that will never be
    /// requested again). Returns dropped entries + removed artifacts.
    pub fn unload_all(&self) -> u64 {
        let mut entries = 0u64;
        for shard in &self.shards {
            let mut map = shard.write().expect("shard lock");
            let before = map.len();
            map.retain(|_, slot| slot.cell.get().is_none());
            entries += (before - map.len()) as u64;
        }
        let files = self.config.cache_dir.as_deref().map_or(0, |dir| {
            artifact::list(dir)
                .into_iter()
                .filter(|(_, path, _)| std::fs::remove_file(path).is_ok())
                .count() as u64
        });
        self.emit(RegistryEvent::Purged { entries, files });
        entries + files
    }

    /// The resident total: every resident entry's footprint — its
    /// [`Entry::stored_bytes`] plus its set cells.
    fn resident_bytes(&self) -> u64 {
        let mut total = 0;
        for shard in &self.shards {
            for slot in shard.read().expect("shard lock").values() {
                if let Some(Ok(entry)) = slot.cell.get() {
                    total += entry.footprint();
                }
            }
        }
        total
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock").len())
            .sum()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from cache so far.
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Whole-source scans so far, by lookups, the sweeper and sketch
    /// builds (see [`RegistrySnapshot::misses`]).
    pub fn misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Artifact restores so far (see [`RegistrySnapshot::disk_hits`]).
    pub fn disk_hits(&self) -> u64 {
        self.counters.disk_hits.load(Ordering::Relaxed)
    }

    /// Grown sources absorbed incrementally so far.
    pub fn append_updates(&self) -> u64 {
        self.counters.append_updates.load(Ordering::Relaxed)
    }

    /// Entries the background sweeper refreshed so far.
    pub fn sweep_refreshes(&self) -> u64 {
        self.counters.sweep_refreshes.load(Ordering::Relaxed)
    }

    /// All lifecycle counters at once, for the `metrics` command.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            stale_rebuilds: self.counters.stale_rebuilds.load(Ordering::Relaxed),
            upgrades: self.counters.upgrades.load(Ordering::Relaxed),
            append_updates: self.counters.append_updates.load(Ordering::Relaxed),
            sweep_refreshes: self.counters.sweep_refreshes.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes(),
            datasets: self.len(),
            restarts: self.restarts,
            wal_replayed_events: self.wal_replayed_events,
        }
    }

    /// Prior lives of this registry's cache dir, per the journal. `0`
    /// on a first boot or with the journal disabled.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Journal records replayed at startup (see [`crate::wal`]).
    pub fn wal_replayed_events(&self) -> u64 {
        self.wal_replayed_events
    }

    /// One background-revalidation pass: resolves every resident key
    /// *ahead of traffic* — fresh entries get their [`Registry::peek`]
    /// window re-opened (so the zero-allocation fast path keeps serving
    /// between sweeps without ever falling back to a stat), appended
    /// ones are absorbed, stale ones rebuilt. Returns the number of
    /// entries this pass actually refreshed (absorbed or rebuilt).
    ///
    /// Safe to race with foreground lookups: both go through the same
    /// resolver, so a sweeper and a foreground caller landing on the
    /// same changed entry share one scan and count one miss.
    pub fn sweep(&self) -> u64 {
        let mut refreshed = 0u64;
        for shard in &self.shards {
            let keys: Vec<CacheKey> = shard.read().expect("shard lock").keys().cloned().collect();
            for key in keys {
                let (result, paid) = self.resolve(&key, &key.dataset_ref(), Want::Sweep);
                if result.is_ok() && paid != Paid::Shared {
                    refreshed += 1;
                }
            }
        }
        if refreshed > 0 {
            self.counters
                .sweep_refreshes
                .fetch_add(refreshed, Ordering::Relaxed);
        }
        refreshed
    }

    // ------------------------------------------------------ resolver

    /// The one lookup path. Looks at `key`'s slot once, acts on what it
    /// found — share it, wait on it, or swap in a fresh slot and fill
    /// that — and looks again only when a racer replaced the slot
    /// first. A memory-mode lookup then sets the entry's rows. Counts
    /// the resolution exactly once, from the dearest step this caller
    /// paid. A sweep of a key it does not own, or a re-admission of a
    /// key already present, does nothing: an empty error, paid nothing.
    fn resolve(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        want: Want,
    ) -> (Result<Arc<Entry>, String>, Paid) {
        let (mut result, mut paid) = loop {
            let (slot, fill) = match self.find(key, want) {
                Found::Fresh(entry) => break (Ok(entry), Paid::Shared),
                Found::Absent | Found::Pending(_) if want == Want::Sweep => {
                    break (Err(String::new()), Paid::Shared)
                }
                Found::Absent => (self.insert_or_adopt(key), want.fill()),
                _ if want == Want::Readmit => break (Err(String::new()), Paid::Shared),
                Found::Pending(slot) => (slot, want.fill()),
                Found::Appended(seen, old, new) => match self.swap_if_current(key, &seen) {
                    Some(slot) => (slot, Fill::Absorb(old, new)),
                    None => continue,
                },
                Found::Stale(seen) => match self.swap_if_current(key, &seen) {
                    Some(slot) => {
                        self.counters.stale_rebuilds.fetch_add(1, Ordering::Relaxed);
                        self.emit(RegistryEvent::StaleRebuild { key: key.fnv64() });
                        (slot, want.fill())
                    }
                    None => continue,
                },
            };
            break self.fill(key, ds, &slot, fill);
        };
        if let (Want::Lookup(LoadMode::Memory), Ok(entry)) = (want, &result) {
            let (rows, step) = self.materialise(key, entry);
            paid = paid.max(step);
            if let Err(e) = rows {
                result = Err(e);
            }
        }
        self.count(paid, matches!(want, Want::Lookup(_)));
        (result, paid)
    }

    /// Sets `entry`'s rows cell by one rows-only scan of its stamped
    /// bytes, unless it is set already — or waits on the caller whose
    /// scan is setting it. The scan is an upgrade: it counts in
    /// `cache_upgrades` and reports the entry's new footprint as a
    /// [`RegistryEvent::Built`]. Returns the cell's outcome and what this
    /// caller paid.
    fn materialise(&self, key: &CacheKey, entry: &Entry) -> (Result<(), String>, Paid) {
        let mut paid = Paid::Shared;
        let result = entry.dataset_cell.get_or_init(|| {
            paid = Paid::Scanned;
            self.counters.upgrades.fetch_add(1, Ordering::Relaxed);
            build::materialise(&key.path, entry)
        });
        if paid == Paid::Scanned && result.is_ok() {
            let bytes = entry.footprint();
            self.emit(RegistryEvent::Built {
                key: key.fnv64(),
                bytes,
            });
            self.enforce_budget(key);
        }
        (result.as_ref().map(|_| ()).map_err(Clone::clone), paid)
    }

    /// Looks at `key`'s slot and classifies it once for `want`. Lookups
    /// touch the slot (LRU). A healthy entry is checked against its
    /// source under the racy-stat discipline: the content re-read runs
    /// only while the stamp is racy ([`SourceStamp::is_racy`]) and the
    /// slot has not settled; once a re-read passes after the race
    /// window closes, the slot records that its stat is trustworthy and
    /// warm hits stop reading the file. A fresh entry re-opens the
    /// [`Registry::peek`] window.
    fn find(&self, key: &CacheKey, want: Want) -> Found {
        let resident = self
            .shard(key)
            .read()
            .expect("shard lock")
            .get(key)
            .map(Arc::clone);
        let Some(slot) = resident else {
            return Found::Absent;
        };
        if want != Want::Sweep {
            self.touch(&slot);
        }
        let Some(Ok(entry)) = slot.cell.get() else {
            return Found::Pending(slot);
        };
        let entry = Arc::clone(entry);
        let verify = entry.source.is_some_and(|s| s.is_racy())
            && !slot.content_settled.load(Ordering::Relaxed);
        let (verdict, settled) = freshness::classify(entry.source, &key.path, verify);
        if settled {
            slot.content_settled.store(true, Ordering::Relaxed);
        }
        match verdict {
            Freshness::Fresh => {
                self.stamp_validated(&slot);
                Found::Fresh(entry)
            }
            Freshness::Appended { new } if entry.append_capable() => {
                Found::Appended(slot, entry, new)
            }
            _ => Found::Stale(slot),
        }
    }

    /// The one place a resolution is counted: a lookup that paid no
    /// more than a suffix absorb is a hit; a restore is a disk hit and
    /// a full scan a miss, whoever paid it.
    fn count(&self, paid: Paid, lookup: bool) {
        let counter = match paid {
            Paid::Scanned => &self.counters.misses,
            Paid::Restored => &self.counters.disk_hits,
            Paid::Shared | Paid::Absorbed if lookup => &self.counters.hits,
            Paid::Shared | Paid::Absorbed => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// `key`'s slot, inserting an empty one when there is none.
    fn insert_or_adopt(&self, key: &CacheKey) -> Slot {
        let slot = Arc::clone(
            self.shard(key)
                .write()
                .expect("shard lock")
                .entry(key.clone())
                .or_default(),
        );
        self.touch(&slot);
        slot
    }

    /// Replaces `seen` with a fresh empty slot iff it is still `key`'s
    /// slot. `None` means a racer replaced (or removed) it first; the
    /// caller looks again.
    fn swap_if_current(&self, key: &CacheKey, seen: &Slot) -> Option<Slot> {
        let mut map = self.shard(key).write().expect("shard lock");
        if !map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, seen)) {
            return None;
        }
        let fresh: Slot = Arc::new(SlotInner::default());
        self.touch(&fresh);
        map.insert(key.clone(), Arc::clone(&fresh));
        Some(fresh)
    }

    /// Runs the slot's one-time fill — or waits on whichever caller's
    /// fill got there first — then drops a failed slot so a later
    /// request retries, or opens the peek window (the fill captured a
    /// fresh stamp) and, when this caller's fill ran, enforces the LRU
    /// budget. Returns what this caller paid: [`Paid::Shared`] unless
    /// its own fill ran.
    fn fill(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        slot: &Slot,
        fill: Fill,
    ) -> (Result<Arc<Entry>, String>, Paid) {
        let mut paid = Paid::Shared;
        let result = slot
            .cell
            .get_or_init(|| {
                let (result, how) = self.run_fill(key, ds, fill);
                paid = how;
                result
            })
            .clone();
        if result.is_err() {
            let mut map = self.shard(key).write().expect("shard lock");
            if map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, slot)) {
                map.remove(key);
            }
        } else {
            self.stamp_validated(slot);
            if paid != Paid::Shared {
                self.enforce_budget(key);
            }
        }
        (result, paid)
    }

    /// Absorbs, restores or scans; runs only inside a slot's one-time
    /// fill.
    fn run_fill(
        &self,
        key: &CacheKey,
        ds: &DatasetRef,
        fill: Fill,
    ) -> (Result<Arc<Entry>, String>, Paid) {
        let stem = key.fnv64();
        let restore = || {
            let entry = disk::restore(self.config.cache_dir.as_deref()?, key)?;
            let bytes = entry.footprint();
            let event = RegistryEvent::Restored { key: stem, bytes };
            Some(self.admit(key, entry, None, event))
        };
        let mode = match fill {
            Fill::Absorb(old, new) => match build::absorb(&key.path, &old, new, ds.eps) {
                Ok((entry, sketch)) => {
                    self.counters.append_updates.fetch_add(1, Ordering::Relaxed);
                    let bytes = new.len - old.source.map_or(0, |s| s.len);
                    let event = RegistryEvent::AppendUpdate { key: stem, bytes };
                    return (Ok(self.admit(key, entry, sketch, event)), Paid::Absorbed);
                }
                // Unreadable suffix or inconsistent state: pay the full
                // scan instead.
                Err(_) => LoadMode::Stream,
            },
            Fill::Restore => {
                return match restore() {
                    Some(entry) => (Ok(entry), Paid::Restored),
                    None => (Err("no usable artifact".to_string()), Paid::Shared),
                };
            }
            Fill::Scan(mode) => match restore() {
                Some(entry) => return (Ok(entry), Paid::Restored),
                None => mode,
            },
        };
        let source = SourceStamp::capture(&key.path);
        let result = build::build_entry(ds, mode, source).map(|entry| {
            let bytes = entry.footprint();
            self.admit(key, entry, None, RegistryEvent::Built { key: stem, bytes })
        });
        (result, Paid::Scanned)
    }

    /// Books a filled entry: an absorb's advanced sketch, its lifecycle
    /// event and — for anything read from the source — its artifact, so
    /// a restart resumes from it rather than re-scanning. The artifact
    /// holds the sample and checkpoint, never the rows.
    fn admit(
        &self,
        key: &CacheKey,
        entry: Entry,
        sketch: Option<NonSeparationSketch>,
        event: RegistryEvent,
    ) -> Arc<Entry> {
        let entry = Arc::new(entry);
        if let Some(sketch) = sketch {
            let _ = entry
                .sketch_cell
                .set(Ok(self.admit_sketch(&entry, sketch, key)));
        }
        self.emit(event);
        if !matches!(event, RegistryEvent::Restored { .. }) {
            self.persist(key, &entry, entry.sketch().as_deref());
        }
        entry
    }

    /// Evicts least-recently-used completed entries until the resident
    /// total fits the budget. `protect` (the entry being returned to
    /// the caller) is never evicted. Persisted files are kept: eviction
    /// demotes an entry to the disk tier, it does not forget it.
    fn enforce_budget(&self, protect: &CacheKey) {
        let Some(budget) = self.config.cache_bytes else {
            return;
        };
        let mut total = self.resident_bytes();
        if total <= budget {
            return;
        }
        // Snapshot (key, stamp) of every evictable entry, oldest first.
        // The stamp race with concurrent touches makes this an
        // approximate LRU, which is all a cache needs.
        let mut candidates: Vec<(CacheKey, u64)> = Vec::new();
        for shard in &self.shards {
            let map = shard.read().expect("shard lock");
            for (key, slot) in map.iter() {
                if key != protect && matches!(slot.cell.get(), Some(Ok(_))) {
                    candidates.push((key.clone(), slot.last_used.load(Ordering::Relaxed)));
                }
            }
        }
        candidates.sort_by_key(|&(_, stamp)| stamp);
        for (key, _) in candidates {
            if total <= budget {
                break;
            }
            let mut map = self.shard(&key).write().expect("shard lock");
            let Some(Ok(entry)) = map.get(&key).and_then(|slot| slot.cell.get()) else {
                continue;
            };
            let bytes = entry.footprint();
            map.remove(&key);
            total = total.saturating_sub(bytes);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            self.emit(RegistryEvent::Evicted {
                key: key.fnv64(),
                bytes,
            });
        }
    }

    /// Publishes `entry` as `key`'s artifact, then garbage-collects the
    /// disk tier down to [`RegistryConfig::cache_disk_bytes`] with
    /// `key` protected (see [`disk::persist`] and
    /// [`disk::collect_garbage`]). Best-effort, like persistence itself.
    fn persist(&self, key: &CacheKey, entry: &Entry, sketch: Option<&NonSeparationSketch>) {
        let Some(dir) = &self.config.cache_dir else {
            return;
        };
        disk::persist(dir, key, entry, sketch);
        let Some(budget) = self.config.cache_disk_bytes else {
            return;
        };
        let access = || {
            self.wal
                .as_ref()
                .map(|w| w.last_access())
                .unwrap_or_default()
        };
        for (stem, bytes) in disk::collect_garbage(dir, budget, key.fnv64(), access) {
            self.emit(RegistryEvent::DiskEvicted { key: stem, bytes });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{is_registry_tmp, TMP_SWEEP_MIN_AGE};
    use qid_core::filter::SeparationFilter;
    use qid_dataset::{AttrId, Dataset, Value};
    use std::io::Write as _;
    use std::path::Path;

    impl Registry {
        /// Tears the journal down the way a kill -9 would — no shutdown
        /// record — so tests can simulate a crash without killing the
        /// test process.
        fn crash_for_test(&self) {
            if let Some(wal) = &self.wal {
                wal.abort_for_test();
            }
        }
    }

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qid-registry-tests-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_fixture(path: &Path, rows: usize, salt: u64) {
        let mut f = std::fs::File::create(path).unwrap();
        writeln!(f, "id,parity").unwrap();
        for i in 0..rows {
            writeln!(f, "{},{}", i as u64 + salt * 1_000_000, i % 2).unwrap();
        }
    }

    fn fixture_csv(name: &str, rows: usize) -> String {
        let dir = unique_dir("csv");
        let path = dir.join(name);
        write_fixture(&path, rows, 0);
        path.to_str().unwrap().to_string()
    }

    fn dsref(path: &str) -> DatasetRef {
        DatasetRef {
            path: path.into(),
            eps: 0.01,
            seed: 7,
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let path = fixture_csv("hit.csv", 300);
        let reg = Registry::new();
        let (first, hit1) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        let (second, hit2) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first.unwrap(), &second.unwrap()));
        assert_eq!(reg.hits(), 1);
        assert_eq!(reg.misses(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn unload_all_purges_resident_and_persisted() {
        let dir = unique_dir("unload-all");
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        });
        let path_a = fixture_csv("purge-a.csv", 300);
        let path_b = fixture_csv("purge-b.csv", 400);
        reg.get_or_load(&dsref(&path_a), LoadMode::Memory)
            .0
            .unwrap();
        reg.get_or_load(&dsref(&path_b), LoadMode::Memory)
            .0
            .unwrap();
        // A foreign file in a shared cache dir must survive the purge.
        let foreign = dir.join("notes.txt");
        std::fs::write(&foreign, "keep me").unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.snapshot().resident_bytes > 0);

        let removed = reg.unload_all();
        // 2 resident entries + 1 persisted artifact each.
        assert_eq!(removed, 4);
        assert!(reg.is_empty());
        assert_eq!(reg.snapshot().resident_bytes, 0);
        assert!(foreign.exists(), "purge must not touch foreign files");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|d| d.file_name().to_str().and_then(artifact::stem).is_some())
            .collect();
        assert!(leftovers.is_empty(), "artifacts left behind: {leftovers:?}");

        // Idempotent: a second purge finds nothing.
        assert_eq!(reg.unload_all(), 0);
        // Purged keys rebuild cleanly on the next request.
        let (entry, hit) = reg.get_or_load(&dsref(&path_a), LoadMode::Memory);
        assert!(entry.is_ok());
        assert!(!hit);
    }

    #[test]
    fn cache_artifact_names_are_recognised() {
        assert_eq!(
            artifact::stem("00c0ffee00c0ffee"),
            Some(0x00c0_ffee_00c0_ffee)
        );
        assert_eq!(
            artifact::stem("0123456789abcdef"),
            Some(0x0123_4567_89ab_cdef)
        );
        assert_eq!(artifact::stem("0123456789abcdef.123-4.tmp"), None);
        assert_eq!(artifact::stem("0123456789abcdef.meta.json"), None);
        assert_eq!(artifact::stem("notes.txt"), None);
        assert_eq!(artifact::stem("0123456789abcdeg"), None);
        assert!(is_registry_tmp("0123456789abcdef.123-4.tmp"));
        assert!(is_registry_tmp("registry.snapshot.123.tmp"));
        assert!(!is_registry_tmp("notes.tmp"));
        assert!(!is_registry_tmp("deadbeef.sample.123-0.tmp"));
        assert!(!is_registry_tmp("0123456789abcdef"));
    }

    #[test]
    fn event_sink_sees_the_entry_lifecycle() {
        static EVENTS: AtomicU64 = AtomicU64::new(0);
        fn count(event: RegistryEvent) {
            let bit = match event {
                RegistryEvent::Built { .. } => 1,
                RegistryEvent::Unloaded { .. } => 1 << 1,
                RegistryEvent::Purged { .. } => 1 << 2,
                _ => 1 << 3,
            };
            EVENTS.fetch_or(bit, Ordering::Relaxed);
        }
        let reg = Registry::with_config(RegistryConfig {
            event_sink: Some(count),
            ..RegistryConfig::default()
        });
        let path = fixture_csv("events.csv", 300);
        reg.get_or_load(&dsref(&path), LoadMode::Memory).0.unwrap();
        assert!(reg.unload(&dsref(&path)));
        reg.get_or_load(&dsref(&path), LoadMode::Memory).0.unwrap();
        reg.unload_all();
        let seen = EVENTS.load(Ordering::Relaxed);
        assert_eq!(seen & 1, 1, "build event");
        assert_eq!(seen & (1 << 1), 1 << 1, "unload event");
        assert_eq!(seen & (1 << 2), 1 << 2, "purge event");
    }

    #[test]
    fn peek_serves_within_the_revalidation_window() {
        let path = fixture_csv("peek.csv", 300);
        let reg = Registry::with_config(RegistryConfig {
            revalidate_ms: 60_000,
            ..RegistryConfig::default()
        });
        let ds = dsref(&path);
        let key = CacheKey::of(&ds);
        assert!(reg.peek(&key).is_none(), "nothing resident yet");
        let (built, _) = reg.get_or_load(&ds, LoadMode::Memory);
        let built = built.unwrap();
        let peeked = reg.peek(&key).expect("fresh build opens the window");
        assert!(Arc::ptr_eq(&built, &peeked));
        assert_eq!(reg.hits(), 1, "peek counts as a cache hit");
        // An unknown key stays a clean miss.
        let mut other = ds.clone();
        other.seed = 99;
        assert!(reg.peek(&CacheKey::of(&other)).is_none());
    }

    #[test]
    fn peek_disabled_by_default_and_expires() {
        let path = fixture_csv("peek-off.csv", 300);
        let ds = dsref(&path);
        let key = CacheKey::of(&ds);

        // Default config: window is 0, peek never serves.
        let strict = Registry::new();
        strict.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        assert!(strict.peek(&key).is_none(), "revalidate_ms=0 disables peek");

        // A short window expires, and a general-path hit (which
        // re-stats the source) re-opens it.
        let reg = Registry::with_config(RegistryConfig {
            revalidate_ms: 200,
            ..RegistryConfig::default()
        });
        reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        std::thread::sleep(std::time::Duration::from_millis(250));
        assert!(reg.peek(&key).is_none(), "stale stamp closes the window");
        reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        assert!(reg.peek(&key).is_some());
    }

    #[test]
    fn different_seed_is_a_different_entry() {
        let path = fixture_csv("seeds.csv", 300);
        let reg = Registry::new();
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        let mut other = dsref(&path);
        other.seed = 8;
        let (_, hit) = reg.get_or_load(&other, LoadMode::Memory);
        assert!(!hit);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn stream_mode_keeps_only_the_sample() {
        let path = fixture_csv("stream.csv", 500);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let entry = entry.unwrap();
        assert!(entry.dataset().is_none());
        assert_eq!(entry.rows, 500);
        assert_eq!(entry.attrs, 2);
        // m=2, eps=0.01 → 20 sampled tuples.
        assert_eq!(entry.filter.sample().n_rows(), 20);
        assert!(entry.stored_bytes > 0);
        assert_eq!(reg.snapshot().resident_bytes, entry.stored_bytes as u64);
    }

    #[test]
    fn failed_builds_are_evicted_and_retryable() {
        let reg = Registry::new();
        let missing = dsref("/definitely/not/here.csv");
        let (err, hit) = reg.get_or_load(&missing, LoadMode::Memory);
        assert!(err.is_err());
        assert!(!hit);
        assert_eq!(reg.len(), 0, "failed entry must not stay resident");
        // Retry is a fresh miss, not a cached error.
        let (err2, hit2) = reg.get_or_load(&missing, LoadMode::Memory);
        assert!(err2.is_err());
        assert!(!hit2);
        assert_eq!(reg.snapshot().resident_bytes, 0);
    }

    #[test]
    fn concurrent_cold_lookups_share_one_build() {
        let path = fixture_csv("race.csv", 400);
        let reg = Arc::new(Registry::new());
        let entries: Vec<Arc<Entry>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let ds = dsref(&path);
                    scope.spawn(move || reg.get_or_load(&ds, LoadMode::Memory).0.unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for e in &entries[1..] {
            assert!(Arc::ptr_eq(&entries[0], e), "all clients share one entry");
        }
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.misses(), 1, "exactly one scan");
        assert_eq!(reg.hits() + reg.misses(), 4);
    }

    #[test]
    fn materialised_lookup_upgrades_stream_entries() {
        let path = fixture_csv("upgrade.csv", 300);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(entry.unwrap().dataset().is_none());
        let (upgraded, hit) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(!hit, "an upgrade re-scans, so it is not a hit");
        assert!(upgraded.unwrap().dataset().is_some());
        assert_eq!(reg.len(), 1);
        // The upgraded entry is now the cached one.
        let (again, hit) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(hit);
        let again = again.unwrap();
        assert!(again.dataset().is_some());
        assert_eq!(reg.hits(), 1);
        assert_eq!(reg.misses(), 2);
        // The rows are weighed on the one resident entry.
        assert_eq!(reg.snapshot().resident_bytes, again.footprint());
    }

    #[test]
    fn concurrent_upgrades_share_one_rescan() {
        let path = fixture_csv("upgrade-race.csv", 400);
        let reg = Arc::new(Registry::new());
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream); // 1 miss
        assert!(entry.unwrap().dataset().is_none());
        let entries: Vec<Arc<Entry>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let ds = dsref(&path);
                    scope.spawn(move || reg.get_or_load(&ds, LoadMode::Memory).0.unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for e in &entries {
            assert!(e.dataset().is_some());
            assert!(
                Arc::ptr_eq(&entries[0], e),
                "all upgraders share one rebuilt entry"
            );
        }
        // Stream build + exactly one rows scan; the other three
        // upgraders waited on the same rows cell and count as hits.
        assert_eq!(reg.misses(), 2);
        assert_eq!(reg.hits(), 3);
    }

    #[test]
    fn bad_eps_is_an_error_not_a_panic() {
        let path = fixture_csv("eps.csv", 100);
        let reg = Registry::new();
        let mut ds = dsref(&path);
        ds.eps = 0.0;
        let (res, _) = reg.get_or_load(&ds, LoadMode::Memory);
        assert!(res.is_err());
    }

    #[test]
    fn lru_eviction_respects_touch_order() {
        let dir = unique_dir("lru");
        let paths: Vec<String> = (0..3)
            .map(|i| {
                let p = dir.join(format!("d{i}.csv"));
                write_fixture(&p, 300, i);
                p.to_str().unwrap().to_string()
            })
            .collect();
        // Measure one entry (sample + column sketches) on a throwaway
        // registry, then budget for two entries but not three.
        let per_entry = {
            let probe = Registry::new();
            let (e, _) = probe.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
            e.unwrap().stored_bytes as u64
        };
        let budget = 2 * per_entry + per_entry / 2;
        let reg = Registry::with_config(RegistryConfig {
            cache_bytes: Some(budget),
            ..RegistryConfig::default()
        });
        let (e0, _) = reg.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
        assert_eq!(e0.unwrap().stored_bytes as u64, per_entry);
        let (_, _) = reg.get_or_load(&dsref(&paths[1]), LoadMode::Stream);
        assert_eq!(reg.len(), 2, "two entries fit the budget");
        // Touch d0 so d1 is the LRU victim when d2 arrives.
        let (_, hit) = reg.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
        assert!(hit);
        let (_, _) = reg.get_or_load(&dsref(&paths[2]), LoadMode::Stream);
        let snap = reg.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.datasets, 2);
        assert!(snap.resident_bytes <= budget);
        // d0 survived (recently touched), d1 was evicted.
        let (_, hit0) = reg.get_or_load(&dsref(&paths[0]), LoadMode::Stream);
        assert!(hit0, "recently-touched entry must survive");
        let before = reg.misses();
        let (_, hit1) = reg.get_or_load(&dsref(&paths[1]), LoadMode::Stream);
        assert!(!hit1, "LRU entry must have been evicted");
        assert_eq!(reg.misses(), before + 1);
    }

    #[test]
    fn over_budget_entry_is_still_served() {
        let path = fixture_csv("big.csv", 300);
        let reg = Registry::with_config(RegistryConfig {
            cache_bytes: Some(1), // nothing fits
            ..RegistryConfig::default()
        });
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(entry.is_ok(), "the protected entry is never evicted");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.snapshot().evictions, 0);
    }

    #[test]
    fn persistence_restores_without_a_scan() {
        // Both build modes persist the sample; a restarted registry's
        // stream lookup (what `audit` and `check` take) restores it.
        for mode in [LoadMode::Stream, LoadMode::Memory] {
            let dir = unique_dir("persist");
            let path = fixture_csv("warm.csv", 400);
            // Journal off: this test pins the lazy on-demand restore
            // path, which still serves WAL-less dirs (and keys outside
            // the journal's resident set). Eager re-admission has its
            // own tests below.
            let config = RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            };
            let first = Registry::with_config(config.clone());
            let (built, _) = first.get_or_load(&dsref(&path), mode);
            let built = built.unwrap();
            assert_eq!(first.misses(), 1);
            drop(first);

            // A "restarted server": a fresh registry over the same dir.
            let second = Registry::with_config(config);
            let (restored, hit) = second.get_or_load(&dsref(&path), LoadMode::Stream);
            let restored = restored.unwrap();
            assert!(!hit);
            assert_eq!(second.misses(), 0, "{mode:?}: no scan on a warm start");
            assert_eq!(second.disk_hits(), 1, "{mode:?}");
            assert_eq!(restored.rows, built.rows);
            assert_eq!(restored.attrs, built.attrs);
            assert_eq!(
                restored.filter.sample().n_rows(),
                built.filter.sample().n_rows()
            );
            // The restored sample answers queries identically.
            use qid_dataset::AttrId;
            for attrs in [vec![AttrId::new(0)], vec![AttrId::new(1)]] {
                assert_eq!(
                    restored.filter.query(&attrs),
                    built.filter.query(&attrs),
                    "{mode:?}: restored filter must agree on {attrs:?}"
                );
            }
        }
    }

    #[test]
    fn stale_source_triggers_rebuild_not_stale_answer() {
        let dir = unique_dir("stale");
        let path = dir.join("mut.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let reg = Registry::new();
        let (first, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let first = first.unwrap();
        assert_eq!(first.rows, 300);

        // Rewrite in place with different content (and length).
        write_fixture(&path, 500, 9);
        let (second, hit) = reg.get_or_load(&ds, LoadMode::Stream);
        let second = second.unwrap();
        assert!(!hit, "a stale entry is not a hit");
        assert_eq!(second.rows, 500, "the rebuilt entry sees the new file");
        assert!(!Arc::ptr_eq(&first, &second));
        let snap = reg.snapshot();
        assert_eq!(snap.stale_rebuilds, 1);
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.datasets, 1);
        assert_eq!(snap.resident_bytes, second.stored_bytes as u64);
    }

    #[test]
    fn stale_source_also_invalidates_the_disk_tier() {
        let dir = unique_dir("stale-disk");
        let path = dir.join("mut.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (_, _) = first.get_or_load(&ds, LoadMode::Stream);
        drop(first);

        write_fixture(&path, 500, 9);
        let second = Registry::with_config(config);
        let (entry, _) = second.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 500, "stale persisted sample ignored");
        assert_eq!(second.disk_hits(), 0);
        assert_eq!(second.misses(), 1);
    }

    #[test]
    fn unload_removes_resident_and_persisted_state() {
        let dir = unique_dir("unload");
        let path = fixture_csv("gone.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let reg = Registry::with_config(config);
        let ds = dsref(&path);
        let (_, _) = reg.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(reg.len(), 1);
        assert!(reg.unload(&ds));
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.snapshot().resident_bytes, 0);
        assert!(!reg.unload(&ds), "second unload finds nothing");
        // The disk tier is gone too: the next lookup is a full miss.
        let (_, hit) = reg.get_or_load(&ds, LoadMode::Stream);
        assert!(!hit);
        assert_eq!(reg.disk_hits(), 0);
        assert_eq!(reg.misses(), 2);
    }

    #[test]
    fn int_and_float_spellings_persist_and_restore_exactly() {
        // "1" parses as Int(1) and "1.0" as Float(1.0): distinct values
        // in the column that both render "1". The typed artifact keeps
        // them apart, so such a sample persists and restores exactly.
        let dir = unique_dir("lossy");
        let path = dir.join("floats.csv");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "id,v").unwrap();
        for i in 0..10 {
            writeln!(f, "{i},1").unwrap();
        }
        for i in 10..20 {
            writeln!(f, "{i},1.0").unwrap();
        }
        drop(f);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let ds = dsref(path.to_str().unwrap());
        let first = Registry::with_config(config.clone());
        // m=2, eps=0.01 → r=20 = n: the sample holds every row,
        // including both spellings of 1.
        let (built, _) = first.get_or_load(&ds, LoadMode::Stream);
        let built = built.unwrap();
        assert_eq!(built.filter.sample().n_rows(), 20);
        drop(first);

        let second = Registry::with_config(config);
        let (restored, _) = second.get_or_load(&ds, LoadMode::Stream);
        let restored = restored.unwrap();
        assert_eq!(second.disk_hits(), 1, "the sample reached the disk tier");
        assert_eq!(second.misses(), 0, "no re-scan");
        let (b, r) = (built.filter.sample(), restored.filter.sample());
        assert_eq!(sample_rows(r), sample_rows(b), "value for value");
        assert!(sample_rows(r).iter().any(|row| row[1] == Value::Int(1)));
        assert!(sample_rows(r).iter().any(|row| row[1] == Value::float(1.0)));
        for a in 0..b.n_attrs() {
            let (bc, rc) = (b.column(AttrId::new(a)), r.column(AttrId::new(a)));
            assert_eq!(rc.codes(), bc.codes(), "code for code");
            assert_eq!(rc.dict(), bc.dict(), "dictionary for dictionary");
        }
    }

    #[test]
    fn a_corrupted_artifact_is_a_plain_miss_that_rebuilds() {
        let dir = unique_dir("corrupt");
        let path = fixture_csv("corrupt.csv", 300);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        Registry::with_config(config.clone())
            .get_or_load(&ds, LoadMode::Stream)
            .0
            .unwrap();
        let file = artifact::path(&dir, CacheKey::of(&ds).fnv64());
        let good = std::fs::read(&file).unwrap();
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x10;
        for bad in [flipped, good[..good.len() - 1].to_vec()] {
            std::fs::write(&file, &bad).unwrap();
            let reg = Registry::with_config(config.clone());
            let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
            assert_eq!(entry.unwrap().rows, 300, "rebuilt from the source");
            assert_eq!((reg.disk_hits(), reg.misses()), (0, 1));
        }
    }

    #[test]
    fn materialised_upgrade_ignores_the_disk_tier() {
        // A disk-restored entry has no rows; a memory-mode lookup
        // still gets them, by one rows scan.
        let dir = unique_dir("upgrade-disk");
        let path = fixture_csv("updisk.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (_, _) = first.get_or_load(&dsref(&path), LoadMode::Stream);
        drop(first);
        let second = Registry::with_config(config);
        // The stream lookup restores the sample-only entry from disk…
        let (restored, _) = second.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(restored.unwrap().dataset().is_none());
        assert_eq!(second.disk_hits(), 1, "the sample-only restore");
        // …and materialising it pays one scan of its stamped bytes.
        let (entry, _) = second.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(entry.unwrap().dataset().is_some());
        assert_eq!(second.misses(), 1, "the materialising scan");
    }

    #[test]
    fn memory_mode_loads_bypass_the_disk_tier() {
        // An explicit memory-mode load exists to pre-materialise: it
        // restores the sample, then scans the rows. A lookup counts
        // only its dearest step, so this is one miss and no disk hit.
        let dir = unique_dir("memory-disk");
        let path = fixture_csv("memdisk.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (_, _) = first.get_or_load(&dsref(&path), LoadMode::Stream);
        drop(first);
        let second = Registry::with_config(config);
        let (entry, hit) = second.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(!hit);
        assert!(
            entry.unwrap().dataset().is_some(),
            "memory load materialises"
        );
        assert_eq!(second.disk_hits(), 0, "the rows scan is the dearest step");
        assert_eq!(second.misses(), 1);
    }

    #[test]
    fn registry_creation_sweeps_only_old_tmp_files() {
        let dir = unique_dir("sweep");
        let orphan = dir.join("00000000deadbeef.sample.123-0.tmp");
        std::fs::write(&orphan, b"partial").unwrap();
        // Backdate the orphan past the sweep age; leave a fresh tmp
        // (a live sibling's in-flight persist) alone.
        let backdated = std::time::SystemTime::now() - 2 * TMP_SWEEP_MIN_AGE;
        std::fs::File::options()
            .write(true)
            .open(&orphan)
            .unwrap()
            .set_modified(backdated)
            .unwrap();
        let in_flight = dir.join("00000000cafebabe.sample.456-0.tmp");
        std::fs::write(&in_flight, b"mid-write").unwrap();
        let keeper = dir.join("00000000deadbeef");
        std::fs::write(&keeper, b"published").unwrap();
        let _ = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        });
        assert!(!orphan.exists(), "old orphaned tmp files are swept");
        assert!(in_flight.exists(), "fresh tmp files are left alone");
        assert!(keeper.exists(), "published files are untouched");
    }

    #[test]
    fn snapshot_rolls_everything_up() {
        let path = fixture_csv("snap.csv", 300);
        let reg = Registry::new();
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let snap = reg.snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.datasets, 1);
        assert!(snap.resident_bytes > 0);
        assert_eq!(
            snap.evictions + snap.stale_rebuilds + snap.disk_hits + snap.upgrades,
            0
        );
    }

    #[test]
    fn stream_entries_carry_column_sketches() {
        let path = fixture_csv("cols.csv", 300);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let entry = entry.unwrap();
        let cols = &entry.cols;
        assert_eq!(cols.len(), 2);
        // id: 300 distinct (over k=256, an estimate); parity: exactly 2.
        assert!(!cols[0].is_exact());
        let id_est = cols[0].estimate() as f64;
        assert!(
            (id_est - 300.0).abs() / 300.0 < 0.25,
            "id estimate {id_est} vs 300"
        );
        assert!(cols[1].is_exact());
        assert_eq!(cols[1].estimate(), 2);
    }

    #[test]
    fn memory_and_stream_builds_agree_on_column_sketches() {
        // The dictionary-fed path (memory) and the tee-fed path
        // (stream) must produce byte-identical sketch state: KMV only
        // depends on the distinct value set.
        let path = fixture_csv("cols-agree.csv", 300);
        let reg = Registry::new();
        let (mem, _) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        let other = Registry::new();
        let (stream, _) = other.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(mem.unwrap().cols, stream.unwrap().cols);
    }

    #[test]
    fn concurrent_sketch_queries_share_one_build() {
        // Mirrors concurrent_cold_lookups_share_one_build for the
        // second cached artifact: N racing sketch queries on an entry
        // without a sketch cause exactly one pair-sample scan.
        let path = fixture_csv("sketch-race.csv", 400);
        let reg = Arc::new(Registry::new());
        let ds = dsref(&path);
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(reg.misses(), 1, "the sample build");
        let sketches: Vec<Arc<NonSeparationSketch>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    let ds = ds.clone();
                    let entry = Arc::clone(&entry);
                    scope.spawn(move || reg.sketch_for(&ds, &entry).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for sk in &sketches[1..] {
            assert!(Arc::ptr_eq(&sketches[0], sk), "one sketch for everyone");
        }
        assert_eq!(reg.misses(), 2, "sample build + exactly one sketch scan");
        // The sketch participates in the byte accounting, together
        // with the pair-sample tuples retained for append absorption.
        let pair_bytes = entry
            .pair_ingest
            .get()
            .map_or(0, PairIngest::retained_bytes);
        assert!(pair_bytes > 0, "the pair state rides along with the sketch");
        assert_eq!(
            reg.snapshot().resident_bytes,
            (entry.stored_bytes + sketches[0].stored_bytes() + pair_bytes) as u64
        );
    }

    #[test]
    fn sketch_is_identical_however_the_entry_is_resident() {
        // Stream entry (sketch from a source re-scan) and memory entry
        // (sketch from the resident dataset) must answer identically:
        // one canonical definition, the streaming builder.
        let path = fixture_csv("sketch-modes.csv", 400);
        let ds = dsref(&path);
        let stream_reg = Registry::new();
        let (se, _) = stream_reg.get_or_load(&ds, LoadMode::Stream);
        let stream_sketch = stream_reg.sketch_for(&ds, &se.unwrap()).unwrap();
        let mem_reg = Registry::new();
        let (me, _) = mem_reg.get_or_load(&ds, LoadMode::Memory);
        let mem_sketch = mem_reg.sketch_for(&ds, &me.unwrap()).unwrap();
        assert_eq!(mem_reg.misses(), 1, "a resident dataset needs no re-scan");
        let attrs = [vec![AttrId::new(0)], vec![AttrId::new(1)], vec![]];
        for a in &attrs {
            assert_eq!(stream_sketch.raw_count(a), mem_sketch.raw_count(a));
            assert_eq!(stream_sketch.query(a), mem_sketch.query(a));
        }
        assert_eq!(stream_sketch.sample_size(), mem_sketch.sample_size());
    }

    #[test]
    fn sketch_persists_and_restores_without_a_scan() {
        let dir = unique_dir("sketch-persist");
        let path = fixture_csv("sketch-warm.csv", 400);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (entry, _) = first.get_or_load(&ds, LoadMode::Stream);
        let built = first.sketch_for(&ds, &entry.unwrap()).unwrap();
        assert_eq!(first.misses(), 2);
        drop(first);

        let second = Registry::with_config(config);
        let (entry, _) = second.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(second.disk_hits(), 1, "the sample restore");
        let restored = second.sketch_for(&ds, &entry).unwrap();
        assert_eq!(second.disk_hits(), 2, "the pair-sample restore");
        assert_eq!(second.misses(), 0, "no source scan anywhere");
        for a in [vec![AttrId::new(0)], vec![AttrId::new(1)]] {
            assert_eq!(restored.raw_count(&a), built.raw_count(&a));
            assert_eq!(restored.query(&a), built.query(&a));
        }
        // The restored entry still answers stats (cols survived too).
        assert_eq!(entry.cols.len(), 2);
    }

    #[test]
    fn a_rebuild_of_an_unchanged_source_keeps_the_persisted_pair_sample() {
        let dir = unique_dir("sketch-carry");
        let path = fixture_csv("sketch-carry.csv", 300);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (entry, _) = first.get_or_load(&ds, LoadMode::Stream);
        let built = first.sketch_for(&ds, &entry.unwrap()).unwrap();
        drop(first);
        // A memory-mode load restores the artifact and scans only the
        // rows; it persists nothing, so the pair section survives.
        let second = Registry::with_config(config.clone());
        second.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        drop(second);

        let third = Registry::with_config(config);
        let (entry, _) = third.get_or_load(&ds, LoadMode::Stream);
        let restored = third.sketch_for(&ds, &entry.unwrap()).unwrap();
        assert_eq!(third.disk_hits(), 2, "sample and pair sample restored");
        assert_eq!(third.misses(), 0);
        assert_eq!(sample_rows(restored.pairs()), sample_rows(built.pairs()));
    }

    #[test]
    fn stale_source_invalidates_the_persisted_sketch() {
        let dir = unique_dir("sketch-stale");
        let path = dir.join("mut.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        let (entry, _) = first.get_or_load(&ds, LoadMode::Stream);
        let _ = first.sketch_for(&ds, &entry.unwrap()).unwrap();
        drop(first);

        write_fixture(&path, 500, 9);
        let second = Registry::with_config(config);
        let (entry, _) = second.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(entry.rows, 500);
        let sketch = second.sketch_for(&ds, &entry).unwrap();
        // The stale pairs file must not be adopted: the sketch scans
        // the new source instead (entry scan + sketch scan).
        assert_eq!(second.disk_hits(), 0);
        assert_eq!(second.misses(), 2);
        assert_eq!(sketch.source_pairs(), 500 * 499 / 2);
    }

    #[test]
    fn unload_releases_sketch_bytes_and_pair_files() {
        let dir = unique_dir("sketch-unload");
        let path = fixture_csv("sketch-gone.csv", 300);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let reg = Registry::with_config(config);
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        let sketch = reg.sketch_for(&ds, &entry).unwrap();
        assert!(sketch.stored_bytes() > 0);
        let file = artifact::path(&dir, CacheKey::of(&ds).fnv64());
        let bytes = std::fs::read(&file).unwrap();
        let persisted = artifact::parse(&bytes).unwrap();
        assert!(
            persisted.pairs().unwrap().is_some(),
            "pair section persisted"
        );
        assert!(reg.unload(&ds));
        assert_eq!(reg.snapshot().resident_bytes, 0, "sketch bytes released");
        assert!(!file.exists());
    }

    #[test]
    fn materialisation_upgrades_are_counted() {
        let path = fixture_csv("upgrade-count.csv", 300);
        let reg = Registry::new();
        let (_, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(reg.snapshot().upgrades, 0);
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(entry.unwrap().dataset().is_some());
        let snap = reg.snapshot();
        assert_eq!(snap.upgrades, 1);
        assert_eq!(snap.misses, 2, "the upgrade is also a miss");
        // A second materialised lookup is a hit, not another upgrade.
        let (_, hit) = reg.get_or_load(&dsref(&path), LoadMode::Memory);
        assert!(hit);
        assert_eq!(reg.snapshot().upgrades, 1);
    }

    #[test]
    fn sketch_build_failure_is_an_error_not_a_panic() {
        // Entry resident, but the source vanishes before the sketch
        // scan: the error is cached on the entry (and clears with it).
        let dir = unique_dir("sketch-fail");
        let path = dir.join("vanish.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        std::fs::remove_file(&path).unwrap();
        let err = reg.sketch_for(&ds, &entry).unwrap_err();
        assert!(err.contains("vanish.csv"), "{err}");
        // Still an error on retry (the cell is written once)…
        assert!(reg.sketch_for(&ds, &entry).is_err());
        // …and no bytes were charged for it.
        assert_eq!(reg.snapshot().resident_bytes, entry.stored_bytes as u64);
    }

    /// What `entry` holds resident: its stored bytes plus, once built,
    /// its sketch's pairs and the pair-sample tuples kept beside them.
    fn held_bytes(entry: &Entry) -> u64 {
        let sketch = entry.sketch().map_or(0, |sk| {
            sk.stored_bytes()
                + entry
                    .pair_ingest
                    .get()
                    .map_or(0, PairIngest::retained_bytes)
        });
        (entry.stored_bytes + sketch) as u64
    }

    #[test]
    fn a_sketch_built_for_an_entry_that_left_its_slot_is_not_resident() {
        // (a) The entry is unloaded while a caller still holds it.
        let path = fixture_csv("orphan-unload.csv", 300);
        let ds = dsref(&path);
        let reg = Registry::new();
        let held = reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        assert!(reg.unload(&ds));
        reg.sketch_for(&ds, &held).unwrap();
        assert!(held.sketch().is_some(), "the held entry got its sketch");
        assert_eq!(reg.snapshot().resident_bytes, 0);

        // (b) A rewrite swaps a rebuilt slot in under a held entry. A
        // materialised entry builds its sketch from its own rows, so the
        // build succeeds although the source has moved on.
        let dir = unique_dir("orphan-swap");
        let path = dir.join("swap.csv");
        write_fixture(&path, 300, 0);
        let ds = dsref(path.to_str().unwrap());
        let reg = Registry::new();
        let held = reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        write_fixture(&path, 400, 9);
        let rebuilt = reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        assert!(
            !Arc::ptr_eq(&held, &rebuilt),
            "the rewrite swapped the slot"
        );
        reg.sketch_for(&ds, &rebuilt).unwrap();
        reg.sketch_for(&ds, &held).unwrap();
        assert!(held.sketch().is_some(), "the held entry got its sketch");
        assert_eq!(reg.snapshot().resident_bytes, held_bytes(&rebuilt));
        assert!(reg.unload(&ds));
        assert_eq!(reg.snapshot().resident_bytes, 0);
    }

    #[test]
    fn a_materialised_upgrade_keeps_the_stream_sample_and_answers() {
        // Columns whose combinations repeat a few times among 3,000 rows,
        // so many attribute sets sit between keys and ε-bad sets and
        // the sample decides them.
        let dir = unique_dir("parity");
        let path = dir.join("parity.csv");
        let mut csv = String::from("a,b,c,d,e\n");
        for i in 0..3_000u64 {
            let (a, b, c, d, e) = (i % 1_500, (i * 7) % 40, i % 3, (i / 3) % 97, i % 250);
            csv += &format!("{a},{b},{c},{d},{e}\n");
        }
        std::fs::write(&path, csv).unwrap();
        let path = path.to_str().unwrap();
        let subsets: Vec<Vec<AttrId>> = (1u32..32)
            .map(|mask| {
                (0..5)
                    .filter(|a| (mask >> a) & 1 == 1)
                    .map(AttrId::new)
                    .collect()
            })
            .collect();
        for eps in [0.01, 0.002] {
            for seed in 1..=6 {
                let ds = DatasetRef {
                    path: path.into(),
                    eps,
                    seed,
                };
                let reg = Registry::new();
                let stream = reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
                let upgraded = reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
                assert!(upgraded.dataset().is_some());
                assert_eq!(
                    sample_rows(stream.filter.sample()),
                    sample_rows(upgraded.filter.sample()),
                    "eps {eps}, seed {seed}: the sample"
                );
                for attrs in &subsets {
                    assert_eq!(
                        stream.filter.query(attrs),
                        upgraded.filter.query(attrs),
                        "eps {eps}, seed {seed}: {attrs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn after_an_upgrade_and_a_restart_appends_still_absorb() {
        let dir = unique_dir("upgrade-checkpoint");
        let path = fixture_csv("upgrade-checkpoint.csv", 400);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        first.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        let upgraded = first.get_or_load(&ds, LoadMode::Memory).0.unwrap();
        assert!(upgraded.dataset().is_some());
        drop(first);

        let second = Registry::with_config(config);
        let misses = second.misses();
        append_rows(&path, 400, 200, 0);
        let (entry, _) = second.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 600);
        assert_eq!(second.append_updates(), 1, "the restored entry absorbs");
        assert_eq!(second.misses(), misses, "no scan after the restart");
    }

    #[test]
    fn a_memory_loaded_key_absorbs_a_pure_append_in_the_foreground_and_in_a_sweep() {
        for sweep in [false, true] {
            let path = fixture_csv("memory-append.csv", 400);
            let ds = dsref(&path);
            let reg = Registry::new();
            let loaded = reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
            assert!(loaded.dataset().is_some());
            let misses = reg.misses();

            append_rows(&path, 400, 300, 0);
            if sweep {
                assert_eq!(reg.sweep(), 1, "the sweeper refreshes the entry");
            }
            let (absorbed, hit) = reg.get_or_load(&ds, LoadMode::Stream);
            let absorbed = absorbed.unwrap();
            assert!(hit, "sweep {sweep}: the absorb is not a scan");
            assert_eq!(reg.append_updates(), 1, "sweep {sweep}");
            assert_eq!(reg.misses(), misses, "sweep {sweep}");
            assert_eq!(reg.snapshot().stale_rebuilds, 0, "sweep {sweep}");
            assert_eq!(absorbed.rows, 700);
            assert!(
                absorbed.dataset().is_none(),
                "an absorb starts without rows"
            );
            let cold = Registry::new()
                .get_or_load(&ds, LoadMode::Stream)
                .0
                .unwrap();
            assert_eq!(
                sample_rows(absorbed.filter.sample()),
                sample_rows(cold.filter.sample()),
                "sweep {sweep}"
            );
            assert_eq!(absorbed.cols, cold.cols, "sweep {sweep}");

            // The next memory load scans the rows of the absorbed entry.
            let upgrades = reg.snapshot().upgrades;
            let again = reg.get_or_load(&ds, LoadMode::Memory).0.unwrap();
            assert!(Arc::ptr_eq(&again, &absorbed), "the rows join the entry");
            assert_eq!(reg.snapshot().upgrades, upgrades + 1, "sweep {sweep}");
            assert_eq!(reg.misses(), misses + 1, "sweep {sweep}");
            match crate::server::stats_response(&again) {
                crate::proto::Response::Stats { rows, exact, .. } => {
                    assert_eq!(rows, 700);
                    assert!(exact, "sweep {sweep}: stats is exact again");
                }
                other => panic!("expected stats, got {other:?}"),
            }
        }
    }

    /// One step of [`every_three_step_lifecycle_counts_and_serves_like_a_cold_build`].
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        StreamLookup,
        MemoryLookup,
        Append,
        Rewrite,
        Sweep,
    }

    /// What the table expects of one key, before a step.
    #[derive(Default)]
    struct Model {
        /// An entry is resident.
        resident: bool,
        /// Its rows are set.
        materialised: bool,
        /// The source grew by a pure append since it was built.
        appended: bool,
        /// The source was rewritten since it was built.
        rewritten: bool,
    }

    impl Model {
        /// Applies `step`; returns whether it scans the source (a miss).
        fn step(&mut self, step: Step) -> bool {
            let current = self.resident && !self.appended && !self.rewritten;
            let scans = match step {
                Step::StreamLookup => !self.resident || self.rewritten,
                Step::MemoryLookup => !(current && self.materialised),
                Step::Sweep => self.resident && self.rewritten,
                Step::Append => {
                    self.appended = true;
                    return false;
                }
                Step::Rewrite => {
                    self.rewritten = true;
                    return false;
                }
            };
            if step == Step::Sweep && !self.resident {
                return false;
            }
            self.materialised = match step {
                Step::MemoryLookup => true,
                _ => current && self.materialised,
            };
            self.resident = true;
            self.appended = false;
            self.rewritten = false;
            scans
        }
    }

    #[test]
    fn every_three_step_lifecycle_counts_and_serves_like_a_cold_build() {
        use qid_dataset::csv::{read_csv_path, CsvOptions};
        const STEPS: [Step; 5] = [
            Step::StreamLookup,
            Step::MemoryLookup,
            Step::Append,
            Step::Rewrite,
            Step::Sweep,
        ];
        for n in 0..STEPS.len().pow(3) {
            let steps = [STEPS[n % 5], STEPS[n / 5 % 5], STEPS[n / 25]];
            let dir = unique_dir("lifecycle");
            let file = dir.join("life.csv");
            write_fixture(&file, 300, 0);
            let path = file.to_str().unwrap().to_string();
            let ds = dsref(&path);
            let key = CacheKey::of(&ds);
            let reg = Registry::new();
            let (mut model, mut rows, mut salt) = (Model::default(), 300, 0);
            let (mut lookups, mut misses, mut sweep_scans) = (0, 0, 0);
            for (i, &step) in steps.iter().enumerate() {
                let at = format!("{steps:?} step {i}");
                let scans = u64::from(model.step(step));
                misses += scans;
                if step == Step::Sweep {
                    sweep_scans += scans;
                }
                let served = match step {
                    Step::StreamLookup | Step::MemoryLookup => {
                        lookups += 1;
                        let mode = match step {
                            Step::MemoryLookup => LoadMode::Memory,
                            _ => LoadMode::Stream,
                        };
                        let entry = reg.get_or_load(&ds, mode).0.unwrap();
                        if mode == LoadMode::Memory {
                            let read = read_csv_path(&path, &CsvOptions::default()).unwrap();
                            let dataset = entry.dataset().expect("a memory lookup sets the rows");
                            assert_eq!(sample_rows(dataset), sample_rows(&read), "{at}");
                        }
                        Some(entry)
                    }
                    Step::Append => {
                        append_rows(&path, rows, 40, salt);
                        rows += 40;
                        None
                    }
                    Step::Rewrite => {
                        salt += 1;
                        rows = 300 + 30 * salt as usize;
                        write_fixture(&file, rows, salt);
                        None
                    }
                    Step::Sweep => {
                        reg.sweep();
                        let slot = reg.shard(&key).read().unwrap().get(&key).cloned();
                        slot.and_then(|slot| slot.cell.get()?.clone().ok())
                    }
                };
                assert_eq!(reg.misses(), misses, "{at}: misses");
                // A sweep's stale rebuild is a scan, so a miss, though
                // not a lookup.
                assert_eq!(
                    reg.hits() + reg.misses(),
                    lookups + sweep_scans,
                    "{at}: hits + misses"
                );
                if let Some(entry) = served {
                    let cold = Registry::new()
                        .get_or_load(&ds, LoadMode::Stream)
                        .0
                        .unwrap();
                    assert_eq!(entry.rows, rows, "{at}");
                    assert_eq!(
                        sample_rows(entry.filter.sample()),
                        sample_rows(cold.filter.sample()),
                        "{at}: the served sample"
                    );
                }
            }
        }
    }

    // ------------------------------------ append + revalidation suite

    fn append_rows(path: &str, start: usize, rows: usize, salt: u64) {
        let mut f = std::fs::File::options().append(true).open(path).unwrap();
        for i in start..start + rows {
            writeln!(f, "{},{}", i as u64 + salt * 1_000_000, i % 2).unwrap();
        }
    }

    fn sample_rows(ds: &Dataset) -> Vec<Vec<Value>> {
        (0..ds.n_rows())
            .map(|row| {
                (0..ds.n_attrs())
                    .map(|a| ds.value(row, AttrId::new(a)).clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn same_length_same_mtime_rewrite_is_caught_by_fingerprint() {
        let path = fixture_csv("inplace.csv", 300);
        let reg = Registry::new();
        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();

        // Rewrite one byte in place — same length — then pin the mtime
        // back to the build-time value, so the change lands entirely
        // inside the filesystem's timestamp resolution. This is the
        // exact false-negative family a stat-only check misses.
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.iter().position(|&b| b == b'0').unwrap();
        bytes[target] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(mtime).unwrap();
        drop(f);
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            mtime,
            "fixture drifted: the rewrite must not move the mtime"
        );

        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();
        assert_eq!(
            reg.snapshot().stale_rebuilds,
            1,
            "the content fingerprint must catch a same-stat rewrite"
        );
        assert_eq!(reg.append_updates(), 0);
    }

    #[test]
    fn rewrite_beyond_the_prefix_plus_growth_rebuilds_not_absorbs() {
        // A re-exported CSV that updates old rows *and* adds new ones
        // must never be absorbed as an append: the whole-content FNV
        // gate on the grown path has to catch a rewrite landing beyond
        // the 64 KiB fingerprint prefix.
        let path = fixture_csv("deep-rewrite.csv", 12_000);
        let old_len = std::fs::metadata(&path).unwrap().len();
        assert!(
            old_len > FINGERPRINT_PREFIX + 16,
            "fixture drifted: old content must extend past the prefix"
        );
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 12_000);

        // Flip one parity digit on the final line — far beyond the
        // prefix — then append genuinely new rows.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 2;
        assert!(target as u64 > FINGERPRINT_PREFIX);
        assert_eq!(bytes[target], b'1', "fixture drifted: last parity");
        bytes[target] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        append_rows(&path, 12_000, 300, 0);

        let (rebuilt, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(rebuilt.unwrap().rows, 12_300);
        assert_eq!(
            reg.snapshot().stale_rebuilds,
            1,
            "a beyond-prefix rewrite + growth is stale, not an append"
        );
        assert_eq!(
            reg.append_updates(),
            0,
            "absorbing here would serve a stale sample"
        );
    }

    #[test]
    fn a_settled_stat_is_trusted_without_rereading_content() {
        // The racy-stat discipline: once a stamp's capture time lies
        // beyond the mtime race window, an unchanged stat alone proves
        // freshness and warm hits never re-read the file. The flip
        // side — asserted here on purpose — is that a rewrite which
        // *forges* the mtime back from outside that window is served
        // stale; catching it would cost a content read on every warm
        // hit, which is exactly what REVIEW flagged. (Inside the
        // window the fingerprint does catch it — see
        // same_length_same_mtime_rewrite_is_caught_by_fingerprint.)
        let path = fixture_csv("settled.csv", 300);
        let backdated = std::time::SystemTime::now() - std::time::Duration::from_secs(10);
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(backdated).unwrap();
        drop(f);

        let reg = Registry::new();
        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.iter().position(|&b| b == b'0').unwrap();
        bytes[target] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(backdated).unwrap();
        drop(f);

        let (_, hit) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(hit, "an unchanged non-racy stat is trusted as-is");
        assert_eq!(reg.hits(), 1);
        assert_eq!(reg.snapshot().stale_rebuilds, 0);
    }

    #[test]
    fn truncated_source_triggers_full_rebuild() {
        let path = fixture_csv("truncate.csv", 300);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 300);
        // Same prefix, fewer rows: shrinkage can never be an append.
        write_fixture(Path::new(&path), 200, 0);
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 200);
        assert_eq!(reg.snapshot().stale_rebuilds, 1);
        assert_eq!(reg.append_updates(), 0);
    }

    #[test]
    fn pure_append_is_absorbed_and_bit_identical_to_a_cold_rebuild() {
        let path = fixture_csv("append.csv", 400);
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 400);

        append_rows(&path, 400, 300, 0);
        let (absorbed, hit) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let absorbed = absorbed.unwrap();
        assert!(hit, "the absorbing lookup is a hit, not a rebuild");
        assert_eq!(absorbed.rows, 700);
        assert_eq!(reg.append_updates(), 1);
        assert_eq!(reg.snapshot().stale_rebuilds, 0);
        assert_eq!(reg.misses(), 1, "only the cold build scanned the file");

        // The absorbed entry must be indistinguishable from a cold
        // rebuild over the grown file: the resumed reservoir makes the
        // same accept/evict decisions the one-pass build would have,
        // so the sample, the column sketches, and therefore every
        // query answer are bit-identical — not merely statistically
        // equivalent.
        let cold_reg = Registry::new();
        let (cold, _) = cold_reg.get_or_load(&dsref(&path), LoadMode::Stream);
        let cold = cold.unwrap();
        assert_eq!(
            sample_rows(absorbed.filter.sample()),
            sample_rows(cold.filter.sample())
        );
        assert_eq!(absorbed.cols, cold.cols);
        assert_eq!(absorbed.rows, cold.rows);
        assert_eq!(absorbed.attrs, cold.attrs);
    }

    #[test]
    fn rows_appended_during_a_cold_build_are_absorbed_exactly_once() {
        // The build stamps the source, then scans it. An append that
        // lands between the two must not reach the scan: the next
        // lookup absorbs everything past the stamped length, so a row
        // the build also read would be fed twice.
        let path = fixture_csv("mid-build.csv", 400);
        let ds = dsref(&path);
        let key = CacheKey::of(&ds);
        let stamp = SourceStamp::capture(&path);
        append_rows(&path, 400, 100, 0);
        let built = build::build_entry(&ds, LoadMode::Stream, stamp).unwrap();
        assert_eq!(built.rows, 400, "the build reads only the stamped bytes");

        let reg = Registry::new();
        let bytes = built.stored_bytes as u64;
        let event = RegistryEvent::Built {
            key: key.fnv64(),
            bytes,
        };
        let entry = reg.admit(&key, built, None, event);
        let _ = reg.insert_or_adopt(&key).cell.set(Ok(entry));
        let (looked, hit) = reg.get_or_load(&ds, LoadMode::Stream);
        let looked = looked.unwrap();
        assert!(hit, "the appended rows are absorbed, not rebuilt");
        assert_eq!(reg.append_updates(), 1);

        let (cold, _) = Registry::new().get_or_load(&ds, LoadMode::Stream);
        let cold = cold.unwrap();
        assert_eq!(looked.rows, 500);
        assert_eq!(looked.rows, cold.rows);
        assert_eq!(
            sample_rows(looked.filter.sample()),
            sample_rows(cold.filter.sample())
        );
        assert_eq!(looked.cols, cold.cols);
    }

    #[test]
    fn append_advances_the_sketch_without_a_rescan() {
        for mode in [LoadMode::Stream, LoadMode::Memory] {
            let path = fixture_csv(&format!("append-sketch-{mode:?}.csv"), 400);
            let reg = Registry::new();
            let ds = dsref(&path);
            let (entry, _) = reg.get_or_load(&ds, mode);
            // Build the pair sketch in-process — by a scan, or from the
            // rows of a memory-mode entry — so its paused reservoirs are
            // parked on the entry, ready to resume over the suffix.
            reg.sketch_for(&ds, &entry.unwrap()).unwrap();
            let misses = reg.misses();

            append_rows(&path, 400, 300, 0);
            let (absorbed, _) = reg.get_or_load(&ds, LoadMode::Stream);
            let absorbed = absorbed.unwrap();
            let sketch = absorbed
                .sketch()
                .unwrap_or_else(|| panic!("{mode:?}: absorb advances the parked pair build"));
            reg.sketch_for(&ds, &absorbed).unwrap();
            assert_eq!(reg.misses(), misses, "{mode:?}: no scan after the append");

            let cold_reg = Registry::new();
            let (cold_entry, _) = cold_reg.get_or_load(&ds, LoadMode::Stream);
            let cold = cold_reg.sketch_for(&ds, &cold_entry.unwrap()).unwrap();
            assert_eq!(sketch.source_pairs(), cold.source_pairs(), "{mode:?}");
            assert_eq!(
                sample_rows(sketch.pairs()),
                sample_rows(cold.pairs()),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn append_completing_a_partial_final_line_rebuilds() {
        let dir = unique_dir("partial");
        let path = dir.join("partial.csv");
        std::fs::write(&path, "id,parity\n1,1\n2,0\n3,1").unwrap();
        let path = path.to_str().unwrap().to_string();
        let reg = Registry::new();
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 3);

        // The growth first *completes* the unterminated final row
        // (changing a row the sample may already hold), then adds a
        // new one: only a full rebuild is sound.
        let mut f = std::fs::File::options().append(true).open(&path).unwrap();
        write!(f, "7\n4,0\n").unwrap();
        drop(f);
        let (entry, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert_eq!(entry.unwrap().rows, 4);
        assert_eq!(reg.append_updates(), 0, "a straddled row must not absorb");
        assert_eq!(reg.snapshot().stale_rebuilds, 1);
    }

    #[test]
    fn absorb_fallback_counts_the_lookup_exactly_once() {
        // When classification says Appended but the absorb itself
        // fails (here: the appended row widens the schema), the lookup
        // falls back to a full scan and is counted as that miss — not
        // as a hit *and* a miss, which would push hits + misses past
        // the number of lookups and skew hit-rate metrics.
        let path = fixture_csv("fallback.csv", 300);
        let reg = Registry::new();
        reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();
        assert_eq!((reg.hits(), reg.misses()), (0, 1));

        let mut f = std::fs::File::options().append(true).open(&path).unwrap();
        writeln!(f, "300,0,9").unwrap();
        drop(f);

        let (result, _) = reg.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(result.is_err(), "the widened row fails the full scan too");
        assert_eq!(reg.append_updates(), 0);
        let lookups = 2;
        assert_eq!(
            reg.hits() + reg.misses(),
            lookups,
            "the fallback lookup is one miss, never also a hit"
        );
        assert_eq!((reg.hits(), reg.misses()), (0, 2));
    }

    #[test]
    fn sweep_absorbs_appends_ahead_of_traffic() {
        let path = fixture_csv("sweep.csv", 300);
        let reg = Registry::with_config(RegistryConfig {
            revalidate_ms: 60_000,
            ..RegistryConfig::default()
        });
        let ds = dsref(&path);
        reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        let hits_before = reg.hits();

        assert_eq!(reg.sweep(), 0, "a fresh entry needs no refresh");
        assert_eq!(reg.sweep_refreshes(), 0);

        append_rows(&path, 300, 200, 0);
        assert_eq!(reg.sweep(), 1);
        assert_eq!(reg.sweep_refreshes(), 1);
        assert_eq!(reg.append_updates(), 1);
        assert_eq!(reg.hits(), hits_before, "the sweeper is not a lookup");
        assert_eq!(reg.misses(), 1, "the suffix absorb is not a scan");

        // The refresh re-opened the revalidation window, so the
        // zero-alloc fast path serves the absorbed entry immediately.
        let peeked = reg
            .peek(&CacheKey::of(&ds))
            .expect("sweep keeps the peek window open");
        assert_eq!(peeked.rows, 500);
    }

    #[test]
    fn sweeper_racing_a_foreground_rebuild_shares_one_scan() {
        let path = fixture_csv("race.csv", 300);
        let reg = Arc::new(Registry::new());
        let ds = dsref(&path);
        reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        // Rewritten (prefix changed): stale however you look at it.
        write_fixture(Path::new(&path), 300, 9);

        let sweeper = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.sweep())
        };
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        entry.unwrap();
        sweeper.join().unwrap();

        // However the race lands — sweeper first, foreground first, or
        // truly interleaved — the swap-then-build-once discipline
        // admits exactly one rebuild scan and counts it exactly once.
        assert_eq!(reg.misses(), 2, "cold build + exactly one rebuild scan");
        assert_eq!(reg.snapshot().stale_rebuilds, 1, "one swap, ever");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn append_does_not_disturb_an_in_flight_audit() {
        let path = fixture_csv("inflight.csv", 300);
        let reg = Registry::new();
        let ds = dsref(&path);
        let (audit_entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let audit_entry = audit_entry.unwrap(); // held across the append
        let before = sample_rows(audit_entry.filter.sample());

        append_rows(&path, 300, 100, 0);
        let (absorbed, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let absorbed = absorbed.unwrap();

        assert!(
            !Arc::ptr_eq(&audit_entry, &absorbed),
            "absorb publishes a new entry instead of mutating the old"
        );
        assert_eq!(audit_entry.rows, 300, "the in-flight view is immutable");
        assert_eq!(sample_rows(audit_entry.filter.sample()), before);
        assert_eq!(absorbed.rows, 400);
    }

    #[test]
    fn v1_metas_are_rejected_and_stats_does_not_materialise() {
        let dir = unique_dir("v1-meta");
        let path = fixture_csv("v1.csv", 300);
        let ds = dsref(&path);
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
        }
        // Downgrade the persisted artifact to the pre-append v1 marker
        // and re-seal its checksum, so only the version gate can reject
        // it: a v1 meta had no column sketches and no fingerprint, so
        // restoring it would resurrect the silent-materialise path.
        let file = artifact::path(&dir, CacheKey::of(&ds).fnv64());
        let mut bytes = std::fs::read(&file).expect("artifact persisted");
        assert_eq!(
            bytes[4..6],
            artifact::VERSION.to_le_bytes(),
            "fixture drifted"
        );
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = artifact::checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&file, bytes).unwrap();

        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        let (entry, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let entry = entry.unwrap();
        assert_eq!(reg.disk_hits(), 0, "a v1 meta must not restore");
        assert_eq!(reg.misses(), 1, "rejected restore falls back to a scan");
        assert_eq!(reg.snapshot().upgrades, 0);
        assert!(
            entry.dataset().is_none(),
            "stats on a stream entry must not silently materialise"
        );
        assert_eq!(entry.cols.len(), 2, "stats answers from column sketches");
    }

    #[test]
    fn v4_artifacts_are_rejected_and_the_lookup_rebuilds() {
        let dir = unique_dir("v4-artifact");
        let path = fixture_csv("v4.csv", 300);
        let ds = dsref(&path);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        {
            let reg = Registry::with_config(config.clone());
            reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
            // A clean shutdown: the key is in the journal's resident set.
        }

        // Seal the artifact the way a version-4 writer did: FNV-1a over
        // the body, behind version 4. Its stamp hashes are FNV-1a too,
        // so trusting any field of it would compare apples to oranges.
        let file = artifact::path(&dir, CacheKey::of(&ds).fnv64());
        let mut bytes = std::fs::read(&file).expect("artifact persisted");
        bytes[4..6].copy_from_slice(&4u16.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = bytes[..body].iter().fold(FNV_OFFSET, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        });
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&file, &bytes).unwrap();
        assert_eq!(artifact::parse(&bytes).err(), Some("unsupported version"));

        // Startup re-admission skips the key instead of restoring it.
        let reg = Registry::with_config(config);
        assert_eq!(reg.len(), 0, "a v4 artifact must not be re-admitted");
        assert_eq!(reg.disk_hits(), 0);
        let misses = reg.misses();
        let (entry, hit) = reg.get_or_load(&ds, LoadMode::Stream);
        assert!(!hit);
        assert_eq!(entry.unwrap().rows, 300);
        assert_eq!(reg.disk_hits(), 0, "a v4 artifact must not restore");
        assert_eq!(reg.misses(), misses + 1, "the rejected restore is a miss");
        let rebuilt = std::fs::read(&file).expect("the rebuild re-persists");
        assert_eq!(rebuilt[4..6], artifact::VERSION.to_le_bytes());
        assert!(artifact::parse(&rebuilt).is_ok());
    }

    #[test]
    fn disk_budget_evicts_oldest_artifact_groups() {
        let dir = unique_dir("disk-gc");
        let path_a = fixture_csv("gc-a.csv", 300);
        let path_b = fixture_csv("gc-b.csv", 300);
        let path_c = fixture_csv("gc-c.csv", 300);
        let stem_of = |path: &str| format!("{:016x}", CacheKey::of(&dsref(path)).fnv64());
        let group_bytes = |dir: &Path, stem: &str| -> u64 {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|d| d.file_name().to_str() == Some(stem))
                .map(|d| d.metadata().unwrap().len())
                .sum()
        };

        // Measure one persisted group, then budget for two and a half:
        // the third build must garbage-collect the oldest group.
        // Journal off: this pins the mtime-fallback victim ordering
        // (used whenever the journal has no last-access evidence);
        // journal-ordered GC has its own test.
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path_a), LoadMode::Stream)
                .0
                .unwrap();
        }
        let group = group_bytes(&dir, &stem_of(&path_a));
        assert!(group > 0, "build must persist");

        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            cache_disk_bytes: Some(group * 5 / 2),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        reg.get_or_load(&dsref(&path_b), LoadMode::Stream)
            .0
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        reg.get_or_load(&dsref(&path_c), LoadMode::Stream)
            .0
            .unwrap();

        assert_eq!(
            group_bytes(&dir, &stem_of(&path_a)),
            0,
            "oldest group garbage-collected"
        );
        assert!(group_bytes(&dir, &stem_of(&path_b)) > 0, "b survives");
        assert!(
            group_bytes(&dir, &stem_of(&path_c)) > 0,
            "the just-persisted group is protected"
        );
        // The resident tier is untouched by disk GC.
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn unload_all_purges_orphaned_artifacts_from_prior_processes() {
        let dir = unique_dir("orphans");
        let path = fixture_csv("orphan.csv", 300);
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path), LoadMode::Stream).0.unwrap();
        } // "restart": artifacts on disk, nothing resident
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        assert!(reg.is_empty());
        let removed = reg.unload_all();
        assert_eq!(removed, 1, "the orphaned artifact purged");
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|d| d.file_name().to_str().and_then(artifact::stem).is_some())
            .count();
        assert_eq!(leftovers, 0);
    }

    #[test]
    fn absorbed_append_persists_and_restores_without_a_scan() {
        let dir = unique_dir("append-persist");
        let path = fixture_csv("append-persist.csv", 300);
        let ds = dsref(&path);
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&ds, LoadMode::Stream).0.unwrap();
            append_rows(&path, 300, 200, 0);
            let (absorbed, _) = reg.get_or_load(&ds, LoadMode::Stream);
            assert_eq!(absorbed.unwrap().rows, 500);
            assert_eq!(reg.append_updates(), 1);
        }
        // A fresh process restores the *absorbed* state — stamp, rows,
        // and resumable ingest — so the next append still absorbs.
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir),
            wal_max_bytes: 0,
            ..RegistryConfig::default()
        });
        let (restored, _) = reg.get_or_load(&ds, LoadMode::Stream);
        let restored = restored.unwrap();
        assert_eq!(reg.disk_hits(), 1, "restored, not re-scanned");
        assert_eq!(restored.rows, 500);
        assert!(restored.append_capable(), "restore resumes ingest state");
        append_rows(&path, 500, 100, 0);
        let (again, _) = reg.get_or_load(&ds, LoadMode::Stream);
        assert_eq!(again.unwrap().rows, 600);
        assert_eq!(reg.append_updates(), 1, "post-restore appends absorb");
        assert_eq!(reg.snapshot().stale_rebuilds, 0);
    }

    // ------------------------------------- journal + recovery suite

    #[test]
    fn warm_restart_readmits_the_resident_set_and_resumes_counters() {
        let dir = unique_dir("wal-warm");
        let path_a = fixture_csv("wal-a.csv", 300);
        let path_b = fixture_csv("wal-b.csv", 400);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        assert_eq!(first.restarts(), 0, "first boot");
        first
            .get_or_load(&dsref(&path_a), LoadMode::Stream)
            .0
            .unwrap();
        first
            .get_or_load(&dsref(&path_b), LoadMode::Stream)
            .0
            .unwrap();
        first
            .get_or_load(&dsref(&path_a), LoadMode::Stream)
            .0
            .unwrap();
        assert_eq!((first.hits(), first.misses()), (1, 2));
        drop(first); // clean shutdown: counters land in the journal

        let second = Registry::with_config(config);
        // Both keys were eagerly re-admitted during construction…
        assert_eq!(second.len(), 2, "resident set survives the restart");
        assert_eq!(second.restarts(), 1);
        assert!(second.wal_replayed_events() > 0);
        assert_eq!(second.disk_hits(), 2, "re-admission restores, never scans");
        // …and the cumulative counters resumed instead of resetting.
        assert_eq!(second.misses(), 2, "prior-life misses survive");
        assert_eq!(second.hits(), 1, "prior-life hits survive");
        // Replayed keys serve as plain hits: zero build misses.
        let (entry, hit) = second.get_or_load(&dsref(&path_a), LoadMode::Stream);
        assert!(hit, "a replayed key is already resident");
        assert_eq!(entry.unwrap().rows, 300);
        assert_eq!(second.misses(), 2, "no scan for a replayed key");
        let snap = second.snapshot();
        assert_eq!(snap.restarts, 1);
        assert_eq!(snap.wal_replayed_events, second.wal_replayed_events());
    }

    #[test]
    fn crash_recovery_resumes_counters_without_a_shutdown_record() {
        let dir = unique_dir("wal-crash");
        let path = fixture_csv("wal-crash.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        first
            .get_or_load(&dsref(&path), LoadMode::Stream)
            .0
            .unwrap();
        first.crash_for_test(); // kill -9: no shutdown record
        drop(first);

        let second = Registry::with_config(config);
        assert_eq!(second.restarts(), 1);
        assert_eq!(second.len(), 1, "the built key is re-admitted");
        assert_eq!(second.misses(), 1, "the journaled build survives the crash");
        assert_eq!(second.disk_hits(), 1, "the re-admission restore");
        let (_, hit) = second.get_or_load(&dsref(&path), LoadMode::Stream);
        assert!(hit);
    }

    #[test]
    fn crash_evidence_unlocks_the_tmp_sweep_and_clean_shutdown_does_not() {
        let dir = unique_dir("wal-tmp");
        let path = fixture_csv("wal-tmp.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        first
            .get_or_load(&dsref(&path), LoadMode::Stream)
            .0
            .unwrap();
        // A fresh in-flight tmp file, then a crash: nothing can still
        // be writing it, so the next boot reclaims it immediately.
        let orphan = dir.join("cafebabe00000001.sample.123-0.tmp");
        std::fs::write(&orphan, b"partial").unwrap();
        first.crash_for_test();
        drop(first);

        let second = Registry::with_config(config.clone());
        assert!(
            !orphan.exists(),
            "crash evidence reclaims fresh tmp files immediately"
        );
        // After a *clean* shutdown the age gate is back: a fresh tmp
        // could belong to a live sibling process and must survive.
        let in_flight = dir.join("cafebabe00000002.sample.456-0.tmp");
        std::fs::write(&in_flight, b"mid-write").unwrap();
        drop(second);
        let _third = Registry::with_config(config);
        assert!(
            in_flight.exists(),
            "a clean shutdown keeps the 1h age gate for tmp files"
        );
    }

    #[test]
    fn crash_evidence_sweep_spares_foreign_tmp_files() {
        let dir = unique_dir("wal-foreign-tmp");
        let path = fixture_csv("wal-foreign.csv", 300);
        let config = RegistryConfig {
            cache_dir: Some(dir.clone()),
            ..RegistryConfig::default()
        };
        let first = Registry::with_config(config.clone());
        first
            .get_or_load(&dsref(&path), LoadMode::Stream)
            .0
            .unwrap();
        // A shared cache dir: someone else's temp file sits beside the
        // registry's own debris when the crash happens.
        let foreign = dir.join("notes.tmp");
        std::fs::write(&foreign, b"not ours").unwrap();
        let ours = dir.join("cafebabe00000003.123-0.tmp");
        std::fs::write(&ours, b"partial").unwrap();
        first.crash_for_test();
        drop(first);

        let _second = Registry::with_config(config);
        assert!(!ours.exists(), "the registry's own debris is reclaimed");
        assert!(foreign.exists(), "a foreign tmp file is never swept");
    }

    #[test]
    fn disk_gc_protects_journal_recent_keys_over_newer_mtimes() {
        let dir = unique_dir("wal-gc");
        let path_a = fixture_csv("wal-gc-a.csv", 300);
        let path_b = fixture_csv("wal-gc-b.csv", 300);
        let path_c = fixture_csv("wal-gc-c.csv", 300);
        let stem_of = |path: &str| format!("{:016x}", CacheKey::of(&dsref(path)).fnv64());
        let group_paths = |dir: &Path, stem: &str| -> Vec<PathBuf> {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|d| d.file_name().to_str() == Some(stem))
                .map(|d| d.path())
                .collect()
        };

        // Key A is journaled (built under the WAL, cleanly shut down).
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path_a), LoadMode::Stream)
                .0
                .unwrap();
        }
        // Key B is journal-unknown: built with the journal off, so GC
        // has only its (newer) mtime to go on.
        {
            let reg = Registry::with_config(RegistryConfig {
                cache_dir: Some(dir.clone()),
                wal_max_bytes: 0,
                ..RegistryConfig::default()
            });
            reg.get_or_load(&dsref(&path_b), LoadMode::Stream)
                .0
                .unwrap();
        }
        let a_paths = group_paths(&dir, &stem_of(&path_a));
        assert!(!a_paths.is_empty(), "A persisted");
        let group: u64 = a_paths
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum();
        // Backdate A's artifacts: under mtime-ordered GC, A — the key a
        // client just restored — would be the first victim.
        let ancient = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1);
        for p in &a_paths {
            std::fs::File::options()
                .write(true)
                .open(p)
                .unwrap()
                .set_modified(ancient)
                .unwrap();
        }

        // Restart with the journal on and a budget for ~2.5 groups:
        // re-admission restores A (a journal access), then building C
        // pushes the dir over budget.
        let reg = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.clone()),
            cache_disk_bytes: Some(group * 5 / 2),
            ..RegistryConfig::default()
        });
        reg.get_or_load(&dsref(&path_c), LoadMode::Stream)
            .0
            .unwrap();

        assert!(
            !group_paths(&dir, &stem_of(&path_a)).is_empty(),
            "the just-restored key survives despite the oldest mtime"
        );
        assert!(
            group_paths(&dir, &stem_of(&path_b)).is_empty(),
            "the journal-unknown group is the eviction victim"
        );
        assert!(
            !group_paths(&dir, &stem_of(&path_c)).is_empty(),
            "the just-persisted group is protected"
        );
    }
}
