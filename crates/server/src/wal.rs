//! The registry's durability tier: a write-ahead journal + periodic
//! snapshot under the cache dir, so a restart (or a crash) resumes a
//! *warm* registry instead of an amnesiac one.
//!
//! Split out of `registry.rs` (PR 10); the registry emits the same
//! [`RegistryEvent`]s it always delivered to the `--log-json` sink,
//! and this module makes them durable:
//!
//! * **The journal** (`registry.wal`): one NDJSON line per lifecycle
//!   event — build, restore, evict, stale-rebuild, append-absorb,
//!   sketch-build, disk-GC, unload, purge — each carrying a monotone
//!   sequence number and a wall-clock timestamp. Lines are appended
//!   synchronously (the emitting paths are build/evict paths, which
//!   allocate and do I/O anyway) but **fsync'd off the request path**
//!   by a background flusher thread, so the zero-allocation `check`
//!   fast path ([`crate::registry::Registry::peek`] emits no events)
//!   never pays a write or a sync.
//! * **The snapshot** (`registry.snapshot`): when the journal grows
//!   past `--wal-max-bytes`, the flusher folds it into one JSON line —
//!   cumulative counters, the per-key last-access order, the resident
//!   set — published write-then-rename, then truncates the journal.
//!   Replay cost is therefore bounded regardless of uptime.
//! * **Counter records**: hits are far too hot to journal per event,
//!   so whenever any counter moved the flusher appends one `counters`
//!   record carrying all eight — the same fields as the `shutdown`
//!   record. It renders into a reused buffer and writes on the
//!   already-open journal descriptor, so the append is allocation-free:
//!   the flusher ticks *during* the zero-alloc steady state.
//!
//! **Recovery** is one replay of snapshot + journal tail: counters
//! resume as the elementwise max of (snapshot + replayed event deltas)
//! and the last `counters`/`shutdown` record (all are monotone), the
//! resident set is re-admitted from the warm tier in LRU order, and a
//! journal that does not *end* with a clean-shutdown record is crash
//! evidence — the registry's startup sweep then reclaims its `*.tmp`
//! debris immediately instead of waiting out the age gate. A torn
//! final record (a kill mid-write) is tolerated; recovery falls back
//! to the record before it. The clean-shutdown record itself is
//! written when the [`crate::registry::Registry`] drops (a SIGKILL
//! never runs drop, which is exactly the signal wanted).
//!
//! The journal assumes a single writer per cache dir, like any WAL;
//! artifact *files* remain safe to share (publish-by-rename), but two
//! live servers journaling into one dir interleave sequence numbers.
//!
//! `qid wal <dir> [--verify]` dumps and verifies the journal, the
//! snapshot and every artifact via [`inspect`].

use std::collections::HashMap;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::json::{self, obj, s, Json};
use crate::registry::RegistryEvent;

/// Journal file name under the cache dir.
pub const WAL_FILE: &str = "registry.wal";
/// Snapshot file name under the cache dir.
pub const SNAPSHOT_FILE: &str = "registry.snapshot";

/// True iff `name` is a temp file a snapshot rotation writes
/// (`registry.snapshot.<pid>.tmp`).
pub(crate) fn is_tmp(name: &str) -> bool {
    name.strip_prefix(SNAPSHOT_FILE)
        .is_some_and(|rest| rest.starts_with('.') && rest.ends_with(".tmp"))
}

/// Default `--wal-max-bytes`: how large the journal may grow before
/// the flusher folds it into the snapshot and truncates. Events are
/// ~100 bytes, so the default keeps tens of thousands of events of
/// forensic tail while bounding replay to a few milliseconds.
pub const DEFAULT_WAL_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// Snapshot format version; bump on layout change so old snapshots are
/// ignored (the journal alone still recovers counters and keys).
const SNAPSHOT_VERSION: i64 = 1;

/// How often the flusher thread syncs the journal and appends a
/// counters record. This is the crash-durability window: a kill -9
/// loses at most this much counter movement (journaled *events* are
/// written before their effects are observable and synced on the next
/// tick or event notification).
const FLUSH_INTERVAL: Duration = Duration::from_millis(100);

/// The registry's cumulative lifecycle counters as plain values — the
/// unit of counter durability. Every field is monotone over the
/// server's whole life *across restarts*, which is what lets recovery
/// take the elementwise max of independent durable sources.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that scanned the source.
    pub misses: u64,
    /// Lookups restored from the warm tier.
    pub disk_hits: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Source-change rebuilds.
    pub stale_rebuilds: u64,
    /// Sample-to-materialised upgrades.
    pub upgrades: u64,
    /// Appends absorbed incrementally.
    pub append_updates: u64,
    /// Entries refreshed by the background sweeper.
    pub sweep_refreshes: u64,
}

/// Field names in record/snapshot order — one list so the
/// allocation-free writer, the JSON reader, and the docs cannot drift.
const COUNTER_NAMES: [&str; 8] = [
    "hits",
    "misses",
    "disk_hits",
    "evictions",
    "stale_rebuilds",
    "upgrades",
    "append_updates",
    "sweep_refreshes",
];

impl CounterSet {
    fn as_array(&self) -> [u64; 8] {
        [
            self.hits,
            self.misses,
            self.disk_hits,
            self.evictions,
            self.stale_rebuilds,
            self.upgrades,
            self.append_updates,
            self.sweep_refreshes,
        ]
    }

    fn from_array(v: [u64; 8]) -> CounterSet {
        CounterSet {
            hits: v[0],
            misses: v[1],
            disk_hits: v[2],
            evictions: v[3],
            stale_rebuilds: v[4],
            upgrades: v[5],
            append_updates: v[6],
            sweep_refreshes: v[7],
        }
    }

    /// Elementwise max — counters are monotone, so the larger of two
    /// durable observations is always the later one.
    fn max_with(&mut self, other: &CounterSet) {
        let (mut a, b) = (self.as_array(), other.as_array());
        for (slot, v) in a.iter_mut().zip(b) {
            *slot = (*slot).max(v);
        }
        *self = CounterSet::from_array(a);
    }

    /// Reads the eight counter fields out of a JSON object; missing or
    /// malformed fields reject the whole set (a half-read record must
    /// not look authoritative).
    fn from_json(v: &Json) -> Option<CounterSet> {
        let mut out = [0u64; 8];
        for (slot, name) in out.iter_mut().zip(COUNTER_NAMES) {
            *slot = v.get(name)?.as_u64_lossless()?;
        }
        Some(CounterSet::from_array(out))
    }

    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        COUNTER_NAMES
            .iter()
            .zip(self.as_array())
            .map(|(&name, v)| (name, json::u64_value(v)))
            .collect()
    }
}

/// The registry's live lifecycle counters (atomic, shared between the
/// registry and the WAL flusher). Split out of the `Registry` struct
/// so the flusher thread can journal them without holding a reference
/// to the registry itself.
#[derive(Debug, Default)]
pub(crate) struct LifecycleCounters {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub disk_hits: AtomicU64,
    pub evictions: AtomicU64,
    pub stale_rebuilds: AtomicU64,
    pub upgrades: AtomicU64,
    pub append_updates: AtomicU64,
    pub sweep_refreshes: AtomicU64,
}

impl LifecycleCounters {
    /// A point-in-time copy of all eight counters.
    pub fn values(&self) -> CounterSet {
        CounterSet {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_rebuilds: self.stale_rebuilds.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            append_updates: self.append_updates.load(Ordering::Relaxed),
            sweep_refreshes: self.sweep_refreshes.load(Ordering::Relaxed),
        }
    }

    /// Seeds the atomics from recovered values (startup only, before
    /// any traffic).
    pub fn seed(&self, c: &CounterSet) {
        self.hits.store(c.hits, Ordering::Relaxed);
        self.misses.store(c.misses, Ordering::Relaxed);
        self.disk_hits.store(c.disk_hits, Ordering::Relaxed);
        self.evictions.store(c.evictions, Ordering::Relaxed);
        self.stale_rebuilds
            .store(c.stale_rebuilds, Ordering::Relaxed);
        self.upgrades.store(c.upgrades, Ordering::Relaxed);
        self.append_updates
            .store(c.append_updates, Ordering::Relaxed);
        self.sweep_refreshes
            .store(c.sweep_refreshes, Ordering::Relaxed);
    }
}

/// Per-key journal state: when the key was last touched (journal
/// sequence number — the disk-GC access order) and whether its entry
/// was resident at that point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyState {
    last_seq: u64,
    resident: bool,
}

/// Everything the writer mutates, under one lock. The request-path
/// cost of an *event* is one formatted line and one buffered `write`;
/// every `fsync` happens on the flusher thread.
#[derive(Debug)]
struct WalInner {
    log: File,
    /// Monotone over the journal's whole history, snapshots included.
    seq: u64,
    log_bytes: u64,
    /// Server lives including this one (once armed).
    lives: u64,
    keys: HashMap<u64, KeyState>,
    /// Counters as the *journal* proves them: the recovered base plus
    /// one increment per journaled event. Rotation folds these, not the
    /// live atomics, into the snapshot: a live value can run ahead of
    /// the journal (an eviction is counted just before it is recorded)
    /// or behind it (a resolution is counted just after its event), and
    /// folding it would count an event in both the snapshot and the
    /// post-rotation tail, or in neither.
    event_counters: CounterSet,
    /// Journal lines written since the last fsync.
    events_dirty: bool,
    /// Reused counters-record render buffer; capacity is reserved at
    /// arm time so steady-state counters records never allocate.
    record_buf: Vec<u8>,
    /// The counters as last journaled (or recovered).
    last_counters: CounterSet,
    stop: bool,
    closed: bool,
}

/// The write-ahead journal: owned by the registry (one per cache dir),
/// shared with its background flusher thread.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<WalInner>,
    tick: Condvar,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    recovery: WalReport,
}

impl Wal {
    /// Opens (creating the dir and files as needed) and replays the
    /// journal under `dir`. No records are written and no thread is
    /// spawned until [`Wal::arm`].
    pub fn open(dir: &Path, max_bytes: u64) -> std::io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let mut recovery = scan_dir(dir);
        // Recovery needs the replayed state, not the raw lines.
        recovery.lines = Vec::new();
        let log = File::options()
            .append(true)
            .create(true)
            .open(dir.join(WAL_FILE))?;
        let log_bytes = log.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Wal {
            dir: dir.to_path_buf(),
            max_bytes,
            inner: Mutex::new(WalInner {
                log,
                seq: recovery.seq,
                log_bytes,
                lives: recovery.restarts,
                keys: std::mem::take(&mut recovery.keys),
                event_counters: recovery.counters,
                events_dirty: false,
                record_buf: Vec::new(),
                last_counters: recovery.counters,
                stop: false,
                closed: false,
            }),
            tick: Condvar::new(),
            flusher: Mutex::new(None),
            recovery,
        })
    }

    /// What [`Wal::open`] recovered.
    pub fn recovery(&self) -> &WalReport {
        &self.recovery
    }

    /// Starts this life: journals the `open` record (restart evidence
    /// for the next replay), reserves the counters-record buffer, and
    /// spawns the background flusher that owns every fsync.
    pub fn arm(self: &Arc<Self>, counters: Arc<LifecycleCounters>) {
        {
            let mut inner = self.inner.lock().expect("wal lock");
            inner.lives += 1;
            // Steady-state counters records must not allocate; a
            // rendered line is bounded well under this (the header + 8
            // names + 8 u64s), so one up-front reservation is enough.
            inner.record_buf.reserve(1024);
            let restarts = inner.lives - 1;
            let line = format!(
                "{{\"seq\":{},\"ts_ms\":{},\"ev\":\"open\",\"restarts\":{},\"pid\":{}}}\n",
                inner.seq + 1,
                unix_ms(),
                restarts,
                std::process::id()
            );
            self.append_locked(&mut inner, &line);
            let _ = inner.log.sync_data();
            inner.events_dirty = false;
        }
        let wal = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("qid-wal".to_string())
            .spawn(move || wal.flusher_loop(&counters))
            .expect("spawn wal flusher");
        *self.flusher.lock().expect("wal flusher lock") = Some(handle);
    }

    /// Journals one lifecycle event. Called from the registry's build,
    /// evict, and GC paths — never from the served-hit fast path,
    /// which emits no events. The write is buffered-synchronous; the
    /// fsync is the flusher's job (it is nudged so durability lags by
    /// microseconds, not a full tick).
    pub fn record(&self, event: RegistryEvent) {
        let mut inner = self.inner.lock().expect("wal lock");
        if inner.closed {
            return;
        }
        let seq = inner.seq + 1;
        let (ev, key, bytes) = describe(&event);
        let mut line = format!("{{\"seq\":{seq},\"ts_ms\":{},\"ev\":\"{ev}\"", unix_ms());
        if let Some(key) = key {
            line.push_str(&format!(",\"key\":\"{key:016x}\""));
        }
        match event {
            RegistryEvent::Purged { entries, files } => {
                line.push_str(&format!(",\"entries\":{entries},\"files\":{files}"));
            }
            _ => {
                if let Some(bytes) = bytes {
                    line.push_str(&format!(",\"bytes\":{bytes}"));
                }
            }
        }
        line.push_str("}\n");
        self.append_locked(&mut inner, &line);
        let WalInner {
            keys,
            event_counters,
            ..
        } = &mut *inner;
        apply_event(keys, event_counters, seq, &event);
        drop(inner);
        // Nudge the flusher: the event reaches the platter on its next
        // wake, not a full FLUSH_INTERVAL later.
        self.tick.notify_one();
    }

    /// The journal-derived last-access sequence per key stem, for the
    /// disk-GC victim ordering. A stem the journal has never seen maps
    /// to no entry (the GC treats it as least recently used).
    pub fn last_access(&self) -> HashMap<u64, u64> {
        self.inner
            .lock()
            .expect("wal lock")
            .keys
            .iter()
            .map(|(&stem, st)| (stem, st.last_seq))
            .collect()
    }

    /// Clean shutdown: the `shutdown` record (with the final counters
    /// inline, so a clean restart is exact), a final fsync, and the
    /// flusher joined. Idempotent; called from the registry's `Drop` —
    /// which a SIGKILL never runs, making the record's *absence* the
    /// crash evidence recovery keys off.
    pub fn close(&self, counters: &LifecycleCounters) {
        {
            let mut inner = self.inner.lock().expect("wal lock");
            if inner.closed {
                return;
            }
            inner.closed = true;
            inner.stop = true;
            self.append_counters_locked(&mut inner, &counters.values(), "shutdown");
            let _ = inner.log.sync_data();
            inner.events_dirty = false;
        }
        self.tick.notify_all();
        let handle = self.flusher.lock().expect("wal flusher lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    // ---------------------------------------------------- internals

    /// Appends a pre-rendered line and advances the sequence number.
    fn append_locked(&self, inner: &mut WalInner, line: &str) {
        inner.seq += 1;
        if inner.log.write_all(line.as_bytes()).is_ok() {
            inner.log_bytes += line.len() as u64;
            inner.events_dirty = true;
        }
    }

    /// Appends a record carrying all eight counters — `ev` is
    /// `counters` from the flusher, `shutdown` from [`Wal::close`].
    /// Manual rendering into the reused buffer on the long-lived
    /// descriptor keeps it allocation-free: the flusher appends these
    /// inside the zero-alloc steady state.
    fn append_counters_locked(&self, inner: &mut WalInner, cur: &CounterSet, ev: &str) {
        let WalInner {
            log,
            seq,
            log_bytes,
            events_dirty,
            record_buf: buf,
            last_counters,
            ..
        } = inner;
        *seq += 1;
        buf.clear();
        buf.extend_from_slice(b"{\"seq\":");
        push_u64(buf, *seq);
        buf.extend_from_slice(b",\"ts_ms\":");
        push_u64(buf, unix_ms());
        buf.extend_from_slice(b",\"ev\":\"");
        buf.extend_from_slice(ev.as_bytes());
        buf.push(b'"');
        for (name, v) in COUNTER_NAMES.iter().zip(cur.as_array()) {
            buf.extend_from_slice(b",\"");
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(b"\":");
            push_u64(buf, v);
        }
        buf.extend_from_slice(b"}\n");
        if log.write_all(buf).is_ok() {
            *log_bytes += buf.len() as u64;
            *events_dirty = true;
            *last_counters = *cur;
        }
    }

    /// The flusher thread: wakes on event notifications (fast
    /// durability) or every [`FLUSH_INTERVAL`] (counter movement),
    /// appends a counters record when any counter moved, syncs the
    /// journal, and rotates it past `max_bytes`. An idle tick — no
    /// events, no counter movement — does nothing and allocates
    /// nothing, so the thread can run alongside the zero-allocation
    /// steady state; only a rotation allocates.
    fn flusher_loop(&self, counters: &LifecycleCounters) {
        let mut inner = self.inner.lock().expect("wal lock");
        loop {
            if inner.stop {
                return;
            }
            let (guard, _) = self
                .tick
                .wait_timeout(inner, FLUSH_INTERVAL)
                .expect("wal lock");
            inner = guard;
            if inner.stop {
                return;
            }
            let cur = counters.values();
            if cur != inner.last_counters {
                self.append_counters_locked(&mut inner, &cur, "counters");
            }
            if inner.events_dirty {
                let _ = inner.log.sync_data();
                inner.events_dirty = false;
                if inner.log_bytes > self.max_bytes {
                    self.rotate_locked(&mut inner, counters);
                }
            }
        }
    }

    /// Folds the journal into the snapshot (write + fsync + rename)
    /// and truncates it. Reached only once the journal outgrows
    /// `max_bytes`, so its allocations stay out of the steady state.
    fn rotate_locked(&self, inner: &mut WalInner, counters: &LifecycleCounters) {
        // Evented counters come from the journal-proved set (see
        // `WalInner::event_counters`); the never-journaled three come
        // from the live atomics, which are their only durable source.
        let live = counters.values();
        let mut folded = inner.event_counters;
        folded.hits = folded.hits.max(live.hits);
        folded.upgrades = folded.upgrades.max(live.upgrades);
        folded.sweep_refreshes = folded.sweep_refreshes.max(live.sweep_refreshes);
        let mut keys: Vec<(u64, KeyState)> = inner.keys.iter().map(|(&k, &v)| (k, v)).collect();
        keys.sort_by_key(|&(stem, st)| (st.last_seq, stem));
        let keys_json = Json::Arr(
            keys.iter()
                .map(|&(stem, st)| {
                    obj(vec![
                        ("key", s(format!("{stem:016x}"))),
                        ("seq", json::u64_value(st.last_seq)),
                        ("res", Json::Bool(st.resident)),
                    ])
                })
                .collect(),
        );
        let line = format!(
            "{}\n",
            obj(vec![
                ("version", Json::Int(SNAPSHOT_VERSION)),
                ("seq", json::u64_value(inner.seq)),
                ("lives", json::u64_value(inner.lives)),
                ("counters", obj(folded.json_fields())),
                ("keys", keys_json),
            ])
            .render()
        );
        let tmp = self
            .dir
            .join(format!("{SNAPSHOT_FILE}.{}.tmp", std::process::id()));
        let written = File::create(&tmp).and_then(|mut f| {
            f.write_all(line.as_bytes())?;
            f.sync_data()
        });
        if written.is_ok()
            && std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE)).is_ok()
            && inner.log.set_len(0).is_ok()
        {
            inner.log_bytes = 0;
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// A lifecycle event's journal name, key stem and byte count.
fn describe(event: &RegistryEvent) -> (&'static str, Option<u64>, Option<u64>) {
    match *event {
        RegistryEvent::Built { key, bytes } => ("build", Some(key), Some(bytes)),
        RegistryEvent::Restored { key, bytes } => ("restore", Some(key), Some(bytes)),
        RegistryEvent::Evicted { key, bytes } => ("evict", Some(key), Some(bytes)),
        RegistryEvent::StaleRebuild { key } => ("stale_rebuild", Some(key), None),
        RegistryEvent::AppendUpdate { key, bytes } => ("append_absorb", Some(key), Some(bytes)),
        RegistryEvent::SketchBuilt { key, bytes } => ("sketch_build", Some(key), Some(bytes)),
        RegistryEvent::DiskEvicted { key, bytes } => ("disk_gc", Some(key), Some(bytes)),
        RegistryEvent::Unloaded { key } => ("unload", Some(key), None),
        RegistryEvent::Purged { .. } => ("purge", None, None),
    }
}

/// Applies one journaled event to the per-key state map and to the
/// counters it determines exactly. Hits, upgrades, and sweep refreshes
/// have no per-event record (they resume from counters records), so a
/// crash loses at most [`FLUSH_INTERVAL`] of their movement.
fn apply_event(
    keys: &mut HashMap<u64, KeyState>,
    counters: &mut CounterSet,
    seq: u64,
    event: &RegistryEvent,
) {
    let resident = match *event {
        RegistryEvent::Built { .. } => {
            counters.misses += 1;
            true
        }
        RegistryEvent::Restored { .. } => {
            counters.disk_hits += 1;
            true
        }
        RegistryEvent::StaleRebuild { .. } => {
            counters.stale_rebuilds += 1;
            true
        }
        RegistryEvent::AppendUpdate { .. } => {
            counters.append_updates += 1;
            true
        }
        RegistryEvent::SketchBuilt { .. } => true,
        RegistryEvent::Evicted { .. } => {
            counters.evictions += 1;
            false
        }
        // Unload and disk GC destroy the artifact too: the key has no
        // warm-tier presence left, so it leaves the access map rather
        // than lingering as a "recently used" ghost.
        RegistryEvent::Unloaded { key } | RegistryEvent::DiskEvicted { key, .. } => {
            keys.remove(&key);
            return;
        }
        RegistryEvent::Purged { .. } => {
            keys.clear();
            return;
        }
    };
    if let (_, Some(key), _) = describe(event) {
        keys.insert(
            key,
            KeyState {
                last_seq: seq,
                resident,
            },
        );
    }
}

// ------------------------------------------------------------ replay

/// What replaying a cache dir's snapshot + journal found: the state
/// the journal hands the registry at startup, and — with every
/// artifact decoded by [`inspect`] — what `qid wal <dir>` prints.
#[derive(Debug, Default)]
pub struct WalReport {
    /// Snapshot's folded sequence number, if a snapshot exists.
    pub snapshot_seq: Option<u64>,
    /// Key stems carried by the snapshot.
    pub snapshot_keys: usize,
    /// Prior server lives: snapshot base + `open` records in the
    /// journal — the value behind `qid_restarts_total`. `0` on a first
    /// boot.
    pub restarts: u64,
    /// Journal records replayed (snapshot state excluded).
    pub events: u64,
    /// First and last journal sequence numbers (`0` when empty).
    pub first_seq: u64,
    /// See [`WalReport::first_seq`].
    pub last_seq: u64,
    /// True iff the journal ends with a clean-shutdown record; its
    /// absence on a non-empty journal is crash evidence, not an error.
    pub clean_shutdown: bool,
    /// The journal's final line is partial — the normal signature of a
    /// kill mid-write.
    pub torn_tail: bool,
    /// True iff a journal or snapshot existed at all. Crash evidence is
    /// `had_journal && !clean_shutdown` — a missing journal is a first
    /// boot, not a crash.
    pub had_journal: bool,
    /// Key stems resident at the end of the journal, LRU order (least
    /// recently touched first) — the re-admission work list.
    pub resident: Vec<u64>,
    /// Recovered cumulative counters: the elementwise max of the
    /// snapshot plus journal-derived deltas, and the last
    /// `counters`/`shutdown` record.
    pub counters: CounterSet,
    /// Consistency problems (non-monotone sequence numbers, interior
    /// corruption, artifacts that fail their checksum or decode).
    /// Empty means the cache dir verifies.
    pub issues: Vec<String>,
    /// The raw journal lines, for the dump mode.
    pub lines: Vec<String>,
    /// Every artifact in the dir, fully decoded, by stem ([`inspect`]
    /// only).
    pub artifacts: Vec<crate::artifact::ArtifactInfo>,
    /// Highest sequence number observed.
    seq: u64,
    /// The last `counters`/`shutdown` record's counters.
    recorded: CounterSet,
    keys: HashMap<u64, KeyState>,
}

/// Reads and replays snapshot and journal.
fn scan_dir(dir: &Path) -> WalReport {
    let mut scan = WalReport::default();

    // Snapshot first: it is the journal's folded prefix.
    if let Ok(text) = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)) {
        scan.had_journal = true;
        match json::parse(text.trim()) {
            Ok(v) if v.get("version").and_then(Json::as_i64) == Some(SNAPSHOT_VERSION) => {
                scan.seq = v.get("seq").and_then(Json::as_u64_lossless).unwrap_or(0);
                scan.snapshot_seq = Some(scan.seq);
                scan.restarts = v.get("lives").and_then(Json::as_u64_lossless).unwrap_or(0);
                if let Some(c) = v.get("counters").and_then(CounterSet::from_json) {
                    scan.counters = c;
                }
                if let Some(keys) = v.get("keys").and_then(Json::as_arr) {
                    for k in keys {
                        let stem = k
                            .get("key")
                            .and_then(Json::as_str)
                            .and_then(|h| u64::from_str_radix(h, 16).ok());
                        let seq = k.get("seq").and_then(Json::as_u64_lossless);
                        let res = k.get("res").and_then(Json::as_bool);
                        if let (Some(stem), Some(seq), Some(res)) = (stem, seq, res) {
                            scan.keys.insert(
                                stem,
                                KeyState {
                                    last_seq: seq,
                                    resident: res,
                                },
                            );
                            scan.snapshot_keys += 1;
                        } else {
                            scan.issues
                                .push("snapshot: malformed key entry".to_string());
                        }
                    }
                }
            }
            Ok(_) => scan
                .issues
                .push("snapshot: unknown version (ignored)".to_string()),
            Err(_) => scan
                .issues
                .push("snapshot: unparseable JSON (ignored)".to_string()),
        }
    }

    // The journal tail.
    if let Ok(text) = std::fs::read_to_string(dir.join(WAL_FILE)) {
        if !text.is_empty() {
            scan.had_journal = true;
        }
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let last_idx = lines.len().saturating_sub(1);
        for (idx, line) in lines.iter().enumerate() {
            scan.lines.push((*line).to_string());
            match parse_record(line) {
                // Already folded into the snapshot: a kill between the
                // rotation's rename and its truncate leaves these behind,
                // and applying them again would double-count.
                Some((seq, _)) if scan.snapshot_seq.is_some_and(|folded| seq <= folded) => {}
                Some((seq, rec)) => {
                    if seq <= scan.seq {
                        scan.issues.push(format!(
                            "journal line {}: seq {seq} not after {}",
                            idx + 1,
                            scan.seq
                        ));
                    }
                    scan.seq = seq;
                    if scan.first_seq == 0 {
                        scan.first_seq = seq;
                    }
                    scan.last_seq = seq;
                    scan.events += 1;
                    scan.clean_shutdown = matches!(rec, Record::Counters { shutdown: true, .. });
                    match rec {
                        Record::Open => scan.restarts += 1,
                        Record::Event(event) => {
                            apply_event(&mut scan.keys, &mut scan.counters, seq, &event);
                        }
                        Record::Counters { counters, .. } => scan.recorded = counters,
                    }
                }
                None if idx == last_idx => {
                    // A partial final line is the normal kill-mid-write
                    // signature — tolerated, but it means the journal
                    // does not *end* with a shutdown record.
                    scan.torn_tail = true;
                    scan.clean_shutdown = false;
                }
                None => scan.issues.push(format!(
                    "journal line {}: unparseable interior record",
                    idx + 1
                )),
            }
        }
    }

    // `scan.counters` so far is the journal-proved floor; the last
    // counters record is an independent monotone observation, so the
    // elementwise max of the two is the latest durable truth.
    let recorded = scan.recorded;
    scan.counters.max_with(&recorded);
    let mut resident: Vec<(u64, u64)> = scan
        .keys
        .iter()
        .filter(|(_, st)| st.resident)
        .map(|(&stem, st)| (st.last_seq, stem))
        .collect();
    resident.sort_unstable();
    scan.resident = resident.into_iter().map(|(_, stem)| stem).collect();
    scan
}

/// One parsed journal record — only what replay acts on.
enum Record {
    /// A server life began.
    Open,
    /// A lifecycle event.
    Event(RegistryEvent),
    /// A `counters` record, or the `shutdown` record.
    Counters {
        counters: CounterSet,
        shutdown: bool,
    },
}

/// Parses one journal line into its sequence number and record; `None`
/// for a torn or unknown line.
fn parse_record(line: &str) -> Option<(u64, Record)> {
    let v = json::parse(line.trim()).ok()?;
    let seq = v.get("seq")?.as_u64_lossless()?;
    let key = || {
        v.get("key")
            .and_then(Json::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
    };
    let event = match v.get("ev").and_then(Json::as_str)? {
        "open" => return Some((seq, Record::Open)),
        ev @ ("counters" | "shutdown") => {
            let counters = CounterSet::from_json(&v)?;
            let shutdown = ev == "shutdown";
            return Some((seq, Record::Counters { counters, shutdown }));
        }
        "purge" => RegistryEvent::Purged {
            entries: 0,
            files: 0,
        },
        "build" => RegistryEvent::Built {
            key: key()?,
            bytes: 0,
        },
        "restore" => RegistryEvent::Restored {
            key: key()?,
            bytes: 0,
        },
        "evict" => RegistryEvent::Evicted {
            key: key()?,
            bytes: 0,
        },
        "stale_rebuild" => RegistryEvent::StaleRebuild { key: key()? },
        "append_absorb" => RegistryEvent::AppendUpdate {
            key: key()?,
            bytes: 0,
        },
        "sketch_build" => RegistryEvent::SketchBuilt {
            key: key()?,
            bytes: 0,
        },
        "disk_gc" => RegistryEvent::DiskEvicted {
            key: key()?,
            bytes: 0,
        },
        "unload" => RegistryEvent::Unloaded { key: key()? },
        _ => return None,
    };
    Some((seq, Record::Event(event)))
}

// ----------------------------------------------------------- inspect

/// Reads and verifies the journal, snapshot and artifacts under `dir`
/// without touching them — the engine behind `qid wal <dir>
/// [--verify]`.
pub fn inspect(dir: &Path) -> WalReport {
    let mut report = scan_dir(dir);
    report.artifacts = crate::artifact::inspect(dir);
    for a in &report.artifacts {
        if let Err(why) = &a.contents {
            report
                .issues
                .push(format!("artifact {:016x}: {why}", a.stem));
        }
    }
    report
}

// ----------------------------------------------------------- helpers

/// Milliseconds since the Unix epoch (journal record timestamps).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Appends `v`'s decimal digits — no formatting machinery, no
/// allocation (the counters-record writer runs inside the zero-alloc
/// steady state).
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&tmp[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Wal {
        /// Tears the flusher down *without* a shutdown record — the
        /// next open sees crash evidence, exactly as if the process had
        /// been killed.
        pub(crate) fn abort_for_test(&self) {
            {
                let mut inner = self.inner.lock().expect("wal lock");
                if inner.closed {
                    return;
                }
                inner.closed = true;
                inner.stop = true;
                let _ = inner.log.sync_data();
            }
            self.tick.notify_all();
            let handle = self.flusher.lock().expect("wal flusher lock").take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }

    /// Reads a whole file; empty/absent files read as empty strings.
    fn read_all(path: &Path) -> String {
        use std::io::Read as _;
        let mut out = String::new();
        if let Ok(mut f) = File::open(path) {
            let _ = f.read_to_string(&mut out);
        }
        out
    }

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qid-wal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn armed(dir: &Path, max_bytes: u64) -> (Arc<Wal>, Arc<LifecycleCounters>) {
        let wal = Arc::new(Wal::open(dir, max_bytes).expect("wal open"));
        let counters = Arc::new(LifecycleCounters::default());
        counters.seed(&wal.recovery().counters);
        wal.arm(Arc::clone(&counters));
        (wal, counters)
    }

    #[test]
    fn journal_roundtrips_events_counters_and_resident_set() {
        let dir = unique_dir("roundtrip");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            assert_eq!(wal.recovery().restarts, 0);
            assert!(!wal.recovery().had_journal);
            wal.record(RegistryEvent::Built {
                key: 0xa1,
                bytes: 10,
            });
            wal.record(RegistryEvent::Built {
                key: 0xb2,
                bytes: 20,
            });
            wal.record(RegistryEvent::Restored {
                key: 0xa1,
                bytes: 10,
            });
            wal.record(RegistryEvent::Evicted {
                key: 0xb2,
                bytes: 20,
            });
            counters.hits.store(41, Ordering::Relaxed);
            counters.misses.store(2, Ordering::Relaxed);
            wal.close(&counters);
        }
        let wal = Wal::open(&dir, DEFAULT_WAL_MAX_BYTES).expect("reopen");
        let r = wal.recovery();
        assert_eq!(r.restarts, 1, "one prior life");
        assert!(r.clean_shutdown);
        assert!(r.had_journal);
        assert_eq!(r.counters.misses, 2);
        assert_eq!(r.counters.disk_hits, 1);
        assert_eq!(r.counters.evictions, 1);
        assert_eq!(r.counters.hits, 41, "hits resume from the shutdown record");
        // b2 was evicted; a1 was restored last and stays resident.
        assert_eq!(r.resident, vec![0xa1]);
    }

    #[test]
    fn crash_without_shutdown_record_is_detected_and_counters_survive() {
        let dir = unique_dir("crash");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            wal.record(RegistryEvent::Built {
                key: 0xc3,
                bytes: 5,
            });
            counters.misses.store(1, Ordering::Relaxed);
            counters.hits.store(9, Ordering::Relaxed);
            // Let the flusher journal the moved counters.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while inspect(&dir).counters.hits < 9 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "counters record not written"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            wal.abort_for_test();
        }
        let wal = Wal::open(&dir, DEFAULT_WAL_MAX_BYTES).expect("reopen");
        let r = wal.recovery();
        assert!(r.had_journal && !r.clean_shutdown, "crash evidence");
        assert_eq!(r.counters.misses, 1, "event-derived");
        assert_eq!(r.counters.hits, 9, "counters-record-derived");
        assert!(
            read_all(&dir.join(WAL_FILE)).contains("\"ev\":\"counters\""),
            "hits ride the journal as a counters record"
        );
        assert_eq!(r.resident, vec![0xc3]);
    }

    #[test]
    fn torn_tail_is_tolerated_but_interior_garbage_is_an_issue() {
        let dir = unique_dir("torn");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            wal.record(RegistryEvent::Built { key: 1, bytes: 1 });
            wal.close(&counters);
        }
        // A kill mid-write leaves a partial final line.
        let mut f = File::options()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(b"{\"seq\":99,\"ts_ms\":1,\"ev\":\"bui")
            .unwrap();
        drop(f);
        let report = inspect(&dir);
        assert!(report.torn_tail);
        assert!(report.issues.is_empty(), "a torn tail is not corruption");
        assert!(
            !report.clean_shutdown,
            "records after the shutdown line void the clean flag"
        );

        // Garbage *before* valid records is real corruption.
        let text = read_all(&dir.join(WAL_FILE));
        let rewritten = text.replacen("\"ev\":\"open\"", "\"ev\":\"nonsense\"", 1);
        std::fs::write(dir.join(WAL_FILE), rewritten).unwrap();
        let report = inspect(&dir);
        assert!(
            report
                .issues
                .iter()
                .any(|i| i.contains("unparseable interior")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn snapshot_rotation_bounds_the_journal_and_preserves_state() {
        let dir = unique_dir("rotate");
        {
            // A tiny budget forces rotation almost immediately.
            let (wal, counters) = armed(&dir, 512);
            for i in 0..64u64 {
                wal.record(RegistryEvent::Built {
                    key: i + 1,
                    bytes: 1,
                });
            }
            // The flusher rotates on its next tick; wait for it.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !dir.join(SNAPSHOT_FILE).exists() {
                assert!(std::time::Instant::now() < deadline, "no rotation");
                std::thread::sleep(Duration::from_millis(10));
            }
            wal.close(&counters);
        }
        let wal = Wal::open(&dir, 512).expect("reopen");
        let r = wal.recovery();
        assert_eq!(r.counters.misses, 64, "deltas survive the fold");
        assert_eq!(r.resident.len(), 64, "resident set survives the fold");
        assert_eq!(
            *r.resident.last().unwrap(),
            64,
            "LRU order: the newest build is last"
        );
        let report = inspect(&dir);
        assert!(report.issues.is_empty(), "issues: {:?}", report.issues);
        assert!(report.snapshot_seq.is_some());
    }

    #[test]
    fn a_kill_between_snapshot_rename_and_truncate_replays_nothing_twice() {
        let dir = unique_dir("rotate-kill");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            for i in 0..64u64 {
                wal.record(RegistryEvent::Built {
                    key: i + 1,
                    bytes: 1,
                });
            }
            // Fold the journal into the snapshot, then put the folded
            // records back: the state a kill leaves when it lands after
            // the snapshot rename but before the journal truncate.
            let journal = read_all(&dir.join(WAL_FILE));
            wal.rotate_locked(&mut wal.inner.lock().unwrap(), &counters);
            assert!(dir.join(SNAPSHOT_FILE).exists());
            wal.abort_for_test();
            std::fs::write(dir.join(WAL_FILE), journal).unwrap();
        }
        let wal = Wal::open(&dir, DEFAULT_WAL_MAX_BYTES).expect("reopen");
        let r = wal.recovery();
        assert_eq!(r.counters.misses, 64, "each build replays once");
        assert_eq!(r.restarts, 1, "the folded open record counts once");
        assert_eq!(r.resident.len(), 64);
        let report = inspect(&dir);
        assert!(report.issues.is_empty(), "issues: {:?}", report.issues);
    }

    #[test]
    fn a_torn_counters_record_falls_back_to_the_record_before() {
        let dir = unique_dir("torn-counters");
        {
            let (wal, counters) = armed(&dir, DEFAULT_WAL_MAX_BYTES);
            counters.hits.store(1234, Ordering::Relaxed);
            wal.close(&counters);
        }
        // A kill mid-append leaves a partial counters record after the
        // shutdown record: a tolerated torn tail, not corruption, and
        // recovery resumes from the last complete record.
        let mut f = File::options()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(b"{\"seq\":99,\"ts_ms\":1,\"ev\":\"counters\",\"hits\":98")
            .unwrap();
        drop(f);
        let report = inspect(&dir);
        assert!(report.torn_tail);
        assert!(report.issues.is_empty(), "issues: {:?}", report.issues);
        assert_eq!(report.counters.hits, 1234);
    }

    #[test]
    fn decimal_render_is_exact_at_the_extremes() {
        let mut buf = Vec::with_capacity(1024);
        push_u64(&mut buf, 0);
        push_u64(&mut buf, 18_446_744_073_709_551_615);
        assert_eq!(buf, b"018446744073709551615");
    }
}
