//! Flight recorder: per-request tracing, Prometheus exposition, and
//! slow-request forensics.
//!
//! Three surfaces share this module:
//!
//! 1. **Per-request spans.** Every request gets a monotonic id and a
//!    fixed-size `SpanRecord` (command, dataset-key hash, queue /
//!    serve / write phase timings, bytes in/out, outcome). The thread
//!    serving a wake (its poller shard, or a worker after a hand-off)
//!    writes records into a preallocated per-connection
//!    [`PendingSpans`] arena inside `Scratch` — no allocation on the
//!    steady-state `check` fast path — and the poller-wake epilogue
//!    publishes them by copy into a lock-light `TraceRing`. The
//!    `trace` protocol command reads the ring live.
//!
//! 2. **Prometheus text exposition.** `prometheus_text` renders the
//!    server's counters, gauges, and log₂ latency histograms in the
//!    text format 0.0.4; `metrics_listener_loop` serves it over a
//!    hand-rolled HTTP GET handler on `--metrics-addr` (std-only, in
//!    keeping with the repo's no-deps discipline).
//!
//! 3. **Structured event log.** Requests slower than `--slow-ms` emit
//!    one NDJSON line to stderr with the full span breakdown; registry
//!    lifecycle events (build, restore, evict, stale rebuild, unload,
//!    purge) and connection-hardening rejections log the same way
//!    behind `--log-json`.
//!
//! # Ring-buffer semantics
//!
//! The ring is a seqlock per slot: writers claim a ticket with one
//! `fetch_add` on `head`, then CAS the slot's sequence number from
//! even to odd, store the record words, and release the sequence at
//! `seq + 2`. A writer that loses the CAS (another writer lapped the
//! ring onto the same slot) drops its record and counts it — writers
//! never block, never spin, and never allocate. Readers snapshot
//! newest-first and skip slots whose sequence changes mid-read, so a
//! torn record is never observed. The ring is forensics, not an audit
//! log: under overload the oldest records are overwritten and a
//! `qid_trace_spans_dropped_total` counter owns the loss.

use std::io::{Read as _, Write as IoWrite};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::metrics::{COMMAND_NAMES, LATENCY_BUCKETS};
use crate::proto::TraceSpan;
use crate::registry::RegistryEvent;
use crate::server::ServerState;

/// The crate version baked into `qid_build_info` and the `metrics`
/// JSON response.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Span outcome: the request was answered successfully.
pub(crate) const OUTCOME_OK: u8 = 0;
/// Span outcome: the server answered with a structured error.
pub(crate) const OUTCOME_ERROR: u8 = 1;
/// Span outcome: the line failed to parse as any request.
pub(crate) const OUTCOME_PROTOCOL: u8 = 2;
/// Span outcome: the line crossed `--max-line-bytes`.
pub(crate) const OUTCOME_OVERSIZE: u8 = 3;
/// Span outcome: the connection's token bucket rejected the line.
pub(crate) const OUTCOME_RATE_LIMITED: u8 = 4;

/// Command code for spans with no decodable command (protocol errors,
/// oversize and rate-limited rejections).
pub(crate) const CMD_NONE: u8 = u8::MAX;

/// Command code of `check` — the fast path stamps this constant
/// instead of scanning [`COMMAND_NAMES`]. Pinned by a unit test.
pub(crate) const CMD_CHECK: u8 = 3;

/// Human label for a span outcome code.
pub(crate) fn outcome_label(outcome: u8) -> &'static str {
    match outcome {
        OUTCOME_OK => "ok",
        OUTCOME_ERROR => "error",
        OUTCOME_PROTOCOL => "protocol_error",
        OUTCOME_OVERSIZE => "rejected_oversize",
        OUTCOME_RATE_LIMITED => "rejected_rate",
        _ => "unknown",
    }
}

/// Command code for a wire command name (index into
/// [`COMMAND_NAMES`]), or [`CMD_NONE`] when unknown.
pub(crate) fn command_code(name: &str) -> u8 {
    COMMAND_NAMES
        .iter()
        .position(|&n| n == name)
        .map_or(CMD_NONE, |i| i as u8)
}

/// Human label for a command code.
pub(crate) fn command_label(code: u8) -> &'static str {
    COMMAND_NAMES.get(code as usize).copied().unwrap_or("-")
}

/// Words per packed span record in the ring.
pub(crate) const SPAN_WORDS: usize = 9;

/// One request's span: fixed-size, `Copy`, allocation-free to fill.
///
/// Timings are microseconds. `queue_us` is the wait between the
/// poller handing the connection to the worker pool and a worker
/// picking it up (shared by every request the worker serves in that
/// wake); it is 0 for a request answered inline on the poller shard,
/// including those the shard answered before a hand-off;
/// `write_us` is the wake's response-flush time, likewise shared.
/// `end_us` is the publish instant, measured from server start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SpanRecord {
    /// Monotonic request id (1-based; 0 = unset).
    pub id: u64,
    /// Command code (index into [`COMMAND_NAMES`], or [`CMD_NONE`]).
    pub command: u8,
    /// Outcome code (`OUTCOME_*`).
    pub outcome: u8,
    /// FNV-1a hash of the dataset cache key; 0 when no dataset was
    /// resolved. Matches the registry's persistence file stem.
    pub key_hash: u64,
    /// Queue wait before a worker picked the wake up, µs; 0 when the
    /// poller shard answered the request inline.
    pub queue_us: u64,
    /// Serve time for this request, on the shard or the worker, µs.
    pub serve_us: u64,
    /// Response write/flush time for the wake, µs.
    pub write_us: u64,
    /// Request-line bytes.
    pub bytes_in: u64,
    /// Response bytes produced by this request.
    pub bytes_out: u64,
    /// Publish time, µs since server start.
    pub end_us: u64,
}

impl SpanRecord {
    /// Packs the record into the ring's word layout.
    fn to_words(self) -> [u64; SPAN_WORDS] {
        [
            self.id,
            (u64::from(self.command) << 8) | u64::from(self.outcome),
            self.key_hash,
            self.queue_us,
            self.serve_us,
            self.write_us,
            self.bytes_in,
            self.bytes_out,
            self.end_us,
        ]
    }

    /// Unpacks a record from the ring's word layout.
    fn from_words(words: &[u64; SPAN_WORDS]) -> SpanRecord {
        SpanRecord {
            id: words[0],
            command: (words[1] >> 8) as u8,
            outcome: words[1] as u8,
            key_hash: words[2],
            queue_us: words[3],
            serve_us: words[4],
            write_us: words[5],
            bytes_in: words[6],
            bytes_out: words[7],
            end_us: words[8],
        }
    }

    /// Total request latency (queue + serve + write), µs.
    fn total_us(&self) -> u64 {
        self.queue_us
            .saturating_add(self.serve_us)
            .saturating_add(self.write_us)
    }
}

/// One seqlock-protected ring slot.
#[derive(Debug, Default)]
struct RingSlot {
    /// Even = stable, odd = a writer owns the slot. 0 = never written.
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

/// Spans retained by the `trace` command: the ring's slot count.
pub(crate) const TRACE_RING_SLOTS: usize = 4096;

/// Fixed-size lock-light span ring. See the module docs for the
/// seqlock protocol.
#[derive(Debug)]
pub(crate) struct TraceRing {
    slots: Box<[RingSlot]>,
    /// Next ticket; slot = ticket mod slot count.
    head: AtomicU64,
    /// Records dropped because a concurrent writer held the slot.
    dropped: AtomicU64,
}

impl TraceRing {
    /// Creates a ring with `slots` slots (all empty).
    fn new(slots: usize) -> TraceRing {
        TraceRing {
            slots: (0..slots.max(1)).map(|_| RingSlot::default()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Publishes one record by copy. Never blocks, never allocates; on
    /// writer collision the record is dropped and counted.
    fn publish(&self, record: &SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (word, value) in slot.words.iter().zip(record.to_words()) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Snapshots up to `max` stable records, newest first. Slots torn
    /// by a concurrent writer are skipped, not mis-read. The reader
    /// allocates — it runs on the `trace` command path, never on the
    /// serving fast path.
    fn snapshot(&self, max: usize) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire);
        let slots = self.slots.len() as u64;
        let mut out = Vec::with_capacity(max.min(self.slots.len()));
        for back in 0..head.min(slots) {
            if out.len() >= max {
                break;
            }
            let slot = &self.slots[((head - 1 - back) % slots) as usize];
            for _attempt in 0..2 {
                let before = slot.seq.load(Ordering::Acquire);
                if before == 0 || before & 1 == 1 {
                    break;
                }
                let mut words = [0u64; SPAN_WORDS];
                for (dst, word) in words.iter_mut().zip(&slot.words) {
                    *dst = word.load(Ordering::Acquire);
                }
                if slot.seq.load(Ordering::Acquire) == before {
                    out.push(SpanRecord::from_words(&words));
                    break;
                }
            }
        }
        out
    }

    /// Records dropped on writer collision.
    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Requests a single poller wake can span-track before overflowing.
/// A wake serves at most the frames already buffered on one
/// connection, so 64 covers heavy pipelining; beyond that, spans are
/// dropped and counted, and serving is unaffected.
pub(crate) const PENDING_SPANS: usize = 64;

/// Preallocated per-connection span arena, embedded in `Scratch`.
/// Filling it is allocation-free; `Obs::publish_wake` drains it.
#[derive(Debug)]
pub struct PendingSpans {
    records: [SpanRecord; PENDING_SPANS],
    len: usize,
    /// Queue wait for the current wake, µs: 0 while the poller shard
    /// serves it, stamped by the worker that takes a hand-off and
    /// shared by every span it captures.
    queue_us: u64,
    /// Spans dropped because the arena filled mid-wake.
    overflow: u64,
}

impl Default for PendingSpans {
    fn default() -> PendingSpans {
        PendingSpans {
            records: [SpanRecord::default(); PENDING_SPANS],
            len: 0,
            queue_us: 0,
            overflow: 0,
        }
    }
}

impl PendingSpans {
    /// Stamps the queue wait for the wake being served.
    pub(crate) fn set_queue_us(&mut self, queue_us: u64) {
        self.queue_us = queue_us;
    }
}

/// Observability hub hanging off `ServerState`: span ids, the trace
/// ring, slow-request detection, structured logging, and the gauges
/// the Prometheus endpoint exports.
#[derive(Debug)]
pub struct Obs {
    /// Server start instant — the zero point for `end_us` and uptime.
    born: Instant,
    next_id: AtomicU64,
    ring: TraceRing,
    /// Slow-request threshold in µs; 0 disables detection.
    slow_us: u64,
    /// Emit NDJSON lifecycle/rejection events to stderr.
    log_json: bool,
    /// Spans dropped by arena overflow (ring collisions count
    /// separately inside the ring).
    spans_dropped: AtomicU64,
    /// Connections registered with each poller shard (idle +
    /// write-parked), one gauge per shard, set by each shard's loop.
    shard_conns: Box<[AtomicU64]>,
    /// Connections currently dispatched to (or queued for) workers.
    dispatched: AtomicU64,
    /// Readable wakes served to completion on their poller shard.
    wakes_inline: AtomicU64,
    /// Readable wakes handed to the worker pool.
    wakes_pool: AtomicU64,
    /// Jobs sitting in the worker-pool queue; shared with the pool's
    /// `GaugedSender` so the gauge survives without a pool→obs
    /// dependency.
    queue_depth: Arc<AtomicU64>,
}

impl Obs {
    /// Creates the hub with one connection gauge per poller shard.
    /// `slow_us` of 0 disables slow-request lines.
    pub(crate) fn new(slow_us: u64, log_json: bool, pollers: usize) -> Obs {
        Obs {
            born: Instant::now(),
            next_id: AtomicU64::new(0),
            ring: TraceRing::new(TRACE_RING_SLOTS),
            slow_us,
            log_json,
            spans_dropped: AtomicU64::new(0),
            shard_conns: (0..pollers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            dispatched: AtomicU64::new(0),
            wakes_inline: AtomicU64::new(0),
            wakes_pool: AtomicU64::new(0),
            queue_depth: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Whether NDJSON lifecycle/rejection logging is on.
    pub(crate) fn log_json(&self) -> bool {
        self.log_json
    }

    /// Seconds since the server started.
    pub(crate) fn uptime_seconds(&self) -> u64 {
        self.born.elapsed().as_secs()
    }

    /// The shared worker-queue depth counter (handed to the pool's
    /// `GaugedSender`).
    pub(crate) fn queue_depth_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.queue_depth)
    }

    /// Current worker-queue depth.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Updates one shard's registered-connection gauge (each poller
    /// loop sets its own slot). Out-of-range shards are ignored.
    pub(crate) fn set_shard_conns(&self, shard: usize, conns: u64) {
        if let Some(gauge) = self.shard_conns.get(shard) {
            gauge.store(conns, Ordering::Relaxed);
        }
    }

    /// Per-shard registered-connection gauges, in shard order.
    pub(crate) fn shard_connections(&self) -> Vec<u64> {
        self.shard_conns
            .iter()
            .map(|g| g.load(Ordering::Relaxed))
            .collect()
    }

    /// Connections registered across all poller shards (idle +
    /// write-parked).
    pub(crate) fn idle_fds(&self) -> u64 {
        self.shard_conns
            .iter()
            .map(|g| g.load(Ordering::Relaxed))
            .sum()
    }

    /// A readable wake was served to completion on its poller shard.
    pub(crate) fn wake_inline(&self) {
        self.wakes_inline.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection left the poller for the worker pool, carrying the
    /// rest of its wake.
    pub(crate) fn connection_dispatched(&self) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        self.wakes_pool.fetch_add(1, Ordering::Relaxed);
    }

    /// A dispatched connection finished its wake.
    pub(crate) fn connection_settled(&self) {
        self.dispatched.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently dispatched to workers.
    pub(crate) fn dispatched_connections(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Total spans lost (arena overflow + ring writer collisions).
    pub(crate) fn spans_dropped(&self) -> u64 {
        self.spans_dropped.load(Ordering::Relaxed) + self.ring.dropped()
    }

    /// Records one request's span into the per-connection arena.
    /// Allocation-free: assigns the id, copies the fields, and
    /// returns. `write_us`/`end_us` are stamped later by
    /// [`Obs::publish_wake`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn note(
        &self,
        spans: &mut PendingSpans,
        command: u8,
        outcome: u8,
        key_hash: u64,
        serve: Duration,
        bytes_in: usize,
        bytes_out: usize,
    ) {
        if spans.len >= PENDING_SPANS {
            spans.overflow += 1;
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        spans.records[spans.len] = SpanRecord {
            id,
            command,
            outcome,
            key_hash,
            queue_us: spans.queue_us,
            serve_us: duration_us(serve),
            write_us: 0,
            bytes_in: bytes_in as u64,
            bytes_out: bytes_out as u64,
            end_us: 0,
        };
        spans.len += 1;
    }

    /// Wake epilogue: stamps the shared write time and publish
    /// instant into every pending span, publishes them to the ring by
    /// copy, emits slow-request NDJSON lines for offenders, and
    /// resets the arena. Allocation-free unless a slow line fires.
    pub(crate) fn publish_wake(&self, spans: &mut PendingSpans, write: Duration) {
        let write_us = duration_us(write);
        let end_us = duration_us(self.born.elapsed());
        for record in &mut spans.records[..spans.len] {
            record.write_us = write_us;
            record.end_us = end_us;
            self.ring.publish(record);
            if self.slow_us > 0 && record.total_us() >= self.slow_us {
                log_slow_request(record);
            }
        }
        if spans.overflow > 0 {
            self.spans_dropped
                .fetch_add(spans.overflow, Ordering::Relaxed);
        }
        spans.len = 0;
        spans.overflow = 0;
        spans.queue_us = 0;
    }

    /// Reads the newest spans from the ring for the `trace` command:
    /// up to `last` records, filtered by command code and minimum
    /// total duration (µs).
    pub(crate) fn trace(&self, last: usize, command: Option<u8>, min_us: u64) -> Vec<TraceSpan> {
        let now_us = duration_us(self.born.elapsed());
        self.ring
            .snapshot(TRACE_RING_SLOTS)
            .into_iter()
            .filter(|r| command.is_none_or(|c| r.command == c))
            .filter(|r| r.total_us() >= min_us)
            .take(last)
            .map(|r| TraceSpan {
                id: r.id,
                command: command_label(r.command).to_string(),
                outcome: outcome_label(r.outcome).to_string(),
                key: if r.key_hash == 0 {
                    String::new()
                } else {
                    format!("{:016x}", r.key_hash)
                },
                queue_us: r.queue_us,
                serve_us: r.serve_us,
                write_us: r.write_us,
                bytes_in: r.bytes_in,
                bytes_out: r.bytes_out,
                age_ms: now_us.saturating_sub(r.end_us) / 1000,
            })
            .collect()
    }
}

/// `Duration` → saturating µs.
pub(crate) fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Milliseconds since the Unix epoch (for NDJSON `ts_ms` fields).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis().min(u64::MAX as u128) as u64)
}

/// Writes one NDJSON line to stderr under the stderr lock. All event
/// lines funnel through here so interleaved workers cannot shear a
/// line.
fn log_line(line: &str) {
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = writeln!(handle, "{line}");
}

/// Emits the slow-request NDJSON line for one span. Allocates — this
/// only runs for requests already past the `--slow-ms` threshold.
fn log_slow_request(record: &SpanRecord) {
    log_line(&format!(
        "{{\"ts_ms\":{},\"event\":\"slow_request\",\"id\":{},\"command\":\"{}\",\
         \"outcome\":\"{}\",\"key\":\"{}\",\"queue_us\":{},\"serve_us\":{},\
         \"write_us\":{},\"bytes_in\":{},\"bytes_out\":{},\"total_us\":{}}}",
        unix_ms(),
        record.id,
        command_label(record.command),
        outcome_label(record.outcome),
        if record.key_hash == 0 {
            String::new()
        } else {
            format!("{:016x}", record.key_hash)
        },
        record.queue_us,
        record.serve_us,
        record.write_us,
        record.bytes_in,
        record.bytes_out,
        record.total_us(),
    ));
}

/// The registry event sink installed behind `--log-json`: one NDJSON
/// lifecycle line per cache event. A plain `fn` pointer so
/// `RegistryConfig` keeps deriving `Clone`/`Debug`.
pub(crate) fn log_registry_event(event: RegistryEvent) {
    let line = match event {
        RegistryEvent::Built { key, bytes } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_build\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}",
            unix_ms()
        ),
        RegistryEvent::Restored { key, bytes } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_restore\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}",
            unix_ms()
        ),
        RegistryEvent::Evicted { key, bytes } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_evict\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}",
            unix_ms()
        ),
        RegistryEvent::StaleRebuild { key } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_stale_rebuild\",\"key\":\"{key:016x}\"}}",
            unix_ms()
        ),
        RegistryEvent::AppendUpdate { key, bytes } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_append_update\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}",
            unix_ms()
        ),
        RegistryEvent::SketchBuilt { key, bytes } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_sketch_build\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}",
            unix_ms()
        ),
        RegistryEvent::DiskEvicted { key, bytes } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_disk_evict\",\"key\":\"{key:016x}\",\"bytes\":{bytes}}}",
            unix_ms()
        ),
        RegistryEvent::Unloaded { key } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_unload\",\"key\":\"{key:016x}\"}}",
            unix_ms()
        ),
        RegistryEvent::Purged { entries, files } => format!(
            "{{\"ts_ms\":{},\"event\":\"cache_purge\",\"entries\":{entries},\"files\":{files}}}",
            unix_ms()
        ),
    };
    log_line(&line);
}

/// Emits a connection-hardening rejection event (`--log-json` paths
/// only; the caller checks the flag first).
pub(crate) fn log_rejection(kind: &str) {
    log_line(&format!("{{\"ts_ms\":{},\"event\":\"{kind}\"}}", unix_ms()));
}

// ------------------------------------------------------- Prometheus

/// Renders the full Prometheus text-format (0.0.4) payload for
/// `GET /metrics`: every JSON-metrics counter, the log₂ latency
/// histograms as native `_bucket`/`_sum`/`_count` families
/// (cumulative since process start, per Prometheus semantics — the
/// JSON report's p50/p99 use the sliding window instead), and the
/// connection/queue/cache gauges.
pub(crate) fn prometheus_text(state: &ServerState) -> String {
    use std::fmt::Write as _;

    let mut out = String::with_capacity(16 * 1024);
    let registry = state.registry.snapshot();
    let metrics = &state.metrics;
    let obs = state.obs();

    let _ = writeln!(
        out,
        "# HELP qid_build_info Build metadata; the value is always 1.\n\
         # TYPE qid_build_info gauge\n\
         qid_build_info{{version=\"{BUILD_VERSION}\"}} 1"
    );
    let _ = writeln!(
        out,
        "# HELP qid_uptime_seconds Seconds since the server started.\n\
         # TYPE qid_uptime_seconds gauge\n\
         qid_uptime_seconds {}",
        obs.uptime_seconds()
    );

    let _ = writeln!(
        out,
        "# HELP qid_requests_total Requests handled, by command.\n\
         # TYPE qid_requests_total counter"
    );
    for (idx, &name) in COMMAND_NAMES.iter().enumerate() {
        let (count, _, _) = metrics.raw_command_counters(idx);
        let _ = writeln!(out, "qid_requests_total{{command=\"{name}\"}} {count}");
    }
    let _ = writeln!(
        out,
        "# HELP qid_request_errors_total Requests answered with a structured error, by command.\n\
         # TYPE qid_request_errors_total counter"
    );
    for (idx, &name) in COMMAND_NAMES.iter().enumerate() {
        let (_, errors, _) = metrics.raw_command_counters(idx);
        let _ = writeln!(
            out,
            "qid_request_errors_total{{command=\"{name}\"}} {errors}"
        );
    }

    let _ = writeln!(
        out,
        "# HELP qid_request_latency_seconds Request serve time on a poller shard or a \
         worker, by command: the same measurement as the trace span's serve_us \
         (log2 buckets, cumulative since start).\n\
         # TYPE qid_request_latency_seconds histogram"
    );
    for (idx, &name) in COMMAND_NAMES.iter().enumerate() {
        let (count, _, latency_ns) = metrics.raw_command_counters(idx);
        let buckets = metrics.cumulative_buckets(idx);
        let mut running = 0u64;
        for (i, &observations) in buckets.iter().enumerate().take(LATENCY_BUCKETS - 1) {
            running += observations;
            let le = crate::metrics::bucket_upper_us(i) as f64 / 1e6;
            let _ = writeln!(
                out,
                "qid_request_latency_seconds_bucket{{command=\"{name}\",le=\"{le}\"}} {running}"
            );
        }
        // `+Inf` comes from the request counter, which is bumped
        // before the bucket: a racing scrape sees +Inf >= every
        // finite bucket, keeping the family monotone.
        let _ = writeln!(
            out,
            "qid_request_latency_seconds_bucket{{command=\"{name}\",le=\"+Inf\"}} {count}"
        );
        let _ = writeln!(
            out,
            "qid_request_latency_seconds_sum{{command=\"{name}\"}} {}",
            latency_ns as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "qid_request_latency_seconds_count{{command=\"{name}\"}} {count}"
        );
    }

    let singles: [(&str, &str, &str, u64); 20] = [
        (
            "qid_protocol_errors_total",
            "counter",
            "Lines that failed to parse as any request.",
            metrics.protocol_errors.load(Ordering::Relaxed),
        ),
        (
            "qid_connections_accepted_total",
            "counter",
            "Connections accepted since start.",
            metrics.connections.load(Ordering::Relaxed),
        ),
        (
            "qid_bytes_read_total",
            "counter",
            "Request bytes drained off client sockets.",
            metrics.bytes_read.load(Ordering::Relaxed),
        ),
        (
            "qid_bytes_written_total",
            "counter",
            "Response bytes flushed to client sockets.",
            metrics.bytes_written.load(Ordering::Relaxed),
        ),
        (
            "qid_worker_queue_depth",
            "gauge",
            "Jobs waiting in (or running from) the worker-pool queue.",
            obs.queue_depth(),
        ),
        (
            "qid_poller_registered_fds",
            "gauge",
            "Connections registered across all poller shards.",
            obs.idle_fds(),
        ),
        (
            "qid_rejected_busy_total",
            "counter",
            "Connections turned away at accept by --max-conns admission control.",
            metrics.rejected_busy.load(Ordering::Relaxed),
        ),
        (
            "qid_writes_parked_total",
            "counter",
            "Responses parked with their connection for a readiness-driven flush.",
            metrics.writes_parked.load(Ordering::Relaxed),
        ),
        (
            "qid_cache_hits_total",
            "counter",
            "Registry lookups served from a resident entry.",
            registry.hits,
        ),
        (
            "qid_cache_misses_total",
            "counter",
            "Whole-source scans, paid by a lookup, the sweeper or a sketch build.",
            registry.misses,
        ),
        (
            "qid_cache_disk_hits_total",
            "counter",
            "Artifact restores from the cache dir, by a lookup, the sweeper, \
             startup re-admission or a sketch build.",
            registry.disk_hits,
        ),
        (
            "qid_cache_evictions_total",
            "counter",
            "Entries evicted by the resident-byte budget.",
            registry.evictions,
        ),
        (
            "qid_cache_stale_rebuilds_total",
            "counter",
            "Entries rebuilt after their source file changed.",
            registry.stale_rebuilds,
        ),
        (
            "qid_cache_upgrades_total",
            "counter",
            "Stream-mode entries upgraded to materialised datasets.",
            registry.upgrades,
        ),
        (
            "qid_cache_append_updates_total",
            "counter",
            "Grown sources absorbed incrementally (suffix-only scans).",
            registry.append_updates,
        ),
        (
            "qid_cache_sweep_refreshes_total",
            "counter",
            "Entries refreshed by the background revalidation sweeper.",
            registry.sweep_refreshes,
        ),
        (
            "qid_cache_resident_bytes",
            "gauge",
            "Approximate bytes of resident cache entries.",
            registry.resident_bytes,
        ),
        (
            "qid_restarts_total",
            "counter",
            "Prior lives of this server's cache dir, per the registry journal.",
            registry.restarts,
        ),
        (
            "qid_wal_replayed_events_total",
            "counter",
            "Registry journal records replayed at startup to warm the cache.",
            registry.wal_replayed_events,
        ),
        (
            "qid_trace_spans_dropped_total",
            "counter",
            "Trace spans lost to arena overflow or ring collisions.",
            obs.spans_dropped(),
        ),
    ];
    for (name, kind, help, value) in singles {
        let _ = writeln!(
            out,
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}"
        );
    }

    let _ = writeln!(
        out,
        "# HELP qid_cache_entries Completed entries resident in the registry.\n\
         # TYPE qid_cache_entries gauge\n\
         qid_cache_entries {}",
        registry.datasets
    );
    let _ = writeln!(
        out,
        "# HELP qid_connections Current connections, by state.\n\
         # TYPE qid_connections gauge\n\
         qid_connections{{state=\"idle\"}} {}\n\
         qid_connections{{state=\"dispatched\"}} {}",
        obs.idle_fds(),
        obs.dispatched_connections()
    );
    let _ = writeln!(
        out,
        "# HELP qid_wakes_total Readable connection wakes, by where they were served: \
         inline on the poller shard, or handed to the worker pool.\n\
         # TYPE qid_wakes_total counter\n\
         qid_wakes_total{{path=\"inline\"}} {}\n\
         qid_wakes_total{{path=\"pool\"}} {}",
        obs.wakes_inline.load(Ordering::Relaxed),
        obs.wakes_pool.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "# HELP qid_rejected_lines_total Request lines rejected by connection hardening.\n\
         # TYPE qid_rejected_lines_total counter\n\
         qid_rejected_lines_total{{reason=\"oversize\"}} {}\n\
         qid_rejected_lines_total{{reason=\"rate_limited\"}} {}",
        metrics.rejected_oversize.load(Ordering::Relaxed),
        metrics.rejected_rate.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        out,
        "# HELP qid_poller_connections Connections registered with each poller shard (idle + write-parked).\n\
         # TYPE qid_poller_connections gauge"
    );
    for (shard, conns) in obs.shard_connections().iter().enumerate() {
        let _ = writeln!(out, "qid_poller_connections{{poller=\"{shard}\"}} {conns}");
    }
    out
}

/// Serves `GET /metrics` on the `--metrics-addr` listener until the
/// server starts shutting down. Hand-rolled HTTP: read one request
/// head (2 s timeout, 4 KiB cap), answer, close. Scrapes are rare
/// and cheap, so one connection at a time is plenty.
pub(crate) fn metrics_listener_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.is_shutting_down() {
                    return;
                }
                continue;
            }
        };
        if state.is_shutting_down() {
            return;
        }
        let _ = serve_scrape(stream, &state);
    }
}

/// Answers one HTTP exchange on an accepted scrape connection.
fn serve_scrape(mut stream: TcpStream, state: &ServerState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = [0u8; 4096];
    let mut used = 0;
    while used < head.len() {
        let n = stream.read(&mut head[used..])?;
        if n == 0 {
            break;
        }
        used += n;
        if head[..used].windows(2).any(|w| w == b"\n\n")
            || head[..used].windows(4).any(|w| w == b"\r\n\r\n")
        {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head[..used]);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = match (method, path) {
        ("GET", "/metrics") => ("200 OK", prometheus_text(state)),
        ("GET", "/") => ("200 OK", "qid-server: scrape /metrics\n".to_string()),
        _ => ("404 Not Found", "not found; scrape /metrics\n".to_string()),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_command_code_is_pinned() {
        assert_eq!(COMMAND_NAMES[CMD_CHECK as usize], "check");
        assert_eq!(command_code("check"), CMD_CHECK);
        assert_eq!(command_code("no-such-command"), CMD_NONE);
        assert_eq!(command_label(CMD_CHECK), "check");
        assert_eq!(command_label(CMD_NONE), "-");
    }

    #[test]
    fn span_records_roundtrip_through_word_packing() {
        let record = SpanRecord {
            id: 42,
            command: CMD_CHECK,
            outcome: OUTCOME_RATE_LIMITED,
            key_hash: 0xdead_beef_cafe_f00d,
            queue_us: 7,
            serve_us: 123,
            write_us: 9,
            bytes_in: 256,
            bytes_out: 512,
            end_us: 1_000_000,
        };
        assert_eq!(SpanRecord::from_words(&record.to_words()), record);
    }

    #[test]
    fn ring_publishes_and_snapshots_newest_first() {
        let ring = TraceRing::new(4);
        for id in 1..=6u64 {
            ring.publish(&SpanRecord {
                id,
                ..SpanRecord::default()
            });
        }
        // Capacity 4: ids 3..=6 survive, newest first.
        let ids: Vec<u64> = ring.snapshot(16).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 5, 4, 3]);
        assert_eq!(ring.dropped(), 0);
        // A bounded snapshot takes the newest `max`.
        let ids: Vec<u64> = ring.snapshot(2).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 5]);
    }

    #[test]
    fn pending_spans_overflow_is_counted_not_grown() {
        let obs = Obs::new(0, false, 1);
        let mut spans = PendingSpans::default();
        for _ in 0..(PENDING_SPANS + 3) {
            obs.note(
                &mut spans,
                CMD_CHECK,
                OUTCOME_OK,
                1,
                Duration::from_micros(5),
                10,
                20,
            );
        }
        assert_eq!(spans.len, PENDING_SPANS);
        assert_eq!(spans.overflow, 3);
        obs.publish_wake(&mut spans, Duration::ZERO);
        assert_eq!(spans.len, 0);
        assert_eq!(spans.overflow, 0);
        assert_eq!(obs.spans_dropped(), 3);
        assert_eq!(obs.ring.snapshot(usize::MAX).len(), PENDING_SPANS);
    }

    #[test]
    fn shard_gauges_sum_into_the_registered_fd_gauge() {
        let obs = Obs::new(0, false, 3);
        obs.set_shard_conns(0, 10);
        obs.set_shard_conns(1, 20);
        obs.set_shard_conns(2, 30);
        obs.set_shard_conns(99, 1_000_000); // out of range: ignored
        assert_eq!(obs.shard_connections(), vec![10, 20, 30]);
        assert_eq!(obs.idle_fds(), 60);
    }

    /// The seqlock stress test: writers on several threads hammer a
    /// tiny ring (maximising lapping collisions) while a reader
    /// snapshots continuously. Every field of every published record
    /// is a deterministic function of its id, so a single torn word —
    /// a reader observing a mix of two writers' records — is caught.
    /// Afterwards, the drop counter must account for exactly the
    /// tickets that did not surface as publishable records.
    #[test]
    fn ring_survives_concurrent_writers_without_tearing() {
        use std::sync::atomic::AtomicBool;

        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 20_000;

        // Derives the full record from an id, mirroring what writers
        // publish. A torn read mixes two ids and fails the comparison.
        fn record_for(id: u64) -> SpanRecord {
            SpanRecord {
                id,
                command: (id % COMMAND_NAMES.len() as u64) as u8,
                outcome: (id % 5) as u8,
                key_hash: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                queue_us: id ^ 0xaaaa,
                serve_us: id.rotate_left(17),
                write_us: id ^ 0x5555,
                bytes_in: id.wrapping_add(7),
                bytes_out: id.wrapping_mul(3),
                end_us: id.rotate_right(23),
            }
        }

        // 8 slots: with 4 writers × 20k tickets each, lapping
        // collisions are guaranteed, exercising the drop path hard.
        let ring = std::sync::Arc::new(TraceRing::new(8));
        let stop = std::sync::Arc::new(AtomicBool::new(false));

        let reader = {
            let ring = std::sync::Arc::clone(&ring);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for record in ring.snapshot(usize::MAX) {
                        assert_eq!(
                            record,
                            record_for(record.id),
                            "torn span observed for id {}",
                            record.id
                        );
                        seen += 1;
                    }
                }
                seen
            })
        };

        let writers: Vec<_> = (0..WRITERS as u64)
            .map(|w| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    // Disjoint id ranges per writer; id 0 is skipped so
                    // "never written" can't alias a real record.
                    for i in 0..PER_WRITER {
                        let id = 1 + w * PER_WRITER + i;
                        ring.publish(&record_for(id));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let seen = reader.join().unwrap();
        assert!(seen > 0, "the reader observed at least some records");

        // Consistency: every ticket either became a stable published
        // record or was dropped. After the writers join, head equals
        // the total publish count, the surviving slots re-derive from
        // their ids, and dropped ≤ head − surviving (each slot holds
        // the last undropped write it received).
        let total = WRITERS as u64 * PER_WRITER;
        assert_eq!(ring.head.load(Ordering::Relaxed), total);
        let survivors = ring.snapshot(usize::MAX);
        for record in &survivors {
            assert_eq!(*record, record_for(record.id), "settled slot is stable");
            assert!(record.id >= 1 && record.id <= total);
        }
        let dropped = ring.dropped();
        assert!(
            dropped <= total - survivors.len() as u64,
            "dropped ({dropped}) cannot exceed unpublished tickets \
             ({total} - {})",
            survivors.len()
        );
    }

    #[test]
    fn trace_filters_by_command_and_duration() {
        let obs = Obs::new(0, false, 1);
        let mut spans = PendingSpans::default();
        obs.note(
            &mut spans,
            CMD_CHECK,
            OUTCOME_OK,
            0xabc,
            Duration::from_micros(50),
            10,
            20,
        );
        obs.note(
            &mut spans,
            command_code("stats"),
            OUTCOME_OK,
            0,
            Duration::from_micros(5_000),
            30,
            40,
        );
        obs.publish_wake(&mut spans, Duration::ZERO);

        let all = obs.trace(10, None, 0);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].command, "stats"); // newest first
        assert_eq!(all[0].key, "");
        assert_eq!(all[1].key, "0000000000000abc");

        let checks = obs.trace(10, Some(CMD_CHECK), 0);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].command, "check");
        assert_eq!(checks[0].outcome, "ok");
        assert_eq!(checks[0].bytes_in, 10);
        assert_eq!(checks[0].bytes_out, 20);

        let slow = obs.trace(10, None, 1_000);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].command, "stats");
    }
}
