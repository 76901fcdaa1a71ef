//! The readiness-driven connection core.
//!
//! Connections are sharded round-robin across `--pollers` dedicated
//! poller threads, each owning its own kernel queue behind the
//! vendored [`polling`] shim (`epoll` on Linux, `poll(2)` elsewhere,
//! macOS and the BSDs included). A poller owns every connection of its
//! shard in non-blocking mode. When one becomes readable, the shard
//! reads it, frames the lines, and answers every line the
//! zero-allocation `check` fast path accepts itself; it then flushes
//! the replies and re-arms the socket, and no worker is involved. Only
//! at the first line the fast path declines — an audit, a sketch, a
//! build, a miss, a stale entry, `shutdown` — does the connection go to
//! the worker pool, carrying the rest of the wake; the worker answers
//! it and hands the connection back to **its own shard's** poller.
//! Idle keep-alive connections therefore cost **zero** worker time —
//! the property that moves the server from tens of clients to
//! thousands — and the dominant request class costs no thread hand-off.
//!
//! Two bounds keep one connection from stalling its shard: a wake
//! answers at most `MAX_INLINE_LINES_PER_WAKE` lines inline, and a
//! `check` over more than `MAX_INLINE_CHECK_CELLS` sample cells
//! (rows × attributes) is left to the pool. Past either, the rest of
//! the wake goes to the pool.
//!
//! Writes are readiness-driven too: a wake's response batch is flushed
//! with non-blocking writes, and if the peer's window is full the
//! unsent bytes **park** with the connection on its shard. The shard
//! re-arms the socket for *writability* and completes the flush inline
//! on the poller thread, so a slow or stalled reader can never pin a
//! worker (the previous core blocked a worker up to 10 s per stalled
//! write). While a connection is write-parked the server does not read
//! from it — natural backpressure for a client that pipelines without
//! draining.
//!
//! ## Connection state machine
//!
//! Exactly one owner per state — a shard's poller thread *or* one
//! worker — so request lines are answered in order with no
//! per-connection locks:
//!
//! ```text
//! accepted ──▶ polled (shard poller owns it, armed oneshot readable)
//!                │  readable: the shard reads and frames the wake
//!                ├──────────────────────────────┐
//!                │ every line fast-path         │ a line the shard may
//!                ▼                              ▼ not answer
//!            served inline (shard        dispatched (one worker owns
//!            answers → flushes)          it: answers the rest of the
//!                │                       wake → non-blocking flush)
//!                ├──────────────────────────────┘
//!                │ flushed             │ flush would    │ EOF, error,
//!                │ clean               │ block          │ shutdown
//!                ▼                     ▼                ▼
//!            re-armed ──▶ polled   write-parked      closed
//!                                  (shard poller owns it, armed
//!                                   writable; flushes inline, then
//!                                   re-arms readable — or closes if
//!                                   the wake ended in EOF/shutdown)
//! ```
//!
//! A hand-off carries the wake's state with the connection: its
//! remaining frames, its EOF flag, and the replies the shard already
//! rendered into the response buffer, so the worker's answers follow
//! them in order. One per-line loop serves both sides; the shard runs
//! it in a fast-path-only mode. A line handed off after the shard took
//! its `--max-rps` token is not charged again.
//!
//! A write-parked connection never visits the worker pool: the poller
//! finishes the flush itself (responses are already rendered bytes;
//! pushing them costs microseconds, not registry work). The parked
//! bytes live in the connection's reused response buffer — the arena
//! the zero-allocation guarantee already accounts for — so parking
//! allocates nothing.
//!
//! ## Hardening at the byte boundary
//!
//! This module owns the untrusted bytes, so the two protocol-hardening
//! knobs live here:
//!
//! * **`--max-line-bytes`** — `LineFramer` assembles lines in a
//!   reused buffer whose partial tail never exceeds the cap: the
//!   moment a line crosses it, the framer emits one `Frame::Oversize`,
//!   discards everything up to the next newline *without buffering it*
//!   (`O(cap + bytes-per-wake)` memory no matter how many bytes the
//!   client streams — the wake budget is `MAX_BYTES_PER_WAKE`), and
//!   the server answers a structured `line_too_long` error on a
//!   connection that stays usable.
//! * **`--max-rps`** — a per-connection `TokenBucket` (burst = one
//!   second's budget) consulted before a line is even decoded, so a
//!   flooding client is answered with cheap `rate_limited` errors
//!   instead of JSON parsing and registry work.
//!
//! Both rejections are counted in `metrics` (`rejected_oversize`,
//! `rejected_rate`).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fastpath::Scratch;
use crate::metrics::HISTOGRAM_EPOCH;
use crate::pool::GaugedSender;
use crate::proto::Response;
use crate::server::ServerState;

/// Byte budget a shard spends reading a single connection per
/// readiness wake-up. A connection with more buffered than this is
/// re-armed (level-triggered readiness re-fires immediately), so one
/// fire-hose client cannot pin its shard while others wait.
const MAX_BYTES_PER_WAKE: usize = 1 << 20;

/// Lines (blank and rejected ones included) one wake may take on its
/// poller shard. The rest of a longer wake goes to the worker pool, so
/// one pipelining client cannot hold its shard — and every other
/// connection on it — for long.
const MAX_INLINE_LINES_PER_WAKE: usize = 32;

/// The largest `check` a poller shard answers itself, in sample rows ×
/// resolved attributes. Sized for a sort-based query (~0.5 ms at
/// ~30 ns a cell); the hashed collision kernel the fast path runs takes
/// ~1 ns a cell, so the bound is ~16 µs of query. A bigger one goes to
/// the worker pool with the rest of its wake, so one huge sample cannot
/// stall a shard.
const MAX_INLINE_CHECK_CELLS: usize = 16 * 1024;

/// The name of the readiness backend [`polling::Poller::new`] picks on
/// this host (`"epoll"` on Linux, `"poll"`
/// elsewhere or when `QID_POLL_BACKEND=poll` forces the fallback).
pub fn backend_name() -> &'static str {
    polling::default_backend_name()
}

/// The per-connection hardening knobs, fixed at server start.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConnLimits {
    /// Longest accepted request line, in bytes (excluding the newline).
    pub max_line_bytes: usize,
    /// Requests per second per connection; `None` = unlimited.
    pub max_rps: Option<u32>,
}

// ------------------------------------------------------------ framing

/// One unit the framer hands back per input chunk. Lines are byte
/// ranges into the framer's own buffer ([`LineFramer::line`] resolves
/// them), so framing a request allocates nothing — the buffer is
/// reused wake after wake instead of minting a fresh `Vec` per line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A complete line (newline stripped), at most `cap` bytes, valid
    /// until the next [`LineFramer::consume`].
    Line(std::ops::Range<usize>),
    /// A line crossed the cap; its bytes were discarded up to (and
    /// including) the next newline.
    Oversize,
}

/// Assembles newline-delimited frames from arbitrary chunks under a
/// hard byte cap on the *line*, not the buffer: the buffer holds every
/// completed line of the current wake (so frames can be ranges into
/// it) plus at most `cap` bytes of partial tail, and is compacted —
/// not freed — by [`LineFramer::consume`] once the wake's frames are
/// answered. Memory per connection is therefore
/// `O(cap + bytes-per-wake)`, and the wake budget is
/// [`MAX_BYTES_PER_WAKE`].
#[derive(Debug)]
pub(crate) struct LineFramer {
    cap: usize,
    buf: Vec<u8>,
    /// Start of the partial (not yet newline-terminated) tail in `buf`;
    /// everything before it is completed lines already framed.
    line_start: usize,
    /// Inside an oversized line: discard until the next newline.
    skipping: bool,
}

impl LineFramer {
    pub fn new(cap: usize) -> LineFramer {
        LineFramer {
            cap: cap.max(1),
            buf: Vec::new(),
            line_start: 0,
            skipping: false,
        }
    }

    /// Feeds one chunk, appending completed frames to `out`.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<Frame>) {
        let mut rest = chunk;
        while !rest.is_empty() {
            let newline = rest.iter().position(|&b| b == b'\n');
            if self.skipping {
                match newline {
                    // Still inside the oversized line: drop everything.
                    None => rest = &[],
                    Some(i) => {
                        self.skipping = false;
                        rest = &rest[i + 1..];
                    }
                }
                continue;
            }
            let pending = self.buf.len() - self.line_start;
            match newline {
                Some(i) => {
                    if pending + i > self.cap {
                        out.push(Frame::Oversize);
                        self.buf.truncate(self.line_start);
                    } else {
                        self.buf.extend_from_slice(&rest[..i]);
                        out.push(Frame::Line(self.line_start..self.buf.len()));
                        self.line_start = self.buf.len();
                    }
                    rest = &rest[i + 1..];
                }
                None => {
                    if pending + rest.len() > self.cap {
                        // The line already exceeds the cap with no end
                        // in sight: reject now, buffer nothing more.
                        out.push(Frame::Oversize);
                        self.buf.truncate(self.line_start);
                        self.skipping = true;
                        rest = &[];
                    } else {
                        self.buf.extend_from_slice(rest);
                        rest = &[];
                    }
                }
            }
        }
        debug_assert!(
            self.buf.len() - self.line_start <= self.cap,
            "framer tail exceeds cap"
        );
    }

    /// Resolves a frame range to its line bytes.
    pub fn line(&self, range: &std::ops::Range<usize>) -> &[u8] {
        &self.buf[range.clone()]
    }

    /// Releases every completed line of the wake, compacting the
    /// partial tail to the front of the buffer. Call after the wake's
    /// frames are answered; outstanding [`Frame::Line`] ranges become
    /// invalid. Capacity is retained, so the steady state allocates
    /// nothing.
    pub fn consume(&mut self) {
        if self.line_start > 0 {
            self.buf.copy_within(self.line_start.., 0);
            self.buf.truncate(self.buf.len() - self.line_start);
            self.line_start = 0;
        }
    }

    /// Drains an unterminated final line at EOF. NDJSON clients are
    /// supposed to newline-terminate, but a request followed by a
    /// half-close (`printf '…' | nc`) has always been answered, so the
    /// framer must not swallow it. A buffer mid-skip (the tail of an
    /// already-rejected oversized line) yields nothing.
    pub fn take_eof_tail(&mut self) -> Option<std::ops::Range<usize>> {
        if self.skipping {
            self.skipping = false;
            return None;
        }
        if self.buf.len() == self.line_start {
            return None;
        }
        let range = self.line_start..self.buf.len();
        self.line_start = self.buf.len();
        Some(range)
    }
}

// --------------------------------------------------------- rate limit

/// A per-connection token bucket: `rate` tokens/second refill, burst
/// capacity of one second's budget (at least 1 token).
#[derive(Debug)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    pub fn new(max_rps: u32, now: Instant) -> TokenBucket {
        let rate = f64::from(max_rps.max(1));
        TokenBucket {
            rate,
            burst: rate,
            tokens: rate,
            last: now,
        }
    }

    /// Takes one token if available; refills first.
    pub fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

// --------------------------------------------------------- connection

/// One admission slot: increments the server's live-connection count
/// on creation and releases it on drop, so every close path — a
/// worker's `Close`, the poller drain, a reaped parked flush, a failed
/// registration — is accounted without explicit bookkeeping.
#[derive(Debug)]
pub(crate) struct LiveGuard(Arc<AtomicU64>);

impl LiveGuard {
    pub fn new(count: Arc<AtomicU64>) -> LiveGuard {
        count.fetch_add(1, Ordering::Relaxed);
        LiveGuard(count)
    }
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One client connection: the non-blocking socket plus the framing,
/// rate-limit, and scratch state that travels with it between poller
/// and workers. The frame list, write batch, and parse/dispatch
/// scratch are all reused across wake-ups (cleared, never freed), so
/// the steady-state request path performs no heap allocation.
#[derive(Debug)]
pub(crate) struct Conn {
    pub stream: TcpStream,
    framer: LineFramer,
    bucket: Option<TokenBucket>,
    /// Frames decoded this wake (ranges into `framer`'s buffer).
    frames: Vec<Frame>,
    /// The first frame of the wake not yet answered: where a worker
    /// resumes a wake its shard handed off.
    next_frame: usize,
    /// The wake's read ended in EOF: close once its lines are answered.
    eof: bool,
    /// The line at `next_frame` already took its `--max-rps` token on
    /// the shard before it was handed off.
    charged: bool,
    /// The wake's response batch. Flushed with non-blocking writes;
    /// bytes the peer's window cannot absorb stay here (write-parked)
    /// until the owning poller sees the socket writable again.
    out: Vec<u8>,
    /// How much of `out` has already reached the socket.
    out_pos: usize,
    /// A write-parked connection whose wake ended in EOF or shutdown:
    /// close as soon as the parked bytes are flushed.
    close_after_flush: bool,
    /// Per-connection parse/dispatch arena for the zero-allocation
    /// request fast path.
    scratch: Scratch,
    /// When the shard handed this connection to the worker pool; the
    /// worker's wake-up converts it to the spans' queue-wait time.
    dispatched_at: Option<Instant>,
    /// The `--max-conns` admission slot this connection occupies
    /// (`None` only before the accept loop admits it).
    pub live: Option<LiveGuard>,
}

impl Conn {
    /// Prepares an accepted stream: non-blocking (the poller owns
    /// blocking), nodelay (responses are single small writes).
    pub fn new(stream: TcpStream, limits: &ConnLimits) -> Option<Conn> {
        stream.set_nodelay(true).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(Conn {
            stream,
            framer: LineFramer::new(limits.max_line_bytes),
            bucket: limits
                .max_rps
                .map(|rps| TokenBucket::new(rps, Instant::now())),
            frames: Vec::new(),
            next_frame: 0,
            eof: false,
            charged: false,
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            scratch: Scratch::new(),
            dispatched_at: None,
            live: None,
        })
    }

    /// Whether unsent response bytes are parked with this connection.
    /// A parked connection is armed for writability and flushed inline
    /// by its poller instead of being dispatched to a worker.
    pub fn parked(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// What a wake decides about its connection.
#[derive(Debug, PartialEq, Eq)]
enum Wake {
    /// Every line is answered and the replies flushed (or parked): keep
    /// the connection on its shard, armed readable for the next
    /// request, or writable while bytes are parked.
    Rearm,
    /// Close it (EOF, I/O error, write failure, or shutdown).
    Close,
    /// The shard stopped at `conn.next_frame`: the connection goes to
    /// the worker pool with the rest of the wake.
    HandOff,
}

/// Where a wake's per-line loop runs, and so how far it may go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// On the poller shard: take at most [`MAX_INLINE_LINES_PER_WAKE`]
    /// lines, answering only what needs no worker — lines the fast path
    /// accepts within [`MAX_INLINE_CHECK_CELLS`], blank lines and
    /// hardening rejections; stop at the first other line.
    Inline,
    /// On a worker: answer every remaining line.
    Full,
}

/// Reads what the socket has — up to [`MAX_BYTES_PER_WAKE`] — into the
/// framer and starts a new wake: the frame list, resume point and
/// response batch are reset. Returns `false` on a read error.
fn read_wake(conn: &mut Conn, state: &ServerState) -> bool {
    let mut chunk = [0u8; 8192];
    conn.frames.clear();
    conn.next_frame = 0;
    conn.charged = false;
    conn.out.clear();
    conn.out_pos = 0;
    conn.close_after_flush = false;
    conn.eof = false;
    let mut total = 0usize;
    while total < MAX_BYTES_PER_WAKE {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                total += n;
                conn.framer.push(&chunk[..n], &mut conn.frames);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => return false,
        }
    }
    if total > 0 {
        state.add_bytes_read(total);
    }
    if conn.eof {
        // A final line terminated by EOF instead of a newline is still
        // a request: answer it, then close.
        if let Some(tail) = conn.framer.take_eof_tail() {
            conn.frames.push(Frame::Line(tail));
        }
    }
    true
}

/// Serves one readable wake on the poller shard: reads the socket,
/// answers what [`Mode::Inline`] allows, and flushes if that was
/// everything. All working storage lives in `conn` and is reused, so a
/// steady-state wake of fast-path `check`s allocates nothing.
fn serve_inline(conn: &mut Conn, state: &ServerState) -> Wake {
    if !read_wake(conn, state) {
        return Wake::Close;
    }
    serve_lines(conn, state, Mode::Inline)
}

/// Serves the rest of a wake its shard handed off: every remaining
/// line, then the flush.
fn serve_handed_off(conn: &mut Conn, state: &ServerState) -> Wake {
    // Queue-wait: shard hand-off → a worker actually picking the
    // connection up. Stamped into every span captured from here on;
    // the lines the shard answered before the hand-off keep 0.
    if let Some(at) = conn.dispatched_at.take() {
        conn.scratch
            .spans
            .set_queue_us(crate::obs::duration_us(at.elapsed()));
    }
    serve_lines(conn, state, Mode::Full)
}

/// The one per-line loop, shared by shard and worker: answers the
/// wake's frames from `conn.next_frame` on, in order, then settles the
/// wake. In [`Mode::Inline`] it stops at the first line the shard may
/// not answer and records where, so the worker resumes exactly there
/// with the replies rendered so far still queued in `conn.out`.
fn serve_lines(conn: &mut Conn, state: &ServerState, mode: Mode) -> Wake {
    let mut close = conn.eof;
    let start = conn.next_frame;
    for i in start..conn.frames.len() {
        if mode == Mode::Inline && i - start == MAX_INLINE_LINES_PER_WAKE {
            conn.next_frame = i;
            return Wake::HandOff;
        }
        let range = match &conn.frames[i] {
            Frame::Oversize => {
                state.on_oversize_line(&mut conn.scratch, &mut conn.out);
                continue;
            }
            Frame::Line(range) => range.clone(),
        };
        if conn.framer.line(&range).iter().all(u8::is_ascii_whitespace) {
            continue; // blank keep-alive lines are free
        }
        // A line handed off after the shard took its token is not
        // charged again.
        if !std::mem::take(&mut conn.charged) {
            if let Some(bucket) = &mut conn.bucket {
                if !bucket.try_take(Instant::now()) {
                    state.on_rate_limited(&mut conn.scratch, &mut conn.out);
                    continue;
                }
            }
        }
        let bytes = conn.framer.line(&range);
        match mode {
            Mode::Inline => {
                let (scratch, out) = (&mut conn.scratch, &mut conn.out);
                if !state.answer_fast(bytes, Instant::now(), scratch, out, MAX_INLINE_CHECK_CELLS) {
                    conn.next_frame = i;
                    conn.charged = conn.bucket.is_some();
                    return Wake::HandOff;
                }
            }
            Mode::Full => {
                if state.answer_line(bytes, &mut conn.scratch, &mut conn.out) {
                    // Flush the acknowledgement before raising the
                    // flag, so the requester normally sees its "bye".
                    // Best-effort: a requester whose own receive window
                    // is already full doesn't get to delay the drain.
                    let write_started = Instant::now();
                    let _ = flush_pending(conn, state);
                    state.finish_wake(&mut conn.scratch, write_started.elapsed());
                    state.initiate_shutdown();
                    return Wake::Close;
                }
            }
        }
        if state.is_shutting_down() {
            // Drain contract: finish the in-flight request,
            // don't start the next one.
            close = true;
            break;
        }
    }
    settle(conn, state, close)
}

/// Ends a wake whose lines are all answered: releases the frames,
/// flushes the replies and decides the connection's fate.
fn settle(conn: &mut Conn, state: &ServerState, close: bool) -> Wake {
    conn.framer.consume();
    if conn.out.is_empty() {
        state.finish_wake(&mut conn.scratch, Duration::ZERO);
        return if close || state.is_shutting_down() {
            Wake::Close
        } else {
            Wake::Rearm
        };
    }
    let write_started = Instant::now();
    let outcome = flush_pending(conn, state);
    // Publish the wake's spans even when the write failed or parked —
    // the requests were served, and forensics on a dying or stalled
    // peer are exactly when the trace matters.
    state.finish_wake(&mut conn.scratch, write_started.elapsed());
    match outcome {
        FlushOutcome::Error => Wake::Close,
        FlushOutcome::Done => {
            if close || state.is_shutting_down() {
                Wake::Close
            } else {
                Wake::Rearm
            }
        }
        FlushOutcome::Parked => {
            // The peer's window is full. Park the unsent bytes with
            // the connection on its shard, which arms for writability
            // and finishes the flush — no worker waits on a stalled
            // reader.
            state.metrics.writes_parked.fetch_add(1, Ordering::Relaxed);
            conn.close_after_flush = close || state.is_shutting_down();
            Wake::Rearm
        }
    }
}

/// How one non-blocking flush attempt of `conn.out` ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushOutcome {
    /// Everything was written; `out` is cleared (capacity retained).
    Done,
    /// The socket's send buffer filled; `conn.out_pos` marks progress
    /// and the remainder stays parked in `conn.out`.
    Parked,
    /// The peer is gone (write error or zero-length write).
    Error,
}

/// Pushes the unsent tail of `conn.out` with non-blocking writes,
/// accounting every byte that reaches the socket. Never blocks: a full
/// send buffer parks the remainder instead.
fn flush_pending(conn: &mut Conn, state: &ServerState) -> FlushOutcome {
    while conn.out_pos < conn.out.len() {
        match (&conn.stream).write(&conn.out[conn.out_pos..]) {
            Ok(0) => return FlushOutcome::Error,
            Ok(n) => {
                conn.out_pos += n;
                state.add_bytes_written(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return FlushOutcome::Parked,
            Err(_) => return FlushOutcome::Error,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    FlushOutcome::Done
}

/// Appends one encoded response plus newline to a write batch.
pub(crate) fn push_response(out: &mut Vec<u8>, response: &Response) {
    out.extend_from_slice(response.encode().as_bytes());
    out.push(b'\n');
}

// ------------------------------------------------------------- poller

/// The handle workers and the accept loop use to (re)register a
/// connection with one poller shard. Workers always return a
/// connection through the handle of the shard that dispatched it, so
/// a connection lives on one shard for its whole life.
#[derive(Clone, Debug)]
pub(crate) struct PollerHandle {
    tx: Sender<Conn>,
    poller: Arc<polling::Poller>,
}

impl PollerHandle {
    pub fn new(tx: Sender<Conn>, poller: Arc<polling::Poller>) -> PollerHandle {
        PollerHandle { tx, poller }
    }

    /// Queues a connection for registration and wakes the poller.
    /// Returns `false` (dropping the connection → EOF to the client)
    /// once the poller has exited.
    pub fn register(&self, conn: Conn) -> bool {
        if self.tx.send(conn).is_err() {
            return false;
        }
        let _ = self.poller.notify();
        true
    }
}

/// One poller shard's thread body: owns its shard of the idle and
/// write-parked connections, waits for readiness, dispatches readable
/// connections to the worker pool, and flushes parked writes inline.
/// Shard 0 additionally rotates the metrics histogram epochs on
/// schedule. Exits as soon as shutdown is flagged, closing every owned
/// connection (EOF to quiet keep-alive clients) — the drain half of
/// graceful shutdown.
pub(crate) fn poller_loop(
    shard: usize,
    poller: Arc<polling::Poller>,
    rx: Receiver<Conn>,
    pool: GaugedSender,
    handle: PollerHandle,
    state: Arc<ServerState>,
) {
    let mut idle: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = 0usize;
    let mut events: Vec<polling::Event> = Vec::new();
    let mut next_rotate = Instant::now() + HISTOGRAM_EPOCH;
    while !state.is_shutting_down() {
        // Admit new/returning connections before and after each wait,
        // so a registration queued during dispatch is never stranded.
        admit(&poller, &rx, &mut idle, &mut next_key, &state);
        state.obs().set_shard_conns(shard, idle.len() as u64);
        let timeout = next_rotate
            .saturating_duration_since(Instant::now())
            .min(Duration::from_secs(1));
        events.clear();
        if poller.wait(&mut events, Some(timeout)).is_err() {
            break; // a broken poller cannot serve; drain and exit
        }
        if state.is_shutting_down() {
            break;
        }
        // Exactly one shard rotates the (global) histogram epochs —
        // double rotation would halve the sliding window.
        if shard == 0 {
            let now = Instant::now();
            if now >= next_rotate {
                state.metrics.rotate_histograms();
                next_rotate = now + HISTOGRAM_EPOCH;
            }
        }
        admit(&poller, &rx, &mut idle, &mut next_key, &state);
        for ev in events.drain(..) {
            let Some(conn) = idle.get_mut(&ev.key) else {
                continue;
            };
            // Write-parked connections are completed inline: the
            // bytes are already rendered, so finishing the flush on
            // the shard costs microseconds and skips a pointless pool
            // round-trip.
            let keep = if conn.parked() {
                match flush_pending(conn, &state) {
                    FlushOutcome::Done => !conn.close_after_flush && rearm(&poller, conn, ev.key),
                    FlushOutcome::Parked => rearm(&poller, conn, ev.key),
                    FlushOutcome::Error => false,
                }
            } else {
                // A readable wake is served on the shard while it only
                // holds lines the shard may answer; the first other
                // line hands the connection, with the rest of the
                // wake, to the worker pool.
                match serve_inline(conn, &state) {
                    Wake::HandOff => {
                        let conn = idle.remove(&ev.key).expect("served in place");
                        // Deregister while a worker owns the socket;
                        // `register` adds it back fresh.
                        let _ = poller.delete(&conn.stream);
                        dispatch(conn, &pool, &handle, &state);
                        continue;
                    }
                    wake => {
                        state.obs().wake_inline();
                        wake == Wake::Rearm && rearm(&poller, conn, ev.key)
                    }
                }
            };
            if !keep {
                if let Some(conn) = idle.remove(&ev.key) {
                    let _ = poller.delete(&conn.stream);
                }
            }
        }
    }
    // Drop (close) every owned connection: poller-registered sockets
    // see EOF instead of hanging on a dead server. (Parked bytes to
    // stalled readers are abandoned — the drain doesn't wait on them.)
    idle.clear();
    state.obs().set_shard_conns(shard, 0);
}

/// Re-arms a connection its shard keeps: for writability while bytes
/// are parked, else for readability — level-triggered readiness fires
/// at once if the client already pipelined more. Returns `false` when
/// the registration is broken and the connection must close.
fn rearm(poller: &polling::Poller, conn: &Conn, key: usize) -> bool {
    let interest = if conn.parked() {
        polling::Event::writable(key)
    } else {
        polling::Event::readable(key)
    };
    poller.modify(&conn.stream, interest).is_ok()
}

/// Drains the registration queue into the shard's idle set. A
/// connection arriving with parked write bytes is armed for
/// writability (finish the flush first); everything else for
/// readability.
fn admit(
    poller: &polling::Poller,
    rx: &Receiver<Conn>,
    idle: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    state: &ServerState,
) {
    while let Ok(conn) = rx.try_recv() {
        if state.is_shutting_down() {
            continue; // dropped → EOF
        }
        let key = alloc_key(next_key, idle);
        let interest = if conn.parked() {
            polling::Event::writable(key)
        } else {
            polling::Event::readable(key)
        };
        if poller.add(&conn.stream, interest).is_ok() {
            idle.insert(key, conn);
        }
        // A failed add drops the connection (EOF) — the client retries.
    }
}

/// The next registration key not in use (and never the notify key).
fn alloc_key(next: &mut usize, idle: &HashMap<usize, Conn>) -> usize {
    loop {
        let key = *next;
        *next = next.wrapping_add(1);
        if key != polling::NOTIFY_KEY && !idle.contains_key(&key) {
            return key;
        }
    }
}

/// Hands a connection, with the rest of its wake, to the worker pool;
/// the worker returns it via `handle` when done.
fn dispatch(mut conn: Conn, pool: &GaugedSender, handle: &PollerHandle, state: &Arc<ServerState>) {
    let handle = handle.clone();
    conn.dispatched_at = Some(Instant::now());
    state.obs().connection_dispatched();
    let job_state = Arc::clone(state);
    // A send error means the pool is gone (shutdown); the connection
    // drops with the closure — EOF, exactly the drain behaviour.
    if !pool.send(move || {
        match serve_handed_off(&mut conn, &job_state) {
            Wake::Rearm => {
                let _ = handle.register(conn);
            }
            Wake::Close => {}
            Wake::HandOff => unreachable!("a worker answers every line"),
        }
        job_state.obs().connection_settled();
    }) {
        state.obs().connection_settled();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds one chunk and resolves the emitted frames immediately:
    /// `Some(bytes)` for a line, `None` for an oversize rejection.
    fn feed(framer: &mut LineFramer, chunk: &[u8]) -> Vec<Option<Vec<u8>>> {
        let mut out = Vec::new();
        framer.push(chunk, &mut out);
        out.iter()
            .map(|frame| match frame {
                Frame::Line(range) => Some(framer.line(range).to_vec()),
                Frame::Oversize => None,
            })
            .collect()
    }

    fn line(bytes: &[u8]) -> Option<Vec<u8>> {
        Some(bytes.to_vec())
    }

    #[test]
    fn framer_assembles_lines_across_chunks() {
        let mut f = LineFramer::new(64);
        assert_eq!(feed(&mut f, b"hel"), vec![]);
        assert_eq!(feed(&mut f, b"lo\nwor"), vec![line(b"hello")]);
        assert_eq!(feed(&mut f, b"ld\n"), vec![line(b"world")]);
    }

    #[test]
    fn framer_handles_many_lines_in_one_chunk() {
        let mut f = LineFramer::new(64);
        assert_eq!(
            feed(&mut f, b"a\nb\n\nc\n"),
            vec![line(b"a"), line(b"b"), line(b""), line(b"c")]
        );
    }

    #[test]
    fn framer_rejects_oversize_and_recovers_on_next_line() {
        let mut f = LineFramer::new(4);
        // 10x the cap, streamed in chunks: exactly one Oversize, and
        // the partial tail never grows past the cap.
        let mut out = Vec::new();
        for _ in 0..10 {
            f.push(b"xxxx", &mut out);
            let tail = f.buf.len() - f.line_start;
            assert!(tail <= 4, "O(cap) tail: {tail}");
        }
        assert_eq!(out, vec![Frame::Oversize]);
        // The tail of the oversized line is discarded; the next line
        // parses normally.
        assert_eq!(feed(&mut f, b"xx\nok\n"), vec![line(b"ok")]);
    }

    #[test]
    fn framer_rejects_complete_line_just_over_cap() {
        let mut f = LineFramer::new(4);
        assert_eq!(feed(&mut f, b"abcd\n"), vec![line(b"abcd")]);
        assert_eq!(feed(&mut f, b"abcde\nxy\n"), vec![None, line(b"xy")]);
    }

    #[test]
    fn framer_consume_compacts_but_keeps_the_partial_tail() {
        let mut f = LineFramer::new(64);
        assert_eq!(feed(&mut f, b"hello\npart"), vec![line(b"hello")]);
        f.consume();
        assert_eq!(f.line_start, 0, "completed lines released");
        let cap_before = f.buf.capacity();
        assert_eq!(feed(&mut f, b"ial\n"), vec![line(b"partial")]);
        f.consume();
        assert_eq!(
            f.buf.capacity(),
            cap_before,
            "consume keeps capacity — the steady state never reallocates"
        );
        // An idle consume (nothing pending) is a no-op.
        f.consume();
        assert_eq!(feed(&mut f, b"next\n"), vec![line(b"next")]);
    }

    #[test]
    fn framer_surrenders_an_unterminated_tail_at_eof() {
        let mut f = LineFramer::new(64);
        assert_eq!(feed(&mut f, b"a\npartial"), vec![line(b"a")]);
        let tail = f.take_eof_tail().expect("tail pending");
        assert_eq!(f.line(&tail), b"partial");
        assert_eq!(f.take_eof_tail(), None, "drained once");
        // Mid-skip (oversized line already rejected): the tail is
        // garbage from the rejected line, not a request.
        let mut f = LineFramer::new(4);
        let mut out = Vec::new();
        f.push(b"xxxxxxxx", &mut out);
        assert_eq!(out, vec![Frame::Oversize]);
        assert_eq!(f.take_eof_tail(), None);
    }

    #[test]
    fn token_bucket_enforces_rate_and_refills() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(2, t0);
        // Burst = 2 tokens up front.
        assert!(bucket.try_take(t0));
        assert!(bucket.try_take(t0));
        assert!(!bucket.try_take(t0), "burst exhausted");
        // 500 ms at 2 rps refills one token.
        let t1 = t0 + Duration::from_millis(500);
        assert!(bucket.try_take(t1));
        assert!(!bucket.try_take(t1));
        // Refill caps at the burst size even after a long sleep.
        let t2 = t1 + Duration::from_secs(3600);
        assert!(bucket.try_take(t2));
        assert!(bucket.try_take(t2));
        assert!(
            !bucket.try_take(t2),
            "burst never exceeds one second's budget"
        );
    }

    #[test]
    fn token_bucket_tolerates_non_monotonic_instants() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(1, t0);
        assert!(bucket.try_take(t0));
        // An earlier instant must not panic or mint tokens.
        assert!(!bucket.try_take(t0 - Duration::from_secs(5)));
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        // A reply is one small write; with Nagle on, the next one
        // waits for the peer's delayed ACK (~40 ms on Linux loopback).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let limits = ConnLimits {
            max_line_bytes: 1024,
            max_rps: None,
        };
        let conn = Conn::new(accepted, &limits).expect("conn prepared");
        assert_eq!(conn.stream.nodelay().ok(), Some(true));
    }
}
