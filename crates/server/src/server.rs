//! The resident audit service: accept loop, dispatch, graceful drain.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use qid_core::filter::CollisionScratch;
use qid_core::minkey::{enumerate_minimal_keys, GreedyRefineMinKey, LatticeConfig};

use crate::fastpath::Scratch;
use crate::metrics::Metrics;
use crate::obs::{self, Obs};
use crate::poller::{poller_loop, push_response, Conn, ConnLimits, LiveGuard, PollerHandle};
use crate::pool::GaugedSender;
use crate::proto::{
    DatasetRef, LoadMode, Request, Response, SKETCH_ALPHA, SKETCH_K, SKETCH_REL_EPS,
};
use crate::registry::{CacheKey, Entry, Registry, RegistryConfig};
use crate::resolve::resolve_attr_names;
use crate::WorkerPool;

/// The most descriptor-table slots [`Server::bind`] reserves up front
/// (fewer when the soft `RLIMIT_NOFILE` is lower): 512 KiB of kernel
/// table on 64-bit Linux.
const FD_TABLE_RESERVE: u64 = 65_536;

/// Caps `audit`'s lattice search, matching the CLI's limit.
const MAX_LATTICE_CANDIDATES: usize = 500_000;

/// Default request-line byte cap (`--max-line-bytes`): generous enough
/// for large `batch` lines, small enough that a hostile client cannot
/// make a worker buffer unbounded memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 256 * 1024;

/// How to bind and size the server.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker thread count (clamped to ≥ 1).
    pub workers: usize,
    /// Poller shard count (`--pollers`, clamped to ≥ 1): connections
    /// are dealt round-robin across this many readiness threads, each
    /// owning its shard's idle and write-parked sockets. Defaults to
    /// [`default_pollers`].
    pub pollers: usize,
    /// Connection admission cap (`--max-conns`); `0` disables it. An
    /// accept beyond the cap is answered with one structured
    /// `too_busy` error and closed, instead of the listener running
    /// the process out of fds.
    pub max_conns: usize,
    /// Registry LRU budget in bytes (`--cache-bytes`); `None` disables
    /// eviction.
    pub cache_bytes: Option<u64>,
    /// Registry persistence directory (`--cache-dir`); `None` disables
    /// the on-disk warm tier.
    pub cache_dir: Option<String>,
    /// On-disk warm-tier byte budget (`--cache-disk-bytes`); `None`
    /// lets persisted artifacts accumulate without bound. When the
    /// budget is exceeded, whole artifacts (one file per cache key)
    /// are removed coldest-first, ordered by each key's last lifecycle
    /// event in the registry journal (file mtime for keys the journal
    /// has never seen).
    pub cache_disk_bytes: Option<u64>,
    /// Longest accepted request line in bytes (`--max-line-bytes`).
    /// Longer lines are answered with a structured `line_too_long`
    /// error, discarded in `O(cap)` memory, and the connection stays
    /// usable.
    pub max_line_bytes: usize,
    /// Per-connection request-rate cap in requests/second
    /// (`--max-rps`); `None` disables rate limiting. Over-budget lines
    /// are answered with `rate_limited` before they are decoded.
    pub max_rps: Option<u32>,
    /// Freshness-check revalidation window in milliseconds
    /// (`--revalidate-ms`), enabling the zero-allocation `check` fast
    /// path: within this window of the last source stat, a cached
    /// entry is served without re-statting the file (see
    /// [`Registry::peek`]). `0` disables the fast path and restores
    /// strict stat-on-every-request invalidation.
    pub revalidate_ms: u64,
    /// Background revalidation sweep interval in milliseconds
    /// (`--sweep-ms`); `0` (the default) disables the sweeper. When
    /// armed, a dedicated thread walks every resident cache entry on
    /// this cadence and refreshes stale or appended ones ahead of
    /// traffic, so request latency does not absorb rebuild cost (see
    /// [`Registry::sweep`]).
    pub sweep_ms: u64,
    /// Prometheus exposition listen address (`--metrics-addr`); `None`
    /// disables the scrape endpoint. Port 0 picks an ephemeral port
    /// (see [`ServerState::metrics_local_addr`]).
    pub metrics_addr: Option<String>,
    /// Slow-request threshold in milliseconds (`--slow-ms`): any
    /// request whose queue + serve + write total crosses it emits one
    /// NDJSON line on stderr with the full span breakdown. `None`
    /// disables slow-request logging.
    pub slow_ms: Option<u64>,
    /// Emit registry lifecycle events (build, restore, evict,
    /// stale-rebuild, unload, purge) and request rejections as NDJSON
    /// on stderr (`--log-json`).
    pub log_json: bool,
    /// Write-ahead journal size budget (`--wal-max-bytes`): the
    /// registry journal under `--cache-dir` is folded into a snapshot
    /// and truncated past this many bytes. `0` disables the journal
    /// (and with it warm restart recovery and `qid_restarts_total`);
    /// ignored when no cache dir is configured. See [`crate::wal`].
    pub wal_max_bytes: u64,
}

/// Default `--revalidate-ms`: in-place source rewrites are noticed
/// within a quarter second, while a `check`-saturating client stats
/// the file at most ~4 times a second instead of once per request.
pub const DEFAULT_REVALIDATE_MS: u64 = 250;

/// Default `--pollers`: one readiness shard per core, capped at 4.
/// Readiness scanning is cheap per connection, so a few shards carry
/// tens of thousands of sockets; past that, more shards just shuffle
/// cache lines.
pub fn default_pollers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            pollers: default_pollers(),
            max_conns: 0,
            cache_bytes: None,
            cache_dir: None,
            cache_disk_bytes: None,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_rps: None,
            revalidate_ms: DEFAULT_REVALIDATE_MS,
            sweep_ms: 0,
            metrics_addr: None,
            slow_ms: None,
            log_json: false,
            wal_max_bytes: crate::wal::DEFAULT_WAL_MAX_BYTES,
        }
    }
}

/// Shared across workers: the cache, the counters, the stop flag.
#[derive(Debug)]
pub struct ServerState {
    /// The dataset registry every worker queries.
    pub registry: Registry,
    /// Traffic counters behind the `metrics` command.
    pub metrics: Metrics,
    /// The flight recorder: trace ring, gauges, slow/JSON log switches.
    obs: Obs,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    limits: ConnLimits,
    /// Admission cap (`--max-conns`); `0` = unlimited.
    max_conns: usize,
    /// Connections currently admitted (accepted and not yet closed).
    /// Every admitted `Conn` carries a [`LiveGuard`] that decrements
    /// this on drop, so every close path — worker, poller drain,
    /// parked-flush failure — is accounted without bookkeeping calls.
    live_conns: Arc<AtomicU64>,
    /// Set once `serve` builds the poller shards, so
    /// `initiate_shutdown` can wake them all.
    pollers: OnceLock<Vec<Arc<polling::Poller>>>,
}

/// Rewrites a wildcard bind (0.0.0.0 / ::) to loopback — not every
/// platform accepts an unspecified address as a connect destination.
fn connectable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

impl ServerState {
    /// True once a `shutdown` request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The observability hub (trace ring, gauges, log switches).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The bound Prometheus exposition address, when `--metrics-addr`
    /// was configured (resolves ephemeral ports).
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Flags shutdown, wakes every poller shard, and pokes the accept
    /// loop (and the metrics listener, when present) awake with a
    /// throwaway connection so they can observe the flag.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(pollers) = self.pollers.get() {
            for poller in pollers {
                let _ = poller.notify();
            }
        }
        let _ = TcpStream::connect(connectable(self.local_addr));
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(connectable(addr));
        }
    }
}

/// A bound (but not yet serving) audit service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    state: Arc<ServerState>,
    workers: usize,
    pollers: usize,
    sweep_ms: u64,
}

impl Server {
    /// Binds the listener (and the `--metrics-addr` exposition
    /// listener, when configured) and builds the shared state. No
    /// threads are spawned until [`Server::serve`].
    ///
    /// First it grows the process's descriptor table to the soft
    /// `RLIMIT_NOFILE` (at most 65,536 slots) while the process may
    /// still be single-threaded: a table shared by threads grows only
    /// after an RCU grace period, which would otherwise land on the
    /// first request to open a descriptor past each power of two. Best
    /// effort: if it fails, the table grows on demand.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let _ = polling::fd_limit()
            .and_then(|soft| polling::reserve_fds(soft.min(FD_TABLE_RESERVE) as usize));
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let event_sink: Option<fn(crate::registry::RegistryEvent)> = if config.log_json {
            Some(obs::log_registry_event)
        } else {
            None
        };
        let registry = Registry::with_config(RegistryConfig {
            cache_bytes: config.cache_bytes,
            cache_dir: config.cache_dir.as_ref().map(std::path::PathBuf::from),
            cache_disk_bytes: config.cache_disk_bytes,
            revalidate_ms: config.revalidate_ms,
            event_sink,
            wal_max_bytes: config.wal_max_bytes,
        });
        let pollers = config.pollers.max(1);
        Ok(Server {
            listener,
            metrics_listener,
            state: Arc::new(ServerState {
                registry,
                metrics: Metrics::new(),
                obs: Obs::new(
                    config.slow_ms.map_or(0, |ms| ms.saturating_mul(1000)),
                    config.log_json,
                    pollers,
                ),
                shutdown: AtomicBool::new(false),
                local_addr,
                metrics_addr,
                limits: ConnLimits {
                    max_line_bytes: config.max_line_bytes.max(1),
                    max_rps: config.max_rps.filter(|&rps| rps > 0),
                },
                max_conns: config.max_conns,
                live_conns: Arc::new(AtomicU64::new(0)),
                pollers: OnceLock::new(),
            }),
            workers: config.workers.max(1),
            pollers,
            sweep_ms: config.sweep_ms,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// The shared state (for tests and benchmarks).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop until a `shutdown` request arrives, then
    /// drains in-flight requests *and* poller-registered idle
    /// connections before returning.
    ///
    /// The loop itself only accepts (and enforces `--max-conns`):
    /// every admitted connection is dealt round-robin to one of the
    /// poller shards (see [`crate::poller`]), each of which owns its
    /// shard's sockets in non-blocking mode, answers fast-path
    /// `check`s itself, and hands a wake to the worker pool only at
    /// the first line it may not answer.
    pub fn serve(self) -> io::Result<()> {
        let mut pool = WorkerPool::new(self.workers);
        let pool_tx = GaugedSender::new(
            pool.sender().expect("fresh pool has an open queue"),
            self.state.obs.queue_depth_handle(),
        );
        let mut pollers = Vec::with_capacity(self.pollers);
        let mut handles = Vec::with_capacity(self.pollers);
        let mut poller_threads = Vec::with_capacity(self.pollers);
        for shard in 0..self.pollers {
            let poller = Arc::new(polling::Poller::new()?);
            let (reg_tx, reg_rx) = std::sync::mpsc::channel::<Conn>();
            let handle = PollerHandle::new(reg_tx, Arc::clone(&poller));
            let thread = {
                let poller = Arc::clone(&poller);
                let handle = handle.clone();
                let pool_tx = pool_tx.clone();
                let state = Arc::clone(&self.state);
                std::thread::Builder::new()
                    .name(format!("qid-poller-{shard}"))
                    .spawn(move || poller_loop(shard, poller, reg_rx, pool_tx, handle, state))
                    .expect("spawn poller thread")
            };
            pollers.push(poller);
            handles.push(handle);
            poller_threads.push(thread);
        }
        // Each shard owns a sender clone; drop the original so the
        // worker queue actually closes when the shards exit (a live
        // local clone would leave `pool.shutdown()` joining workers
        // that never see the disconnect).
        drop(pool_tx);
        let _ = self.state.pollers.set(pollers.clone());
        let metrics_thread = self.metrics_listener.map(|listener| {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("qid-metrics".to_string())
                .spawn(move || obs::metrics_listener_loop(listener, state))
                .expect("spawn metrics thread")
        });
        // Background revalidation (`--sweep-ms`): one thread walking
        // the registry on a fixed cadence, refreshing stale or appended
        // entries ahead of traffic. It naps in short slices so shutdown
        // is observed within ~50 ms rather than a full sweep interval.
        let sweeper_thread = (self.sweep_ms > 0).then(|| {
            let state = Arc::clone(&self.state);
            let interval = std::time::Duration::from_millis(self.sweep_ms);
            std::thread::Builder::new()
                .name("qid-sweeper".to_string())
                .spawn(move || {
                    let nap = std::time::Duration::from_millis(50).min(interval);
                    let mut next = std::time::Instant::now() + interval;
                    while !state.is_shutting_down() {
                        if std::time::Instant::now() >= next {
                            state.registry.sweep();
                            next = std::time::Instant::now() + interval;
                        }
                        std::thread::sleep(nap);
                    }
                })
                .expect("spawn sweeper thread")
        });
        // Unknown accept errors are retried with backoff this many
        // times before giving up: a resident service must survive
        // transient failures (fd exhaustion, aborted handshakes), but
        // a permanently broken listener must not spin forever.
        let mut consecutive_errors = 0u32;
        let mut result = Ok(());
        let mut next_shard = 0usize;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => {
                    consecutive_errors = 0;
                    conn
                }
                // A client that disconnected between SYN and accept is
                // its problem, not the daemon's.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::WouldBlock
                    ) =>
                {
                    continue;
                }
                Err(e) => {
                    if self.state.is_shutting_down() {
                        break;
                    }
                    consecutive_errors += 1;
                    if consecutive_errors < 16 {
                        // e.g. EMFILE: wait for connections to close.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        continue;
                    }
                    // Raise the flag so the poller and workers drain
                    // instead of spinning; keep the error for the
                    // caller.
                    self.state.shutdown.store(true, Ordering::SeqCst);
                    result = Err(e);
                    break;
                }
            };
            if self.state.is_shutting_down() {
                break; // the wake-up connection (or a late client)
            }
            self.state
                .metrics
                .connections
                .fetch_add(1, Ordering::Relaxed);
            if self.state.max_conns != 0
                && self.state.live_conns.load(Ordering::Relaxed) >= self.state.max_conns as u64
            {
                // Admission control: answer a structured `too_busy`
                // (best-effort — the socket is fresh, so one small
                // write virtually always lands) and close, instead of
                // accepting until EMFILE stalls the whole listener.
                self.state
                    .metrics
                    .rejected_busy
                    .fetch_add(1, Ordering::Relaxed);
                if self.state.obs.log_json() {
                    obs::log_rejection("too_busy");
                }
                let mut out = Vec::new();
                push_response(
                    &mut out,
                    &Response::TooBusy {
                        max_conns: self.state.max_conns,
                    },
                );
                let _ = stream.set_nonblocking(true);
                let _ = (&stream).write(&out);
                continue; // dropped → closed
            }
            let Some(mut conn) = Conn::new(stream, &self.state.limits) else {
                continue;
            };
            conn.live = Some(LiveGuard::new(Arc::clone(&self.state.live_conns)));
            // Fresh connections go through a poller too: readiness is
            // level-triggered, so a request that already arrived fires
            // the moment the registration lands. Round-robin keeps the
            // shards balanced without coordination.
            handles[next_shard].register(conn);
            next_shard = (next_shard + 1) % handles.len();
        }
        // Drain, in dependency order: wake and join every poller shard
        // (each closes its idle connections and stops dispatching),
        // then close the pool queue and join the workers (finishing
        // every dispatched request). Workers trying to re-register
        // after their shard exited drop their connection — EOF, as
        // drained.
        for poller in &pollers {
            let _ = poller.notify();
        }
        drop(handles);
        for thread in poller_threads {
            let _ = thread.join();
        }
        pool.shutdown();
        if let Some(thread) = sweeper_thread {
            let _ = thread.join();
        }
        if let Some(thread) = metrics_thread {
            // The exposition accept loop may be parked in accept();
            // poke it so it can observe the shutdown flag. (The
            // accept-error shutdown path raises the flag without going
            // through `initiate_shutdown`, so poke here too.)
            if let Some(addr) = self.state.metrics_addr {
                let _ = TcpStream::connect(connectable(addr));
            }
            let _ = thread.join();
        }
        result
    }

    /// Serves on a background thread; the returned handle exposes the
    /// address and joins the accept loop.
    pub fn spawn(self) -> RunningServer {
        let addr = self.local_addr();
        let state = self.state();
        let handle = std::thread::Builder::new()
            .name("qid-server-accept".to_string())
            .spawn(move || self.serve())
            .expect("spawn server thread");
        RunningServer {
            addr,
            state,
            handle,
        }
    }
}

/// A server running on a background thread.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    handle: std::thread::JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (registry + metrics).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Waits for the accept loop to exit (after a `shutdown` request).
    pub fn join(self) -> io::Result<()> {
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

impl ServerState {
    /// Decodes and answers one complete request line, appending the
    /// encoded response (plus newline) to `out`. Returns `true` when
    /// the line was a `shutdown` request — the caller flushes and
    /// raises the flag.
    ///
    /// A plain `check` over a resident, freshness-checked entry is
    /// answered by the zero-allocation fast path (see
    /// [`crate::fastpath`]) using the caller's per-connection
    /// `scratch` arena; every other line takes the general
    /// decode → dispatch → encode path. Public so integration tests
    /// (the counting-allocator test in particular) can drive the exact
    /// request path in-process.
    pub fn answer_line(&self, bytes: &[u8], scratch: &mut Scratch, out: &mut Vec<u8>) -> bool {
        let started = Instant::now();
        if self.answer_fast(bytes, started, scratch, out, usize::MAX) {
            return false;
        }
        let out_start = out.len();
        // Not blank: `answer_fast` handles a line that trims to nothing.
        let decoded = std::str::from_utf8(bytes)
            .map_err(|_| "request line is not valid UTF-8".to_string())
            .and_then(|line| Request::decode(line.trim()));
        let shutdown = matches!(decoded, Ok(Request::Shutdown));
        let (response, command, outcome, key_hash) = match decoded {
            Ok(request) => {
                let response = handle_request(&request, self);
                let outcome = match response {
                    Response::Error { .. } => obs::OUTCOME_ERROR,
                    _ => obs::OUTCOME_OK,
                };
                // The general path may allocate freely, so hashing the
                // dataset key (a canonicalising operation) is fine.
                let key_hash = request.dataset().map_or(0, |ds| CacheKey::of(ds).fnv64());
                let command = obs::command_code(request.command_name());
                (response, command, outcome, key_hash)
            }
            Err(message) => {
                self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let response = Response::Error { message };
                (response, obs::CMD_NONE, obs::OUTCOME_PROTOCOL, 0)
            }
        };
        push_response(out, &response);
        let (n_in, n_out) = (bytes.len(), out.len() - out_start);
        self.account(scratch, command, outcome, key_hash, started, n_in, n_out);
        shutdown
    }

    /// The fast-path prefix of [`ServerState::answer_line`], and the
    /// one entry point to the zero-allocation `check` path: UTF-8
    /// check, trim, [`crate::fastpath`], accounting. Returns `true`
    /// when the line is handled — answered into `out`, or blank once
    /// trimmed (nothing to answer) — and `false`, with `out` and the
    /// metrics untouched, when the general path must answer it.
    /// `max_cells` caps the sample rows × attributes the fast path may
    /// query for this line (see [`crate::poller`]'s inline bounds).
    pub(crate) fn answer_fast(
        &self,
        bytes: &[u8],
        started: Instant,
        scratch: &mut Scratch,
        out: &mut Vec<u8>,
        max_cells: usize,
    ) -> bool {
        let Ok(line) = std::str::from_utf8(bytes) else {
            return false; // the general path answers the error
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return true;
        }
        let out_start = out.len();
        if !crate::fastpath::try_answer_check(self, trimmed, started, scratch, out, max_cells) {
            return false;
        }
        // The memoised key hash is a plain field read, so nothing on
        // this branch allocates.
        let key_hash = scratch.memo_key_hash();
        let (command, outcome) = (obs::CMD_CHECK, obs::OUTCOME_OK);
        let (n_in, n_out) = (bytes.len(), out.len() - out_start);
        self.account(scratch, command, outcome, key_hash, started, n_in, n_out);
        true
    }

    /// Accounts for one answered line, begun at `started`: reads the
    /// clock once and records that one serve time as the command's
    /// `metrics` latency and as its trace span's `serve_us`. A
    /// [`obs::CMD_NONE`] line (unparseable or rejected) gets its span
    /// and no per-command count. Allocation-free.
    #[allow(clippy::too_many_arguments)]
    fn account(
        &self,
        scratch: &mut Scratch,
        command: u8,
        outcome: u8,
        key_hash: u64,
        started: Instant,
        bytes_in: usize,
        bytes_out: usize,
    ) {
        let serve = started.elapsed();
        let is_error = outcome == obs::OUTCOME_ERROR;
        self.metrics.record(command, serve, is_error);
        self.obs.note(
            &mut scratch.spans,
            command,
            outcome,
            key_hash,
            serve,
            bytes_in,
            bytes_out,
        );
    }

    /// Wake epilogue: stamps the write-phase duration on every span
    /// captured during this poller wake, publishes them to the trace
    /// ring, and runs slow-request detection. Public so the
    /// counting-allocator test can drive the exact per-wake path.
    pub fn finish_wake(&self, scratch: &mut Scratch, write: Duration) {
        self.obs.publish_wake(&mut scratch.spans, write);
    }

    /// Answers (and counts) a request line that crossed
    /// `--max-line-bytes`. The line was never buffered whole — the
    /// framer discarded it in `O(cap)` memory — and the connection
    /// stays usable.
    pub(crate) fn on_oversize_line(&self, scratch: &mut Scratch, out: &mut Vec<u8>) {
        let started = Instant::now();
        let out_start = out.len();
        self.metrics
            .rejected_oversize
            .fetch_add(1, Ordering::Relaxed);
        let limit = self.limits.max_line_bytes;
        push_response(out, &Response::LineTooLong { limit });
        let (outcome, n_out) = (obs::OUTCOME_OVERSIZE, out.len() - out_start);
        self.account(scratch, obs::CMD_NONE, outcome, 0, started, 0, n_out);
        if self.obs.log_json() {
            obs::log_rejection("oversize_line");
        }
    }

    /// Answers (and counts) a request rejected by the per-connection
    /// `--max-rps` token bucket, before any decoding work was spent on
    /// it.
    pub(crate) fn on_rate_limited(&self, scratch: &mut Scratch, out: &mut Vec<u8>) {
        let started = Instant::now();
        let out_start = out.len();
        self.metrics.rejected_rate.fetch_add(1, Ordering::Relaxed);
        let max_rps = self.limits.max_rps.unwrap_or(0);
        push_response(out, &Response::RateLimited { max_rps });
        let (outcome, n_out) = (obs::OUTCOME_RATE_LIMITED, out.len() - out_start);
        self.account(scratch, obs::CMD_NONE, outcome, 0, started, 0, n_out);
        if self.obs.log_json() {
            obs::log_rejection("rate_limited");
        }
    }

    /// Counts request bytes drained off client sockets (the server
    /// side of a load harness's sent-byte accounting).
    pub(crate) fn add_bytes_read(&self, n: usize) {
        self.metrics
            .bytes_read
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Counts response bytes successfully written back to clients.
    pub(crate) fn add_bytes_written(&self, n: usize) {
        self.metrics
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// Dispatches one decoded request against the shared state.
///
/// A `batch` request shares one `EntryCache` across its
/// sub-commands, so `k` sub-commands over one dataset cost exactly one
/// registry lookup-or-build; every other request gets a throwaway
/// cache (one lookup either way).
pub fn handle_request(request: &Request, state: &ServerState) -> Response {
    match request {
        Request::Batch { requests } => {
            let mut cache = EntryCache::default();
            let results = requests
                .iter()
                .map(|sub| {
                    // Sub-commands are individually metered under their
                    // own names; the enclosing line is metered as
                    // `batch` by the connection loop.
                    let started = Instant::now();
                    let response = match sub {
                        // Defense in depth: `Request::decode` already
                        // rejects these as sub-commands.
                        Request::Batch { .. } | Request::Shutdown => Response::Error {
                            message: format!(
                                "{:?} is not allowed as a batch sub-command",
                                sub.command_name()
                            ),
                        },
                        other => dispatch(other, state, &mut cache),
                    };
                    let is_error = matches!(response, Response::Error { .. });
                    let command = obs::command_code(sub.command_name());
                    state.metrics.record(command, started.elapsed(), is_error);
                    response
                })
                .collect();
            Response::Batch { results }
        }
        other => dispatch(other, state, &mut EntryCache::default()),
    }
}

/// Resolved registry entries shared across the sub-commands of one
/// batch, keyed by cache key. A cached `Arc<Entry>` is reused without
/// touching the registry again (no second hit/miss is recorded — the
/// batch paid one resolution); a `load` replaces the cached pointer so
/// later sub-commands see what it loaded.
#[derive(Default)]
struct EntryCache {
    entries: std::collections::HashMap<CacheKey, Arc<Entry>>,
}

impl EntryCache {
    /// The entry for `ds`, loading it stream-mode on first use (the
    /// sample suffices for every non-materialising command).
    fn sample_entry(&mut self, state: &ServerState, ds: &DatasetRef) -> Result<Arc<Entry>, String> {
        let key = CacheKey::of(ds);
        if let Some(entry) = self.entries.get(&key) {
            return Ok(Arc::clone(entry));
        }
        let entry = state.registry.get_or_load(ds, LoadMode::Stream).0?;
        self.entries.insert(key, Arc::clone(&entry));
        Ok(entry)
    }
}

/// Dispatches one non-batch request, resolving entries through `cache`.
fn dispatch(request: &Request, state: &ServerState, cache: &mut EntryCache) -> Response {
    match request {
        Request::Batch { .. } => unreachable!("handled by handle_request"),
        Request::Load { ds, mode } => match state.registry.get_or_load(ds, *mode) {
            (Ok(entry), cached) => {
                cache.entries.insert(CacheKey::of(ds), Arc::clone(&entry));
                Response::Loaded {
                    rows: entry.rows,
                    attrs: entry.attrs,
                    sample: entry.filter.sample().n_rows(),
                    cached,
                }
            }
            (Err(message), _) => Response::Error { message },
        },
        Request::Audit { ds, max_key_size } => with_entry(state, ds, cache, |entry| {
            let sample = entry.filter.sample();
            let keys = enumerate_minimal_keys(
                sample,
                LatticeConfig {
                    max_size: *max_key_size,
                    max_candidates: MAX_LATTICE_CANDIDATES,
                },
            );
            let mut table = CollisionScratch::new();
            let keys = keys
                .into_iter()
                .map(|key| {
                    let unique = table.count_unique(sample, &key);
                    let frac = if sample.n_rows() == 0 {
                        0.0
                    } else {
                        unique as f64 / sample.n_rows() as f64
                    };
                    let names = key
                        .iter()
                        .map(|&a| sample.schema().attr(a).name().to_string())
                        .collect();
                    (names, frac)
                })
                .collect();
            Response::Audit { keys }
        }),
        Request::Key { ds } => with_entry(state, ds, cache, |entry| {
            let sample = entry.filter.sample();
            let result = GreedyRefineMinKey::run_on_sample(sample);
            Response::Key {
                attrs: result
                    .attrs
                    .iter()
                    .map(|&a| sample.schema().attr(a).name().to_string())
                    .collect(),
                complete: result.complete,
            }
        }),
        Request::Check { ds, attrs } => with_entry(state, ds, cache, |entry| {
            use qid_core::filter::{FilterDecision, SeparationFilter};
            let sample = entry.filter.sample();
            match resolve_attr_names(sample.schema(), sample.n_attrs(), attrs) {
                Ok(resolved) => Response::Check {
                    attrs: resolved
                        .attrs
                        .iter()
                        .map(|&a| sample.schema().attr(a).name().to_string())
                        .collect(),
                    accept: entry.filter.query(&resolved.attrs) == FilterDecision::Accept,
                },
                Err(message) => Response::Error { message },
            }
        }),
        Request::Sketch { ds, attrs } => match cache.sample_entry(state, ds) {
            Ok(entry) => {
                let sample = entry.filter.sample();
                let resolved = match resolve_attr_names(sample.schema(), sample.n_attrs(), attrs) {
                    Ok(resolved) => resolved,
                    Err(message) => return Response::Error { message },
                };
                match state.registry.sketch_for(ds, &entry) {
                    Ok(sketch) => Response::Sketch {
                        attrs: resolved
                            .attrs
                            .iter()
                            .map(|&a| sample.schema().attr(a).name().to_string())
                            .collect(),
                        estimate: sketch.query(&resolved.attrs).estimate(),
                        raw_pairs: sketch.raw_count(&resolved.attrs),
                        sample_pairs: sketch.sample_size(),
                        alpha: SKETCH_ALPHA,
                        rel_error: SKETCH_REL_EPS,
                        k: SKETCH_K,
                    },
                    Err(message) => Response::Error { message },
                }
            }
            Err(message) => Response::Error { message },
        },
        Request::Mask { ds, budget } => {
            if *budget == 0 {
                return Response::Error {
                    message: "mask budget must be ≥ 1".to_string(),
                };
            }
            with_entry(state, ds, cache, |entry| {
                // Masking plans on a Θ(m/√ε) sample internally, so a
                // stream-mode entry's retained sample is exactly the
                // input it needs — no materialisation. A memory-loaded
                // entry plans against the full data (its internal
                // sampling then draws from all n rows).
                let data = entry.dataset().unwrap_or_else(|| entry.filter.sample());
                let params = qid_core::filter::FilterParams::new(ds.eps);
                let plan = qid_core::masking::plan_masking(data, params, *budget, ds.seed);
                Response::Mask {
                    suppressed: plan
                        .suppressed
                        .iter()
                        .map(|&a| data.schema().attr(a).name().to_string())
                        .collect(),
                    residual_key_size: plan.residual_key_size,
                    full_data: entry.dataset().is_some(),
                }
            })
        }
        Request::Stats { ds } => match cache.sample_entry(state, ds) {
            Ok(entry) => stats_response(&state.registry, ds, &entry),
            Err(message) => Response::Error { message },
        },
        Request::Unload { ds } => {
            // Drop any batch-scoped resolution too, so a later
            // sub-command re-resolves instead of reviving the entry.
            cache.entries.remove(&CacheKey::of(ds));
            Response::Unloaded {
                existed: state.registry.unload(ds),
            }
        }
        Request::UnloadAll => {
            cache.entries.clear();
            Response::Unloaded {
                existed: state.registry.unload_all() > 0,
            }
        }
        Request::Metrics => Response::Metrics(state.metrics.report(
            state.registry.snapshot(),
            state.obs.uptime_seconds(),
            state.obs.shard_connections(),
        )),
        Request::Trace {
            last,
            command,
            min_us,
        } => Response::Trace {
            spans: state
                .obs
                .trace(*last, command.as_deref().map(obs::command_code), *min_us),
        },
        Request::Shutdown => Response::ShuttingDown,
    }
}

/// Answers `stats` from the resident artifact: exact dictionary sizes
/// when the dataset is materialised, KMV estimates from the per-column
/// sketches otherwise. No build feeds the column sketches: the first
/// `stats` on an entry without rows builds them by one scan
/// ([`Registry::cols_for`], a cache miss), and later ones, or a restart
/// over an artifact that holds them, answer without one. Either way a
/// `stats` on a stream entry never materialises the whole dataset —
/// `cache_upgrades` stays at 0 unless `load --mode memory` asks for it.
pub(crate) fn stats_response(registry: &Registry, ds: &DatasetRef, entry: &Entry) -> Response {
    fn exact_stats(dataset: &qid_dataset::Dataset) -> Response {
        Response::Stats {
            rows: dataset.n_rows(),
            exact: true,
            columns: (0..dataset.n_attrs())
                .map(|a| {
                    let attr = qid_dataset::AttrId::new(a);
                    (
                        dataset.schema().attr(attr).name().to_string(),
                        dataset.column(attr).dict_size(),
                    )
                })
                .collect(),
        }
    }
    if let Some(dataset) = entry.dataset() {
        return exact_stats(dataset);
    }
    let cols = match registry.cols_for(ds, entry) {
        Ok(cols) => cols,
        Err(message) => return Response::Error { message },
    };
    let schema = entry.filter.sample().schema();
    Response::Stats {
        rows: entry.rows,
        exact: cols.iter().all(qid_core::sketch::DistinctSketch::is_exact),
        columns: cols
            .iter()
            .enumerate()
            .map(|(a, sk)| {
                (
                    schema.attr(qid_dataset::AttrId::new(a)).name().to_string(),
                    sk.estimate(),
                )
            })
            .collect(),
    }
}

/// Runs `f` on the cached entry, resolving through the batch-scoped
/// cache (stream-mode load on a miss).
fn with_entry(
    state: &ServerState,
    ds: &DatasetRef,
    cache: &mut EntryCache,
    f: impl FnOnce(&Entry) -> Response,
) -> Response {
    match cache.sample_entry(state, ds) {
        Ok(entry) => f(&entry),
        Err(message) => Response::Error { message },
    }
}
