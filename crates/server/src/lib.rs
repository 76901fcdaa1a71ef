//! # qid-server — a resident quasi-identifier audit service
//!
//! The paper's sampling bounds make the *query* side of
//! quasi-identifier discovery cheap: every ε-separation-key question is
//! answered from a `Θ(m/√ε)` tuple sample, not the data. The expensive
//! part — scanning the CSV and building the sample — therefore belongs
//! in a process that outlives a single query. This crate is that
//! process:
//!
//! * [`registry`] — the **registry lifecycle subsystem** mapping
//!   `(path, eps, seed) → cached artifacts`: the resident
//!   [`qid_core::filter::TupleSampleFilter`] (Theorem 1), per-column
//!   KMV distinct-count sketches (so `stats` answers without
//!   materialising), a lazily built
//!   [`qid_core::sketch::NonSeparationSketch`] (Theorem 2, behind the
//!   `sketch` command), and — for memory-mode loads — the full
//!   dataset. The cache is sharded by key hash (read hits take one
//!   shared lock), LRU-evicts under a configurable byte budget,
//!   persists each key as one checksummed binary [`artifact`] in a
//!   cache directory so restarts warm up without re-scanning sources,
//!   and stats the source file on every
//!   hit so in-place rewrites trigger a rebuild instead of a stale
//!   answer. Concurrent cold lookups (and cold sketch queries)
//!   collapse onto one build.
//! * [`proto`] — the newline-delimited JSON wire protocol
//!   (`load`, `audit`, `key`, `check`, `sketch`, `mask`, `stats`,
//!   `batch`, `unload`, `metrics`, `shutdown`), hand-rolled over
//!   [`json`] because the build environment is offline (no serde).
//!   `batch` carries an array of sub-commands on one line, answered as
//!   an array with one registry resolution per distinct dataset key.
//! * [`poller`] — the **sharded readiness-driven connection core**:
//!   `--pollers` shard threads (default `min(4, cores)`) each own a
//!   round-robin share of the idle connections in non-blocking mode
//!   behind a minimal vendored readiness shim (`epoll` on Linux,
//!   `poll(2)` elsewhere) and hand only
//!   *readable* connections to the worker pool, so thousands of idle
//!   keep-alive clients cost zero worker time. Writes are
//!   readiness-driven too: a response the socket refuses is parked
//!   with the connection and finished by its owning shard when the
//!   peer drains — a slow reader costs `writes_parked` increments,
//!   never a blocked worker. The core also owns the
//!   protocol-hardening knobs for untrusted clients: a request-line
//!   byte cap (`--max-line-bytes`, structured `line_too_long` answer,
//!   `O(cap)` memory), a per-connection token-bucket request-rate
//!   limit (`--max-rps`, `rate_limited` answer before decoding), and
//!   an admission cap on live connections (`--max-conns`, one
//!   structured `too_busy` answer then close).
//! * [`fastpath`] — the **zero-allocation `check` path**: a byte-level
//!   scanner over the request line, a per-connection [`Scratch`]
//!   arena, a windowed-revalidation registry read
//!   ([`Registry::peek`]), and direct byte serialisation, so the
//!   steady-state request (a plain `check` over a resident entry)
//!   performs no heap allocation at all — proved by a
//!   counting-allocator test, not asserted by eye. Anything unusual
//!   bails to the general path, which stays the single authority for
//!   errors and edge cases.
//! * [`obs`] — the **flight recorder**: per-request trace spans
//!   captured into preallocated per-connection slots and published to
//!   a fixed-size lock-light ring (queryable live via the `trace`
//!   command), an optional `--metrics-addr` Prometheus text-format
//!   exposition listener (hand-rolled HTTP GET, no deps), and NDJSON
//!   slow-request (`--slow-ms`) and lifecycle-event (`--log-json`)
//!   logging on stderr. Instrumentation preserves the zero-allocation
//!   `check` fast-path contract — proved by the same counting-allocator
//!   test with tracing, slow detection, the metrics listener and two
//!   live poller shards all on.
//! * [`wal`] — the **durability tier**: a write-ahead journal of
//!   registry lifecycle events and counter records plus a periodic
//!   snapshot under `--cache-dir`, fsync'd off the request path by a
//!   background flusher. On startup the journal
//!   is replayed: cumulative counters resume (dashboards survive
//!   restarts — `qid_restarts_total` counts prior lives), the previous
//!   resident set is eagerly re-admitted in preserved LRU order, and a
//!   journal without a clean-shutdown record is crash evidence that
//!   unlocks the immediate `*.tmp` orphan sweep. `qid wal <dir>`
//!   dumps/verifies the journal and every artifact.
//! * [`pool`] — a fixed worker thread pool over `mpsc` channels;
//!   shutdown drains in-flight work before the process exits.
//! * [`server`] — the `std::net::TcpListener` accept loop and request
//!   dispatch, with per-command [`metrics`] including sliding-window
//!   log₂ latency histograms (server-side p50/p99 over the last 1–2
//!   epochs).
//! * [`client`] — the thin blocking client the `qid query` CLI (and the
//!   benchmarks) use.
//!
//! Everything is `std`-only: no async runtime, no external crates
//! beyond the vendored readiness shim.
//!
//! ## The wire protocol in one round trip
//!
//! One JSON object per line in each direction. The request names a
//! command and the registry cache key `(path, eps, seed)`; the response
//! echoes `ok`/`kind` plus the payload:
//!
//! ```
//! use qid_server::{Request, Response};
//!
//! // Parse what a client (or `echo … | nc`) would send:
//! let request = Request::decode(
//!     r#"{"cmd":"audit","path":"data.csv","eps":0.01,"seed":7,"max_key_size":2}"#,
//! )
//! .unwrap();
//! assert_eq!(request.command_name(), "audit");
//!
//! // And what the server answers:
//! let reply = Response::Audit {
//!     keys: vec![(vec!["zip".into(), "age".into()], 0.93)],
//! };
//! let line = reply.encode();
//! assert!(line.contains(r#""ok":true"#));
//! assert_eq!(Response::decode(&line).unwrap(), reply);
//! ```
//!
//! ## Theorem 2 on the wire: the `sketch` command
//!
//! `sketch` queries the registry-cached non-separation sketch for one
//! attribute set and returns the Γ-estimate, the raw pair count, the
//! stored sample size and the error bound. The sketch is built with
//! the protocol-fixed [`proto::sketch_params`] and the request's seed,
//! so a client can reproduce a served answer bit-for-bit with
//! [`qid_core::stream::sketch_from_stream`] on the same data:
//!
//! ```
//! use qid_server::{proto::sketch_params, Request, Response};
//!
//! let request = Request::decode(
//!     r#"{"cmd":"sketch","path":"data.csv","eps":0.01,"seed":7,"attrs":["zip","age"]}"#,
//! )
//! .unwrap();
//! assert_eq!(request.command_name(), "sketch");
//!
//! // A dense subset gets an estimate; a near-key answers "small".
//! let reply = Response::Sketch {
//!     attrs: vec!["zip".into(), "age".into()],
//!     estimate: Some(152_310.0), // Γ̂ ∈ (1±rel_error)·Γ w.h.p.
//!     raw_pairs: 1902,
//!     sample_pairs: 4159,
//!     alpha: sketch_params().alpha,
//!     rel_error: sketch_params().eps,
//!     k: sketch_params().k,
//! };
//! let line = reply.encode();
//! assert!(line.contains(r#""kind":"sketch""#));
//! assert!(line.contains(r#""small":false"#));
//! assert_eq!(Response::decode(&line).unwrap(), reply);
//! ```
//!
//! ## In-process quickstart
//!
//! ```no_run
//! use qid_server::{Client, Request, Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let running = server.spawn();
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client
//!     .call(&Request::Key {
//!         ds: qid_server::DatasetRef {
//!             path: "data.csv".into(),
//!             eps: 0.001,
//!             seed: 7,
//!         },
//!     })
//!     .unwrap();
//! println!("{reply:?}");
//! client.call(&Request::Shutdown).unwrap();
//! running.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod build;
pub mod client;
mod disk;
pub mod fastpath;
mod freshness;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod poller;
pub mod pool;
pub mod proto;
pub mod registry;
pub mod resolve;
pub mod server;
pub mod wal;

pub use client::Client;
pub use fastpath::Scratch;
pub use obs::BUILD_VERSION;
pub use poller::backend_name;
pub use pool::WorkerPool;
pub use proto::{sketch_params, DatasetRef, LoadMode, MetricsReport, Request, Response, TraceSpan};
pub use registry::{CacheKey, Registry, RegistryConfig, RegistrySnapshot};
pub use resolve::{resolve_attr_names, split_attr_spec, ResolvedAttrs};
pub use server::{
    handle_request, RunningServer, Server, ServerConfig, ServerState, DEFAULT_MAX_LINE_BYTES,
    DEFAULT_REVALIDATE_MS,
};
