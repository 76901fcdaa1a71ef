//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Every request carries a
//! `"cmd"` tag; dataset-touching commands also carry the registry cache
//! key `(path, eps, seed)` so repeated queries hit the same cached
//! sketch. Unknown fields are ignored; missing optional fields take the
//! CLI's defaults, so hand-written `echo '{"cmd":"stats",...}' | nc`
//! sessions work.
//!
//! Two commands are composite: `sketch` queries the registry-cached
//! [`NonSeparationSketch`](qid_core::sketch::NonSeparationSketch)
//! (Theorem 2's Γ-estimates, built with the fixed [`sketch_params`]),
//! and `batch` carries an array of sub-commands answered as an array of
//! responses on one line — one registry resolution per distinct dataset
//! key, so `k` queries cost one lookup plus `k` sample-sized
//! computations.

use qid_core::sketch::SketchParams;

use crate::json::{self, obj, s, Json};

/// Default `eps` when a request omits it (matches the CLI default).
pub const DEFAULT_EPS: f64 = 0.001;
/// Default sampling seed when a request omits it.
pub const DEFAULT_SEED: u64 = 7;
/// Default `max_key_size` for `audit`.
pub const DEFAULT_MAX_KEY_SIZE: usize = 3;
/// Default adversary budget for `mask`.
pub const DEFAULT_BUDGET: usize = 2;
/// Default span count for `trace` when a request omits `last`.
pub const DEFAULT_TRACE_LAST: usize = 50;

/// Density threshold α of the served non-separation sketch: estimates
/// are promised whenever `Γ_A ≥ α·C(n,2)`.
pub const SKETCH_ALPHA: f64 = 0.1;
/// Relative accuracy ε of the served sketch's estimates (`(1±ε)·Γ_A`).
pub const SKETCH_REL_EPS: f64 = 0.1;
/// Maximum query subset size `k` the served sketch's for-all guarantee
/// covers (larger subsets are answered best-effort).
pub const SKETCH_K: usize = 3;

/// The fixed parameters of every served [`sketch`](Request::Sketch)
/// answer. They are part of the protocol contract (the response quotes
/// them back), so a client can reproduce a served answer exactly with
/// `sketch_from_stream(source, sketch_params(), seed)` on the same
/// data and seed.
pub fn sketch_params() -> SketchParams {
    SketchParams::new(SKETCH_ALPHA, SKETCH_REL_EPS, SKETCH_K)
}

/// The registry cache key a request addresses: which file, sampled how.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetRef {
    /// Path of the CSV file, as seen by the **server** process.
    pub path: String,
    /// Separation slack ε of the cached filter.
    pub eps: f64,
    /// Sampling seed of the cached filter.
    pub seed: u64,
}

/// How `load` should materialise the dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Read the whole CSV into memory (exact `stats`, full-data `mask`).
    Memory,
    /// One-pass reservoir build: keep only the `Θ(m/√ε)` sample (plus
    /// per-column distinct-count sketches for `stats`).
    Stream,
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Populate (or touch) the registry entry for a dataset.
    Load {
        /// Cache key.
        ds: DatasetRef,
        /// Materialisation mode.
        mode: LoadMode,
    },
    /// Enumerate minimal quasi-identifiers on the cached sample.
    Audit {
        /// Cache key.
        ds: DatasetRef,
        /// Largest attribute-set size to explore.
        max_key_size: usize,
    },
    /// Find one small ε-separation key (greedy, Proposition 1).
    Key {
        /// Cache key.
        ds: DatasetRef,
    },
    /// Test one attribute set against the cached filter.
    Check {
        /// Cache key.
        ds: DatasetRef,
        /// Attribute names (or indices as strings).
        attrs: Vec<String>,
    },
    /// Query the cached non-separation sketch (Theorem 2): the
    /// Γ-estimate for one attribute set.
    Sketch {
        /// Cache key.
        ds: DatasetRef,
        /// Attribute names (or indices as strings).
        attrs: Vec<String>,
    },
    /// Plan attribute suppression (on the full data when materialised,
    /// on the cached sample otherwise).
    Mask {
        /// Cache key.
        ds: DatasetRef,
        /// Adversary budget: defeat keys of at most this size.
        budget: usize,
    },
    /// Per-attribute cardinalities (exact on a materialised dataset,
    /// KMV estimates on a stream-mode entry).
    Stats {
        /// Cache key.
        ds: DatasetRef,
    },
    /// An array of sub-commands answered as an array, with one registry
    /// resolution per distinct dataset key. `batch` and `shutdown` are
    /// not allowed as sub-commands.
    Batch {
        /// The sub-commands, answered in order.
        requests: Vec<Request>,
    },
    /// Drop a registry entry (resident and persisted) explicitly.
    Unload {
        /// Cache key.
        ds: DatasetRef,
    },
    /// Purge every completed registry entry and every persisted cache
    /// artifact (`unload --all` on the CLI).
    UnloadAll,
    /// Server counters: per-command traffic, cache lifecycle counters,
    /// latency sums and percentiles.
    Metrics,
    /// Stop accepting connections, drain in-flight work, exit.
    Shutdown,
    /// Read the newest request spans from the flight-recorder ring:
    /// up to `last` records, optionally filtered by command name and
    /// minimum total duration.
    Trace {
        /// Maximum spans to return (newest first).
        last: usize,
        /// Only spans for this wire command, when set.
        command: Option<String>,
        /// Only spans whose queue + serve + write total is at least
        /// this many microseconds.
        min_us: u64,
    },
}

impl Request {
    /// The wire name of the command (also the metrics label).
    pub fn command_name(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::Audit { .. } => "audit",
            Request::Key { .. } => "key",
            Request::Check { .. } => "check",
            Request::Sketch { .. } => "sketch",
            Request::Mask { .. } => "mask",
            Request::Stats { .. } => "stats",
            Request::Batch { .. } => "batch",
            Request::Unload { .. } | Request::UnloadAll => "unload",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
            Request::Trace { .. } => "trace",
        }
    }

    /// The dataset reference the request addresses, when it has one
    /// (registry-level commands do not).
    pub fn dataset(&self) -> Option<&DatasetRef> {
        match self {
            Request::Load { ds, .. }
            | Request::Audit { ds, .. }
            | Request::Key { ds }
            | Request::Check { ds, .. }
            | Request::Sketch { ds, .. }
            | Request::Mask { ds, .. }
            | Request::Stats { ds }
            | Request::Unload { ds } => Some(ds),
            Request::Batch { .. }
            | Request::UnloadAll
            | Request::Metrics
            | Request::Shutdown
            | Request::Trace { .. } => None,
        }
    }

    /// The request as a JSON value (what [`Request::encode`] renders;
    /// also how `batch` nests its sub-commands).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("cmd", s(self.command_name()))];
        let push_ds = |pairs: &mut Vec<(&str, Json)>, ds: &DatasetRef| {
            pairs.push(("path", s(&ds.path)));
            pairs.push(("eps", Json::Num(ds.eps)));
            pairs.push(("seed", json::u64_value(ds.seed)));
        };
        match self {
            Request::Load { ds, mode } => {
                push_ds(&mut pairs, ds);
                pairs.push((
                    "mode",
                    s(match mode {
                        LoadMode::Memory => "memory",
                        LoadMode::Stream => "stream",
                    }),
                ));
            }
            Request::Audit { ds, max_key_size } => {
                push_ds(&mut pairs, ds);
                pairs.push(("max_key_size", Json::Int(*max_key_size as i64)));
            }
            Request::Key { ds } | Request::Stats { ds } | Request::Unload { ds } => {
                push_ds(&mut pairs, ds)
            }
            Request::Check { ds, attrs } | Request::Sketch { ds, attrs } => {
                push_ds(&mut pairs, ds);
                pairs.push(("attrs", Json::Arr(attrs.iter().map(s).collect())));
            }
            Request::Mask { ds, budget } => {
                push_ds(&mut pairs, ds);
                pairs.push(("budget", Json::Int(*budget as i64)));
            }
            Request::Batch { requests } => {
                pairs.push((
                    "requests",
                    Json::Arr(requests.iter().map(Request::to_json).collect()),
                ));
            }
            Request::UnloadAll => pairs.push(("all", Json::Bool(true))),
            Request::Trace {
                last,
                command,
                min_us,
            } => {
                pairs.push(("last", Json::Int(*last as i64)));
                if let Some(command) = command {
                    pairs.push(("command", s(command)));
                }
                pairs.push(("min_us", json::u64_value(*min_us)));
            }
            Request::Metrics | Request::Shutdown => {}
        }
        obj(pairs)
    }

    /// Serialises the request to its one-line wire form (no newline).
    pub fn encode(&self) -> String {
        self.to_json().render()
    }

    /// Parses one request line.
    pub fn decode(line: &str) -> Result<Request, String> {
        Self::from_json(&json::parse(line)?, true)
    }

    /// Builds a request from a parsed JSON value. `allow_composite`
    /// gates `batch`/`shutdown`: sub-commands of a batch may be
    /// neither (a nested batch would allow unbounded amplification, and
    /// a shutdown buried in a batch could not be acknowledged in
    /// order).
    fn from_json(v: &Json, allow_composite: bool) -> Result<Request, String> {
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"cmd\" field")?;
        let ds = |v: &Json| -> Result<DatasetRef, String> {
            let seed = match v.get("seed") {
                None => DEFAULT_SEED,
                // A present-but-invalid seed is an error, not a silent
                // fallback to the default — that would serve a
                // different sample than the one the client asked for.
                Some(x) => x
                    .as_u64_lossless()
                    .ok_or(format!("{cmd}: \"seed\" must be a non-negative integer"))?,
            };
            let eps = match v.get("eps") {
                None => DEFAULT_EPS,
                // Same contract as seed: eps is part of the cache key,
                // so a present-but-invalid value must not silently
                // become the default.
                Some(x) => x
                    .as_f64()
                    .ok_or(format!("{cmd}: \"eps\" must be a number"))?,
            };
            Ok(DatasetRef {
                path: v
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or(format!("{cmd} needs a string \"path\" field"))?
                    .to_string(),
                eps,
                seed,
            })
        };
        let str_arr = |field: &str| -> Result<Vec<String>, String> {
            v.get(field)
                .and_then(Json::as_arr)
                .ok_or(format!("{cmd} needs an {field:?} array"))?
                .iter()
                .map(|a| {
                    a.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{field} must be strings"))
                })
                .collect()
        };
        match cmd {
            "load" => {
                let mode = match v.get("mode").and_then(Json::as_str) {
                    None | Some("memory") => LoadMode::Memory,
                    Some("stream") => LoadMode::Stream,
                    Some(other) => return Err(format!("unknown load mode {other:?}")),
                };
                Ok(Request::Load { ds: ds(v)?, mode })
            }
            "audit" => Ok(Request::Audit {
                ds: ds(v)?,
                max_key_size: v
                    .get("max_key_size")
                    .and_then(Json::as_usize)
                    .unwrap_or(DEFAULT_MAX_KEY_SIZE),
            }),
            "key" => Ok(Request::Key { ds: ds(v)? }),
            "check" => Ok(Request::Check {
                ds: ds(v)?,
                attrs: str_arr("attrs")?,
            }),
            "sketch" => Ok(Request::Sketch {
                ds: ds(v)?,
                attrs: str_arr("attrs")?,
            }),
            "mask" => Ok(Request::Mask {
                ds: ds(v)?,
                budget: v
                    .get("budget")
                    .and_then(Json::as_usize)
                    .unwrap_or(DEFAULT_BUDGET),
            }),
            "stats" => Ok(Request::Stats { ds: ds(v)? }),
            "batch" if allow_composite => {
                let requests = v
                    .get("requests")
                    .and_then(Json::as_arr)
                    .ok_or("batch needs a \"requests\" array")?
                    .iter()
                    .map(|sub| Request::from_json(sub, false))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch { requests })
            }
            // `{"all": true}` purges the whole cache; otherwise the
            // usual dataset key is required (a bare `unload` with
            // neither stays an error).
            "unload" if v.get("all").and_then(Json::as_bool) == Some(true) => {
                Ok(Request::UnloadAll)
            }
            "unload" => Ok(Request::Unload { ds: ds(v)? }),
            "trace" => Ok(Request::Trace {
                last: v
                    .get("last")
                    .and_then(Json::as_usize)
                    .unwrap_or(DEFAULT_TRACE_LAST),
                command: v.get("command").and_then(Json::as_str).map(str::to_string),
                min_us: v.get("min_us").and_then(Json::as_u64).unwrap_or(0),
            }),
            "metrics" => Ok(Request::Metrics),
            "shutdown" if allow_composite => Ok(Request::Shutdown),
            "batch" | "shutdown" => Err(format!("{cmd:?} is not allowed as a batch sub-command")),
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// Traffic counters for one command, as reported by `metrics`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommandStats {
    /// Wire name of the command.
    pub name: String,
    /// Requests handled (including failed ones).
    pub count: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Sum of serve times, microseconds. A line's serve time is read
    /// once, on the poller shard or the worker that answered it, and is
    /// also its trace span's `serve_us`; a `batch` sub-command adds its
    /// own serve time and has no span.
    pub latency_us: u64,
    /// Median serve time (see [`CommandStats::latency_us`]) in
    /// microseconds, read off the fixed-size log₂ histogram: the upper
    /// edge of the bucket holding the quantile, so at most 2× the true
    /// value — except in the open-ended top bucket, where latencies
    /// beyond ~2.2 minutes all report its ~4.5-minute edge. The
    /// histogram is a two-epoch sliding window (see
    /// `qid_server::metrics::HISTOGRAM_EPOCH`), so quantiles describe
    /// recent traffic, not process history. Zero when the command has
    /// not been seen in the window.
    pub p50_us: u64,
    /// 99th-percentile serve time, same bucket scheme.
    pub p99_us: u64,
}

/// The full `metrics` payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Registry lookups answered from a resident entry.
    pub cache_hits: u64,
    /// Scans of a whole source (cold builds, stale rebuilds, rows
    /// scans, sketch builds), paid by a lookup, the sweeper or a
    /// `sketch`. Each lookup counts exactly once, as a hit, a miss or a
    /// disk hit; the sweeper's and `sketch`'s scans are misses too.
    pub cache_misses: u64,
    /// Artifacts restored from the `--cache-dir` warm tier instead of a
    /// scan, by a lookup, the sweeper, startup re-admission or a
    /// `sketch`.
    pub cache_disk_hits: u64,
    /// Entries evicted under `--cache-bytes` budget pressure.
    pub cache_evictions: u64,
    /// Rebuilds forced by a source-file mtime/len change.
    pub cache_stale_rebuilds: u64,
    /// Sample-only entries upgraded to a fully materialised dataset
    /// (each upgrade is also counted as a miss — it re-scans).
    pub cache_upgrades: u64,
    /// Grown source files absorbed incrementally: only the appended
    /// suffix was scanned and the resident reservoirs resumed (not a
    /// miss, not a stale rebuild).
    pub cache_append_updates: u64,
    /// Stale or appended entries the `--sweep-ms` background sweeper
    /// refreshed ahead of traffic.
    pub cache_sweep_refreshes: u64,
    /// Current resident bytes across all cached entries (samples,
    /// column sketches, non-separation sketches, materialised codes).
    pub cache_bytes: u64,
    /// Entries currently resident in the registry.
    pub datasets: usize,
    /// Connections accepted since process start (idle poller-held
    /// connections included).
    pub connections: u64,
    /// Request lines rejected for crossing the server's
    /// `--max-line-bytes` cap (answered with `line_too_long`).
    pub rejected_oversize: u64,
    /// Request lines rejected by the per-connection `--max-rps` token
    /// bucket (answered with `rate_limited`, before decoding).
    pub rejected_rate: u64,
    /// Connections turned away at accept time by `--max-conns`
    /// admission control (answered with `too_busy` and closed).
    pub rejected_busy: u64,
    /// Responses whose flush hit a full socket buffer and were parked
    /// with the connection (completed later by the owning poller when
    /// the peer drained; the worker was returned to the pool
    /// immediately).
    pub writes_parked: u64,
    /// Connections currently owned by each poller shard, in shard
    /// order (idle + write-parked; a dispatched connection is briefly
    /// owned by a worker instead). Empty when reported by a pre-shard
    /// server.
    pub poller_connections: Vec<u64>,
    /// Request bytes drained off client sockets since process start —
    /// the server-side cross-check for a load harness's sent-byte
    /// accounting (see `docs/BENCHMARKS.md`).
    pub bytes_read: u64,
    /// Response bytes successfully written back to clients since
    /// process start.
    pub bytes_written: u64,
    /// Seconds since the server started.
    pub uptime_seconds: u64,
    /// Prior lives of this server's cache dir, recovered from the
    /// registry's write-ahead journal at startup. `0` on a first boot
    /// or when the journal is disabled. Lifecycle counters above
    /// resume across those restarts, so rate/delta dashboards see one
    /// continuous series.
    pub restarts: u64,
    /// Journal records replayed at startup to warm this registry
    /// (counters + resident set); `0` when the journal is disabled.
    pub wal_replayed_events: u64,
    /// The server's crate version (`CARGO_PKG_VERSION` at build time).
    pub version: String,
    /// Per-command traffic, in fixed command order.
    pub commands: Vec<CommandStats>,
}

/// One request's span from the flight-recorder ring, as returned by
/// the `trace` command. Timings are microseconds; `queue_us` and
/// `write_us` are shared by every request served in the same poller
/// wake (see `docs/ARCHITECTURE.md`, "Observability").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSpan {
    /// Monotonic request id (1-based, assigned at serve time).
    pub id: u64,
    /// Wire command name; `"-"` for lines that never decoded
    /// (protocol errors, oversize and rate-limited rejections).
    pub command: String,
    /// Outcome kind: `ok`, `error`, `protocol_error`,
    /// `rejected_oversize`, or `rejected_rate`.
    pub outcome: String,
    /// Dataset cache-key hash as 16 hex digits (the registry's
    /// persistence file stem); empty when no dataset was resolved.
    pub key: String,
    /// Wait between poller dispatch and a worker picking the
    /// connection up; 0 for a request answered inline on its poller
    /// shard.
    pub queue_us: u64,
    /// Serve time for this request, on the shard or the worker.
    pub serve_us: u64,
    /// Response write/flush time for the wake.
    pub write_us: u64,
    /// Request-line bytes.
    pub bytes_in: u64,
    /// Response bytes produced by this request.
    pub bytes_out: u64,
    /// How long ago the span was published, milliseconds.
    pub age_ms: u64,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `load` outcome.
    Loaded {
        /// Rows in the underlying dataset (stream length for
        /// stream-mode loads).
        rows: usize,
        /// Attribute count `m`.
        attrs: usize,
        /// Retained sample size `|R|`.
        sample: usize,
        /// True iff the registry already held this entry.
        cached: bool,
    },
    /// `audit` outcome: minimal keys on the sample, as attribute-name
    /// lists, plus the fraction of sampled rows each uniquely
    /// identifies.
    Audit {
        /// One entry per minimal key: the names and the unique fraction.
        keys: Vec<(Vec<String>, f64)>,
    },
    /// `key` outcome.
    Key {
        /// Chosen attribute names, in pick order.
        attrs: Vec<String>,
        /// False iff the sample contains identical tuples (no key).
        complete: bool,
    },
    /// `check` outcome.
    Check {
        /// The resolved attribute names that were tested.
        attrs: Vec<String>,
        /// True = Accept (candidate ε-separation key).
        accept: bool,
    },
    /// `sketch` outcome: the Theorem 2 Γ-estimate for one attribute
    /// set, from the cached non-separation sketch.
    Sketch {
        /// The resolved attribute names that were queried.
        attrs: Vec<String>,
        /// `Γ̂_A`, the estimated number of unseparated pairs — `None`
        /// when the raw count falls below the α-threshold ("small": the
        /// set is close to a key).
        estimate: Option<f64>,
        /// The raw count `D_A`: stored pairs the set fails to separate.
        raw_pairs: usize,
        /// Stored pair-sample size `s`.
        sample_pairs: usize,
        /// The sketch's density threshold α (see [`SKETCH_ALPHA`]).
        alpha: f64,
        /// The estimate's relative error bound ε: estimates are within
        /// `(1±ε)·Γ_A` w.h.p. for subsets of size ≤ `k`.
        rel_error: f64,
        /// The subset-size bound `k` of the for-all guarantee.
        k: usize,
    },
    /// `mask` outcome.
    Mask {
        /// Attribute names to suppress, in suppression order.
        suppressed: Vec<String>,
        /// Smallest residual key size, if any identifying set remains.
        residual_key_size: Option<usize>,
        /// True when the plan was computed against the full
        /// materialised dataset; false when it was planned on the
        /// entry's retained `Θ(m/√ε)` sample (stream-mode entry). The
        /// same request can legitimately answer either way depending
        /// on cache residency, so the basis is part of the answer.
        full_data: bool,
    },
    /// `stats` outcome.
    Stats {
        /// Row count.
        rows: usize,
        /// True when distinct counts are exact (materialised dataset);
        /// false when they are KMV estimates from the stream sketch.
        exact: bool,
        /// `(name, distinct values)` per attribute.
        columns: Vec<(String, usize)>,
    },
    /// `batch` outcome: one response per sub-command, in order.
    Batch {
        /// The sub-responses (errors included inline; the batch itself
        /// is `ok`).
        results: Vec<Response>,
    },
    /// `unload` outcome.
    Unloaded {
        /// True iff a resident entry or persisted files were removed.
        existed: bool,
    },
    /// `metrics` outcome.
    Metrics(MetricsReport),
    /// `trace` outcome: the newest matching spans from the
    /// flight-recorder ring, newest first.
    Trace {
        /// The matching spans (at most the request's `last`).
        spans: Vec<TraceSpan>,
    },
    /// `shutdown` acknowledged; the server drains and exits.
    ShuttingDown,
    /// The request line crossed the server's `--max-line-bytes` cap.
    /// The oversized line was discarded in `O(cap)` memory and the
    /// connection stays usable — retry with a shorter line (split a
    /// large `batch`).
    LineTooLong {
        /// The server's configured cap, in bytes.
        limit: usize,
    },
    /// The connection exceeded its `--max-rps` request-rate budget.
    /// The line was rejected *before* decoding; the connection stays
    /// usable — slow down and retry.
    RateLimited {
        /// The server's configured per-connection requests/second.
        max_rps: u32,
    },
    /// The server is at its `--max-conns` connection capacity. Sent
    /// once on a freshly accepted connection, which is then closed —
    /// back off and reconnect later (unlike `rate_limited`, the
    /// connection does **not** stay usable).
    TooBusy {
        /// The server's configured connection cap.
        max_conns: usize,
    },
    /// Any failure.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// The response as a JSON value (what [`Response::encode`] renders;
    /// also how `batch` nests its results).
    pub fn to_json(&self) -> Json {
        match self {
            Response::Loaded {
                rows,
                attrs,
                sample,
                cached,
            } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("loaded")),
                ("rows", Json::Int(*rows as i64)),
                ("attrs", Json::Int(*attrs as i64)),
                ("sample", Json::Int(*sample as i64)),
                ("cached", Json::Bool(*cached)),
            ]),
            Response::Audit { keys } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("audit")),
                (
                    "keys",
                    Json::Arr(
                        keys.iter()
                            .map(|(names, frac)| {
                                obj(vec![
                                    ("attrs", Json::Arr(names.iter().map(s).collect())),
                                    ("unique_fraction", Json::Num(*frac)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Key { attrs, complete } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("key")),
                ("attrs", Json::Arr(attrs.iter().map(s).collect())),
                ("complete", Json::Bool(*complete)),
            ]),
            Response::Check { attrs, accept } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("check")),
                ("attrs", Json::Arr(attrs.iter().map(s).collect())),
                ("accept", Json::Bool(*accept)),
            ]),
            Response::Sketch {
                attrs,
                estimate,
                raw_pairs,
                sample_pairs,
                alpha,
                rel_error,
                k,
            } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("sketch")),
                ("attrs", Json::Arr(attrs.iter().map(s).collect())),
                ("small", Json::Bool(estimate.is_none())),
                ("estimate", estimate.map_or(Json::Null, Json::Num)),
                ("raw_pairs", Json::Int(*raw_pairs as i64)),
                ("sample_pairs", Json::Int(*sample_pairs as i64)),
                ("alpha", Json::Num(*alpha)),
                ("rel_error", Json::Num(*rel_error)),
                ("k", Json::Int(*k as i64)),
            ]),
            Response::Mask {
                suppressed,
                residual_key_size,
                full_data,
            } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("mask")),
                ("suppressed", Json::Arr(suppressed.iter().map(s).collect())),
                (
                    "residual_key_size",
                    residual_key_size.map_or(Json::Null, |k| Json::Int(k as i64)),
                ),
                ("full_data", Json::Bool(*full_data)),
            ]),
            Response::Stats {
                rows,
                exact,
                columns,
            } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("stats")),
                ("rows", Json::Int(*rows as i64)),
                ("exact", Json::Bool(*exact)),
                (
                    "columns",
                    Json::Arr(
                        columns
                            .iter()
                            .map(|(name, distinct)| {
                                obj(vec![
                                    ("name", s(name)),
                                    ("distinct", Json::Int(*distinct as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Batch { results } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("batch")),
                (
                    "results",
                    Json::Arr(results.iter().map(Response::to_json).collect()),
                ),
            ]),
            Response::Unloaded { existed } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("unloaded")),
                ("existed", Json::Bool(*existed)),
            ]),
            Response::Metrics(report) => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("metrics")),
                ("cache_hits", Json::Int(report.cache_hits as i64)),
                ("cache_misses", Json::Int(report.cache_misses as i64)),
                ("cache_disk_hits", Json::Int(report.cache_disk_hits as i64)),
                ("cache_evictions", Json::Int(report.cache_evictions as i64)),
                (
                    "cache_stale_rebuilds",
                    Json::Int(report.cache_stale_rebuilds as i64),
                ),
                ("cache_upgrades", Json::Int(report.cache_upgrades as i64)),
                (
                    "cache_append_updates",
                    Json::Int(report.cache_append_updates as i64),
                ),
                (
                    "cache_sweep_refreshes",
                    Json::Int(report.cache_sweep_refreshes as i64),
                ),
                ("cache_bytes", Json::Int(report.cache_bytes as i64)),
                ("datasets", Json::Int(report.datasets as i64)),
                ("connections", Json::Int(report.connections as i64)),
                (
                    "rejected_oversize",
                    Json::Int(report.rejected_oversize as i64),
                ),
                ("rejected_rate", Json::Int(report.rejected_rate as i64)),
                ("rejected_busy", Json::Int(report.rejected_busy as i64)),
                ("writes_parked", Json::Int(report.writes_parked as i64)),
                (
                    "poller_connections",
                    Json::Arr(
                        report
                            .poller_connections
                            .iter()
                            .map(|&n| json::u64_value(n))
                            .collect(),
                    ),
                ),
                ("bytes_read", Json::Int(report.bytes_read as i64)),
                ("bytes_written", Json::Int(report.bytes_written as i64)),
                ("uptime_seconds", Json::Int(report.uptime_seconds as i64)),
                ("restarts", Json::Int(report.restarts as i64)),
                (
                    "wal_replayed_events",
                    Json::Int(report.wal_replayed_events as i64),
                ),
                ("version", s(&report.version)),
                (
                    "commands",
                    Json::Arr(
                        report
                            .commands
                            .iter()
                            .map(|c| {
                                obj(vec![
                                    ("name", s(&c.name)),
                                    ("count", Json::Int(c.count as i64)),
                                    ("errors", Json::Int(c.errors as i64)),
                                    ("latency_us", Json::Int(c.latency_us as i64)),
                                    ("p50_us", Json::Int(c.p50_us as i64)),
                                    ("p99_us", Json::Int(c.p99_us as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Trace { spans } => obj(vec![
                ("ok", Json::Bool(true)),
                ("kind", s("trace")),
                (
                    "spans",
                    Json::Arr(
                        spans
                            .iter()
                            .map(|span| {
                                obj(vec![
                                    ("id", json::u64_value(span.id)),
                                    ("command", s(&span.command)),
                                    ("outcome", s(&span.outcome)),
                                    ("key", s(&span.key)),
                                    ("queue_us", json::u64_value(span.queue_us)),
                                    ("serve_us", json::u64_value(span.serve_us)),
                                    ("write_us", json::u64_value(span.write_us)),
                                    ("bytes_in", json::u64_value(span.bytes_in)),
                                    ("bytes_out", json::u64_value(span.bytes_out)),
                                    ("age_ms", json::u64_value(span.age_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::ShuttingDown => obj(vec![("ok", Json::Bool(true)), ("kind", s("bye"))]),
            Response::LineTooLong { limit } => obj(vec![
                ("ok", Json::Bool(false)),
                ("kind", s("line_too_long")),
                ("limit", Json::Int(*limit as i64)),
                (
                    "error",
                    s(format!("request line exceeds the {limit}-byte cap")),
                ),
            ]),
            Response::RateLimited { max_rps } => obj(vec![
                ("ok", Json::Bool(false)),
                ("kind", s("rate_limited")),
                ("max_rps", Json::Int(i64::from(*max_rps))),
                (
                    "error",
                    s(format!(
                        "connection exceeded {max_rps} requests/second; slow down"
                    )),
                ),
            ]),
            Response::TooBusy { max_conns } => obj(vec![
                ("ok", Json::Bool(false)),
                ("kind", s("too_busy")),
                ("max_conns", Json::Int(*max_conns as i64)),
                (
                    "error",
                    s(format!(
                        "server at its {max_conns}-connection capacity; retry later"
                    )),
                ),
            ]),
            Response::Error { message } => obj(vec![
                ("ok", Json::Bool(false)),
                ("kind", s("error")),
                ("error", s(message)),
            ]),
        }
    }

    /// Serialises the response to its one-line wire form (no newline).
    pub fn encode(&self) -> String {
        self.to_json().render()
    }

    /// Parses one response line.
    pub fn decode(line: &str) -> Result<Response, String> {
        Self::from_json(&json::parse(line)?)
    }

    /// Builds a response from a parsed JSON value (recursing into
    /// `batch` results).
    fn from_json(v: &Json) -> Result<Response, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("response needs a string \"kind\" field")?;
        let str_arr = |field: &str| -> Result<Vec<String>, String> {
            v.get(field)
                .and_then(Json::as_arr)
                .ok_or(format!("{kind} response needs a {field:?} array"))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or(format!("{field} entries must be strings"))
                })
                .collect()
        };
        let usize_field = |field: &str| -> Result<usize, String> {
            v.get(field)
                .and_then(Json::as_usize)
                .ok_or(format!("{kind} response needs an integer {field:?}"))
        };
        match kind {
            "loaded" => Ok(Response::Loaded {
                rows: usize_field("rows")?,
                attrs: usize_field("attrs")?,
                sample: usize_field("sample")?,
                cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            }),
            "audit" => {
                let keys = v
                    .get("keys")
                    .and_then(Json::as_arr)
                    .ok_or("audit response needs a \"keys\" array")?
                    .iter()
                    .map(|k| {
                        let names = k
                            .get("attrs")
                            .and_then(Json::as_arr)
                            .ok_or("audit key needs an \"attrs\" array")?
                            .iter()
                            .map(|x| {
                                x.as_str()
                                    .map(str::to_string)
                                    .ok_or("attrs entries must be strings".to_string())
                            })
                            .collect::<Result<Vec<_>, String>>()?;
                        let frac = k
                            .get("unique_fraction")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0);
                        Ok((names, frac))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Audit { keys })
            }
            "key" => Ok(Response::Key {
                attrs: str_arr("attrs")?,
                complete: v.get("complete").and_then(Json::as_bool).unwrap_or(true),
            }),
            "check" => Ok(Response::Check {
                attrs: str_arr("attrs")?,
                accept: v
                    .get("accept")
                    .and_then(Json::as_bool)
                    .ok_or("check response needs a bool \"accept\"")?,
            }),
            "sketch" => Ok(Response::Sketch {
                attrs: str_arr("attrs")?,
                estimate: v.get("estimate").and_then(Json::as_f64),
                raw_pairs: usize_field("raw_pairs")?,
                sample_pairs: usize_field("sample_pairs")?,
                alpha: v
                    .get("alpha")
                    .and_then(Json::as_f64)
                    .ok_or("sketch response needs a number \"alpha\"")?,
                rel_error: v
                    .get("rel_error")
                    .and_then(Json::as_f64)
                    .ok_or("sketch response needs a number \"rel_error\"")?,
                k: usize_field("k")?,
            }),
            "mask" => Ok(Response::Mask {
                suppressed: str_arr("suppressed")?,
                residual_key_size: v.get("residual_key_size").and_then(Json::as_usize),
                // Pre-sketch servers only ever masked materialised data.
                full_data: v.get("full_data").and_then(Json::as_bool).unwrap_or(true),
            }),
            "stats" => {
                let columns = v
                    .get("columns")
                    .and_then(Json::as_arr)
                    .ok_or("stats response needs a \"columns\" array")?
                    .iter()
                    .map(|c| {
                        let name = c
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("column needs a name")?
                            .to_string();
                        let distinct = c
                            .get("distinct")
                            .and_then(Json::as_usize)
                            .ok_or("column needs a distinct count")?;
                        Ok((name, distinct))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Response::Stats {
                    rows: usize_field("rows")?,
                    exact: v.get("exact").and_then(Json::as_bool).unwrap_or(true),
                    columns,
                })
            }
            "batch" => {
                let results = v
                    .get("results")
                    .and_then(Json::as_arr)
                    .ok_or("batch response needs a \"results\" array")?
                    .iter()
                    .map(Response::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Batch { results })
            }
            "unloaded" => Ok(Response::Unloaded {
                existed: v.get("existed").and_then(Json::as_bool).unwrap_or(false),
            }),
            "metrics" => {
                let commands = v
                    .get("commands")
                    .and_then(Json::as_arr)
                    .ok_or("metrics response needs a \"commands\" array")?
                    .iter()
                    .map(|c| {
                        Ok(CommandStats {
                            name: c
                                .get("name")
                                .and_then(Json::as_str)
                                .ok_or("command stat needs a name")?
                                .to_string(),
                            count: c.get("count").and_then(Json::as_u64).unwrap_or(0),
                            errors: c.get("errors").and_then(Json::as_u64).unwrap_or(0),
                            latency_us: c.get("latency_us").and_then(Json::as_u64).unwrap_or(0),
                            p50_us: c.get("p50_us").and_then(Json::as_u64).unwrap_or(0),
                            p99_us: c.get("p99_us").and_then(Json::as_u64).unwrap_or(0),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let u64_field = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
                Ok(Response::Metrics(MetricsReport {
                    cache_hits: u64_field("cache_hits"),
                    cache_misses: u64_field("cache_misses"),
                    cache_disk_hits: u64_field("cache_disk_hits"),
                    cache_evictions: u64_field("cache_evictions"),
                    cache_stale_rebuilds: u64_field("cache_stale_rebuilds"),
                    cache_upgrades: u64_field("cache_upgrades"),
                    cache_append_updates: u64_field("cache_append_updates"),
                    cache_sweep_refreshes: u64_field("cache_sweep_refreshes"),
                    cache_bytes: u64_field("cache_bytes"),
                    datasets: v.get("datasets").and_then(Json::as_usize).unwrap_or(0),
                    connections: u64_field("connections"),
                    rejected_oversize: u64_field("rejected_oversize"),
                    rejected_rate: u64_field("rejected_rate"),
                    rejected_busy: u64_field("rejected_busy"),
                    writes_parked: u64_field("writes_parked"),
                    poller_connections: v
                        .get("poller_connections")
                        .and_then(Json::as_arr)
                        .map(|arr| arr.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default(),
                    bytes_read: u64_field("bytes_read"),
                    bytes_written: u64_field("bytes_written"),
                    uptime_seconds: u64_field("uptime_seconds"),
                    // Absent on pre-WAL peers: defaults keep decode
                    // backward compatible.
                    restarts: u64_field("restarts"),
                    wal_replayed_events: u64_field("wal_replayed_events"),
                    version: v
                        .get("version")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    commands,
                }))
            }
            "trace" => {
                let spans = v
                    .get("spans")
                    .and_then(Json::as_arr)
                    .ok_or("trace response needs a \"spans\" array")?
                    .iter()
                    .map(|span| {
                        let text = |name: &str| {
                            span.get(name)
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_string()
                        };
                        let num = |name: &str| span.get(name).and_then(Json::as_u64).unwrap_or(0);
                        TraceSpan {
                            id: num("id"),
                            command: text("command"),
                            outcome: text("outcome"),
                            key: text("key"),
                            queue_us: num("queue_us"),
                            serve_us: num("serve_us"),
                            write_us: num("write_us"),
                            bytes_in: num("bytes_in"),
                            bytes_out: num("bytes_out"),
                            age_ms: num("age_ms"),
                        }
                    })
                    .collect();
                Ok(Response::Trace { spans })
            }
            "bye" => Ok(Response::ShuttingDown),
            "line_too_long" => Ok(Response::LineTooLong {
                limit: usize_field("limit")?,
            }),
            "rate_limited" => Ok(Response::RateLimited {
                max_rps: v
                    .get("max_rps")
                    .and_then(Json::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("rate_limited response needs an integer \"max_rps\"")?,
            }),
            "too_busy" => Ok(Response::TooBusy {
                max_conns: usize_field("max_conns")?,
            }),
            "error" => Ok(Response::Error {
                message: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            }),
            other => Err(format!("unknown response kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> DatasetRef {
        DatasetRef {
            path: "/tmp/x.csv".into(),
            eps: 0.01,
            seed: 42,
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Load {
                ds: ds(),
                mode: LoadMode::Stream,
            },
            Request::Audit {
                ds: ds(),
                max_key_size: 4,
            },
            Request::Key { ds: ds() },
            Request::Check {
                ds: ds(),
                attrs: vec!["zip".into(), "age".into()],
            },
            Request::Sketch {
                ds: ds(),
                attrs: vec!["zip".into()],
            },
            Request::Mask {
                ds: ds(),
                budget: 2,
            },
            Request::Stats { ds: ds() },
            Request::Batch {
                requests: vec![
                    Request::Check {
                        ds: ds(),
                        attrs: vec!["zip".into()],
                    },
                    Request::Metrics,
                ],
            },
            Request::Unload { ds: ds() },
            Request::UnloadAll,
            Request::Metrics,
            Request::Shutdown,
            Request::Trace {
                last: 20,
                command: Some("check".into()),
                min_us: 1_000,
            },
            Request::Trace {
                last: DEFAULT_TRACE_LAST,
                command: None,
                min_us: 0,
            },
        ];
        for req in reqs {
            let line = req.encode();
            assert!(!line.contains('\n'));
            let back = Request::decode(&line).unwrap();
            assert_eq!(back, req, "wire line: {line}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Loaded {
                rows: 800,
                attrs: 4,
                sample: 40,
                cached: true,
            },
            Response::Audit {
                keys: vec![
                    (vec!["id".into()], 1.0),
                    (vec!["zip".into(), "age".into()], 0.5),
                ],
            },
            Response::Key {
                attrs: vec!["id".into()],
                complete: true,
            },
            Response::Check {
                attrs: vec!["sex".into()],
                accept: false,
            },
            Response::Sketch {
                attrs: vec!["sex".into()],
                estimate: Some(159800.5),
                raw_pairs: 2051,
                sample_pairs: 4159,
                alpha: SKETCH_ALPHA,
                rel_error: SKETCH_REL_EPS,
                k: SKETCH_K,
            },
            Response::Sketch {
                attrs: vec!["id".into()],
                estimate: None,
                raw_pairs: 0,
                sample_pairs: 4159,
                alpha: SKETCH_ALPHA,
                rel_error: SKETCH_REL_EPS,
                k: SKETCH_K,
            },
            Response::Mask {
                suppressed: vec!["id".into()],
                residual_key_size: None,
                full_data: true,
            },
            Response::Mask {
                suppressed: vec![],
                residual_key_size: Some(3),
                full_data: false,
            },
            Response::Stats {
                rows: 800,
                exact: true,
                columns: vec![("id".into(), 800), ("sex".into(), 2)],
            },
            Response::Stats {
                rows: 800,
                exact: false,
                columns: vec![("id".into(), 793)],
            },
            Response::Batch {
                results: vec![
                    Response::Check {
                        attrs: vec!["id".into()],
                        accept: true,
                    },
                    Response::Error {
                        message: "unknown attribute".into(),
                    },
                ],
            },
            Response::Unloaded { existed: true },
            Response::Unloaded { existed: false },
            Response::Metrics(MetricsReport {
                cache_hits: 3,
                cache_misses: 1,
                cache_disk_hits: 2,
                cache_evictions: 1,
                cache_stale_rebuilds: 1,
                cache_upgrades: 1,
                cache_append_updates: 2,
                cache_sweep_refreshes: 1,
                cache_bytes: 4096,
                datasets: 1,
                connections: 12,
                rejected_oversize: 2,
                rejected_rate: 7,
                rejected_busy: 3,
                writes_parked: 2,
                poller_connections: vec![5, 7],
                bytes_read: 4096,
                bytes_written: 9182,
                uptime_seconds: 3600,
                restarts: 2,
                wal_replayed_events: 41,
                version: "0.1.0".into(),
                commands: vec![CommandStats {
                    name: "audit".into(),
                    count: 4,
                    errors: 0,
                    latency_us: 12345,
                    p50_us: 2047,
                    p99_us: 8191,
                }],
            }),
            Response::Trace { spans: vec![] },
            Response::Trace {
                spans: vec![
                    TraceSpan {
                        id: 9,
                        command: "check".into(),
                        outcome: "ok".into(),
                        key: "00c0ffee00c0ffee".into(),
                        queue_us: 12,
                        serve_us: 345,
                        write_us: 6,
                        bytes_in: 128,
                        bytes_out: 64,
                        age_ms: 1500,
                    },
                    TraceSpan {
                        id: 8,
                        command: "-".into(),
                        outcome: "protocol_error".into(),
                        key: String::new(),
                        queue_us: 0,
                        serve_us: 2,
                        write_us: 1,
                        bytes_in: 17,
                        bytes_out: 80,
                        age_ms: 2000,
                    },
                ],
            },
            Response::ShuttingDown,
            Response::LineTooLong { limit: 262_144 },
            Response::RateLimited { max_rps: 50 },
            Response::TooBusy { max_conns: 10_000 },
            Response::Error {
                message: "no such file".into(),
            },
        ];
        for resp in resps {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            let back = Response::decode(&line).unwrap();
            assert_eq!(back, resp, "wire line: {line}");
        }
    }

    #[test]
    fn defaults_fill_in() {
        let req = Request::decode(r#"{"cmd":"audit","path":"a.csv"}"#).unwrap();
        match req {
            Request::Audit { ds, max_key_size } => {
                assert_eq!(ds.eps, DEFAULT_EPS);
                assert_eq!(ds.seed, DEFAULT_SEED);
                assert_eq!(max_key_size, DEFAULT_MAX_KEY_SIZE);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn unload_all_is_explicit() {
        assert_eq!(
            Request::decode(r#"{"cmd":"unload","all":true}"#).unwrap(),
            Request::UnloadAll
        );
        // `all` must be literally true: anything else falls back to the
        // per-dataset form, which still demands a path.
        assert!(Request::decode(r#"{"cmd":"unload","all":false}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"unload"}"#).is_err());
    }

    #[test]
    fn trace_defaults_fill_in() {
        assert_eq!(
            Request::decode(r#"{"cmd":"trace"}"#).unwrap(),
            Request::Trace {
                last: DEFAULT_TRACE_LAST,
                command: None,
                min_us: 0,
            }
        );
    }

    #[test]
    fn huge_seeds_roundtrip_exactly() {
        let req = Request::Key {
            ds: DatasetRef {
                path: "a.csv".into(),
                eps: 0.01,
                seed: u64::MAX,
            },
        };
        let line = req.encode();
        assert_eq!(Request::decode(&line).unwrap(), req, "wire line: {line}");
        // And present-but-garbage cache-key fields are errors, not
        // silent defaults.
        assert!(Request::decode(r#"{"cmd":"key","path":"a.csv","seed":-3}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"key","path":"a.csv","seed":"x"}"#).is_err());
        assert!(Request::decode(r#"{"cmd":"key","path":"a.csv","eps":"0.05"}"#).is_err());
    }

    #[test]
    fn malformed_requests_rejected() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"cmd":"explode"}"#,
            r#"{"cmd":"audit"}"#,
            r#"{"cmd":"unload"}"#,
            r#"{"cmd":"check","path":"a.csv"}"#,
            r#"{"cmd":"sketch","path":"a.csv"}"#,
            r#"{"cmd":"load","path":"a.csv","mode":"warp"}"#,
            r#"{"cmd":"batch"}"#,
            r#"{"cmd":"batch","requests":[{"cmd":"key"}]}"#,
        ] {
            assert!(Request::decode(line).is_err(), "should reject {line:?}");
        }
    }

    #[test]
    fn batches_cannot_nest_or_shut_down() {
        let nested = r#"{"cmd":"batch","requests":[{"cmd":"batch","requests":[]}]}"#;
        let err = Request::decode(nested).unwrap_err();
        assert!(err.contains("batch"), "{err}");
        let shutdown = r#"{"cmd":"batch","requests":[{"cmd":"shutdown"}]}"#;
        let err = Request::decode(shutdown).unwrap_err();
        assert!(err.contains("shutdown"), "{err}");
        // An empty batch is well-formed (and answered with an empty
        // results array).
        assert_eq!(
            Request::decode(r#"{"cmd":"batch","requests":[]}"#).unwrap(),
            Request::Batch { requests: vec![] }
        );
    }

    #[test]
    fn sketch_params_match_the_advertised_contract() {
        let p = sketch_params();
        assert_eq!(p.alpha, SKETCH_ALPHA);
        assert_eq!(p.eps, SKETCH_REL_EPS);
        assert_eq!(p.k, SKETCH_K);
    }

    #[test]
    fn stats_exact_defaults_true_for_old_peers() {
        // A stats line from a pre-sketch server has no "exact" field;
        // those servers only ever answered from materialised data.
        let resp = Response::decode(r#"{"ok":true,"kind":"stats","rows":2,"columns":[]}"#).unwrap();
        assert_eq!(
            resp,
            Response::Stats {
                rows: 2,
                exact: true,
                columns: vec![]
            }
        );
    }

    #[test]
    fn unknown_fields_ignored() {
        let req = Request::decode(r#"{"cmd":"key","path":"a.csv","future":1}"#).unwrap();
        assert_eq!(req.command_name(), "key");
    }
}
