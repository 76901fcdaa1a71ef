//! The layer-ledger benchmark: one command that builds seeded inputs,
//! spawns `qid serve` as its own process, drives a workload against it,
//! checks every answer against an in-process reference, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`) as one JSON line. See `layerbench/README.md`.

mod alloc;
mod data;
mod layers;
mod load;
mod oracle;
mod proc;
mod stats;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qid_loadgen::{MixWeights, RequestMix};
use qid_server::proto::{DatasetRef, LoadMode, MetricsReport, Request, Response, TraceSpan};

use crate::data::{Inputs, ParseLayers, Reference, EPS, N_APPEND, N_BASE};
use crate::load::{Rpc, Script};
use crate::proc::ServerProc;
use crate::stats::{interquartile_mean, steady_mean, Metrics, Served};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Ingest cycles run as set-up on the served workloads (whose cold
/// figures come from them) and on `ingest_cycle`; `setup_s` is their
/// interquartile mean wall time. A cold step's time varies by ±10–15 %
/// from one cycle to the next, independently of the cycle before, so a
/// run's figure steadies only with the number of cycles it pools: 9 on
/// every workload (on `ingest_cycle`, set-up plus the measured ones), as
/// many as the benchmark's time limit allows.
const SERVED_SETUP_CYCLES: usize = 9;
const INGEST_SETUP_CYCLES: usize = 3;
/// `ingest_cycle` measures cycles until `--seconds` pass, and at least
/// this many. Each ends in a `check` burst on a freshly restarted
/// server, and the workload's hot figures are medians over the bursts,
/// so they steady with the number of servers sampled.
const MIN_MEASURED_CYCLES: usize = 6;
/// Traffic before a served window opens, latencies discarded.
const WARMUP: Duration = Duration::from_secs(1);
/// The `check` burst after each measured `ingest_cycle` restart.
const BURST: Duration = Duration::from_secs(1);
const BURST_WARMUP: Duration = Duration::from_millis(100);
/// Pre-encoded request lines per connection, replayed in a loop; short
/// enough that a one-second slice replays it several times.
const SCRIPT_LINES: usize = 1500;
/// A run that has not finished by then is stopped, servers included.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    CheckHot,
    MixedGeneral,
    IngestCycle,
}

struct Args {
    qid: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: layerbench --qid <qid binary> --work <dir> \
--workload check_hot|mixed_general|ingest_cycle --seed <n> --seconds <n> --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let args = Args {
        qid: take("--qid")?.into(),
        work: take("--work")?.into(),
        workload: match take("--workload")?.as_str() {
            "check_hot" => Workload::CheckHot,
            "mixed_general" => Workload::MixedGeneral,
            "ingest_cycle" => Workload::IngestCycle,
            other => return Err(format!("unknown workload {other:?}")),
        },
        seed: take("--seed")?
            .parse()
            .map_err(|_| "--seed wants an integer")?,
        seconds: take("--seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or("--seconds wants a positive integer")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace wants 0 or 1".to_string()),
        },
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = args.work.join(format!("run-{}", std::process::id()));
    let watchdog_dir = dir.clone();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("layerbench: run exceeded {WATCHDOG:?}, stopping");
        proc::kill_all();
        let _ = std::fs::remove_dir_all(&watchdog_dir);
        std::process::exit(1);
    });
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&args.work);
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("layerbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every answer checked so far and the first wrong one.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Option<String>,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first.get_or_insert_with(what);
        }
    }
}

/// Shared inputs of one run.
struct Ctx<'a> {
    args: &'a Args,
    dir: &'a Path,
    inputs: &'a Inputs,
    reference: &'a Reference,
    /// Fixed `check` probe set: every single column, every pair, and
    /// one triple per column.
    probes: Vec<Vec<String>>,
}

fn probes(names: &[String]) -> Vec<Vec<String>> {
    let m = names.len();
    let mut out: Vec<Vec<String>> = names.iter().map(|n| vec![n.clone()]).collect();
    for i in 0..m {
        for j in i + 1..m {
            out.push(vec![names[i].clone(), names[j].clone()]);
        }
    }
    for i in 0..m {
        out.push(vec![
            names[i].clone(),
            names[(i + 1) % m].clone(),
            names[(i + 5) % m].clone(),
        ]);
    }
    out
}

/// Sends `request` and records whether the reply encodes exactly like
/// `expected`. Returns the round-trip time in seconds.
fn call(
    tally: &mut Tally,
    client: &mut Rpc,
    request: &Request,
    expected: &Response,
) -> Result<f64, String> {
    let t = Instant::now();
    let reply = client
        .call(request)
        .map_err(|e| format!("{} failed: {e}", request.command_name()))?;
    let elapsed = t.elapsed().as_secs_f64();
    let (got, want) = (reply.encode(), expected.encode());
    tally.record(got == want, || {
        format!("{} answered {got} expected {want}", request.encode())
    });
    Ok(elapsed)
}

/// Every probe's served verdict must equal `query_sorted` on `filter`.
fn probe_gate(
    ctx: &Ctx,
    tally: &mut Tally,
    client: &mut Rpc,
    ds: &DatasetRef,
    filter: &qid_core::filter::TupleSampleFilter,
) -> Result<(), String> {
    for attrs in &ctx.probes {
        let request = Request::Check {
            ds: ds.clone(),
            attrs: attrs.clone(),
        };
        call(tally, client, &request, &oracle::check(filter, attrs)?)?;
    }
    Ok(())
}

fn metrics_report(server: &ServerProc) -> Result<MetricsReport, String> {
    match server.client()?.call(&Request::Metrics) {
        Ok(Response::Metrics(report)) => Ok(report),
        other => Err(format!("metrics answered {other:?}")),
    }
}

/// Bytes under `dir`, in total and by artifact kind.
fn dir_bytes(dir: &Path) -> Result<(u64, HashMap<&'static str, u64>), String> {
    let mut total = 0;
    let mut kinds = HashMap::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let len = entry.metadata().map_err(|e| format!("stat: {e}"))?.len();
        let name = entry.file_name().to_string_lossy().into_owned();
        total += len;
        let kind = PERSIST_KINDS
            .iter()
            .find(|(suffix, _)| name.ends_with(suffix))
            .map_or("other", |(_, kind)| kind);
        *kinds.entry(kind).or_insert(0) += len;
    }
    Ok((total, kinds))
}

/// Cache-dir file name suffixes and the metric name of each kind.
const PERSIST_KINDS: [(&str, &str); 7] = [
    (".meta.json", "meta_json"),
    (".sample.csv", "sample_csv"),
    (".pairs.json", "pairs_json"),
    (".pairs.csv", "pairs_csv"),
    ("registry.wal", "registry_wal"),
    ("registry.snapshot", "registry_snapshot"),
    ("registry.counters", "registry_counters"),
];

/// A measured closed-loop window against one server.
struct Measured {
    served: Served,
    /// Hypervisor steal during the window, seconds.
    steal_s: f64,
    /// Requests completed inside the window.
    requests: usize,
    ctx_switches: u64,
    hits: u64,
    misses: u64,
    bytes_read: u64,
    bytes_written: u64,
    /// Requests the server answered across the metrics edges.
    answered: u64,
    spans: Vec<TraceSpan>,
}

fn measure(
    tally: &mut Tally,
    server: &ServerProc,
    scripts: &[Script],
    warmup: Duration,
    window: Duration,
    trace_polls: u32,
) -> Result<Measured, String> {
    let before = metrics_report(server)?;
    let load = load::closed_loop(
        server.addr(),
        server.pid(),
        scripts,
        warmup,
        window,
        trace_polls,
    )?;
    let after = metrics_report(server)?;
    tally.attempted += load.attempted;
    tally.failed += load.failed;
    if let Some(first) = load.first_failure {
        tally.first.get_or_insert(first);
    }
    let bytes_read = after.bytes_read - before.bytes_read;
    let bytes_written = after.bytes_written - before.bytes_written;
    // The server's wire counters must cover what the client moved.
    tally.record(bytes_read >= load.bytes_sent && bytes_written >= load.bytes_received, || {
        format!(
            "server counted {bytes_read}/{bytes_written} bytes read/written, client sent {}/received {}",
            load.bytes_sent, load.bytes_received
        )
    });
    let served = stats::served(&load.samples, load.window_s, &load.slices);
    let cpu_s: f64 = load.slices.iter().map(|s| s.server_cpu_s).sum();
    eprintln!(
        "layerbench: window: {} requests, steal {:.2} s, check p50 {:.1} µs, server CPU \
         {:.1} µs/req over the window, {:.1} µs/req over the least-stolen slices",
        load.samples.len(),
        load.slices.iter().map(|s| s.steal_s).sum::<f64>(),
        served.p50_us,
        cpu_s * 1e6 / load.samples.len() as f64,
        served.cpu_us_per_req
    );
    Ok(Measured {
        served,
        steal_s: load.slices.iter().map(|s| s.steal_s).sum(),
        requests: load.samples.len(),
        ctx_switches: load.server_ctx_switches,
        hits: after.cache_hits - before.cache_hits,
        misses: after.cache_misses - before.cache_misses,
        bytes_read,
        bytes_written,
        answered: load.attempted + u64::from(trace_polls) + 1,
        spans: load.spans,
    })
}

/// One connection script per load thread, from `qid_loadgen`'s request
/// mix with its per-connection seed derivation; returns the raw lines
/// too.
///
/// Each script holds exactly the mix's proportions (lines of a command
/// whose quota is full are skipped), shuffled with the connection's
/// seed. The command shares then do not vary with the seed or from one
/// replay of the script to the next, and neither does the heavy traffic
/// a `check` competes with.
fn scripts(
    ctx: &Ctx,
    ds: &DatasetRef,
    weights: MixWeights,
    connections: usize,
) -> Result<(Vec<Script>, Vec<Vec<String>>), String> {
    let shares = [
        ("check", weights.check),
        ("stats", weights.stats),
        ("sketch", weights.sketch),
        ("audit", weights.audit),
        ("batch", weights.batch),
    ];
    let total: u32 = shares.iter().map(|(_, w)| w).sum();
    let mut expected: HashMap<String, String> = HashMap::new();
    let mut scripts = Vec::new();
    let mut all_lines = Vec::new();
    for conn in 0..connections {
        let sub_seed = ctx
            .args
            .seed
            .wrapping_add((conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut mix = RequestMix::new(sub_seed, ds.clone(), ctx.inputs.names.clone(), weights);
        let mut quota: HashMap<&str, usize> = shares
            .iter()
            .map(|&(cmd, w)| (cmd, SCRIPT_LINES * w as usize / total as usize))
            .collect();
        let wanted: usize = quota.values().sum();
        let mut lines: Vec<(String, &str)> = Vec::with_capacity(wanted);
        while lines.len() < wanted {
            let request = mix.next_request();
            let cmd = request.command_name();
            let left = quota
                .get_mut(cmd)
                .ok_or_else(|| format!("the mix made a {cmd}"))?;
            if *left > 0 {
                *left -= 1;
                lines.push((request.encode(), cmd));
            }
        }
        shuffle(&mut lines, sub_seed);
        let mut script = Script::default();
        for (line, cmd) in &lines {
            if !expected.contains_key(line) {
                let request = Request::decode(line)?;
                let reply = oracle::expected(&request, ctx.reference)?.encode();
                expected.insert(line.clone(), reply);
            }
            script.push(line, &expected[line], *cmd == "check");
        }
        scripts.push(script);
        all_lines.push(lines.into_iter().map(|(line, _)| line).collect());
    }
    Ok((scripts, all_lines))
}

/// Fisher–Yates with a splitmix64 stream seeded by `seed`.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Load connections and threads: one per core, at most two.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The figures of one ingest cycle, durations in seconds.
struct Cycle {
    /// Spawn of the first server to the first `check` answered after
    /// the restart.
    wall_s: f64,
    build_s: f64,
    absorb_s: f64,
    sketch_s: f64,
    restart_ready_s: f64,
    cache_dir_bytes: u64,
    persist_bytes: HashMap<&'static str, u64>,
    /// Largest VmHWM of the cycle's servers, MB.
    peak_rss_mb: f64,
    /// The `check` burst after the restart (measured cycles only).
    burst: Option<Measured>,
}

/// What a cycle leaves behind: its source file's key and cache dir,
/// and the restarted server when asked to keep it.
struct Kept {
    ds: DatasetRef,
    cache: PathBuf,
    server: Option<ServerProc>,
}

fn cycle_paths(dir: &Path, i: usize) -> (PathBuf, PathBuf) {
    (
        dir.join(format!("cycle{i}.csv")),
        dir.join(format!("cache{i}")),
    )
}

/// One ingest cycle on a fresh copy of the base file and an empty
/// cache dir: stream `load` (build), append and `load` again (absorb),
/// the first `sketch`, `shutdown`, restart over the same cache dir and
/// the first `check`. Every answer is checked against the reference.
fn cycle(
    ctx: &Ctx,
    i: usize,
    tally: &mut Tally,
    burst_trace_polls: Option<u32>,
    keep_server: bool,
) -> Result<(Cycle, Kept), String> {
    if i > 0 {
        let (file, cache) = cycle_paths(ctx.dir, i - 1);
        let _ = std::fs::remove_file(file);
        let _ = std::fs::remove_dir_all(cache);
    }
    let (file, cache) = cycle_paths(ctx.dir, i);
    data::copy_synced(&ctx.inputs.base, &file)?;
    std::fs::create_dir_all(&cache).map_err(|e| format!("creating cache dir: {e}"))?;
    let file = std::fs::canonicalize(&file).map_err(|e| format!("canonicalising: {e}"))?;
    let ds = DatasetRef {
        path: file.to_str().ok_or("work dir is not UTF-8")?.to_string(),
        eps: EPS,
        seed: ctx.args.seed,
    };
    let r = ctx.reference;
    let m = ctx.inputs.names.len();
    let sample = r.base.sample().n_rows();
    let load = Request::Load {
        ds: ds.clone(),
        mode: LoadMode::Stream,
    };

    let started = Instant::now();
    let server = ServerProc::spawn(&ctx.args.qid, &cache)?;
    let mut client = server.client()?;
    let loaded = |rows, cached| Response::Loaded {
        rows,
        attrs: m,
        sample,
        cached,
    };
    let build_s = call(tally, &mut client, &load, &loaded(N_BASE, false))?;
    probe_gate(ctx, tally, &mut client, &ds, &r.base)?;

    data::append_synced(&file, &ctx.inputs.suffix)?;
    let absorb_s = call(tally, &mut client, &load, &loaded(N_BASE + N_APPEND, true))?;
    probe_gate(ctx, tally, &mut client, &ds, &r.grown)?;

    let sketch = Request::Sketch {
        ds: ds.clone(),
        attrs: vec!["zip".to_string(), "age".to_string()],
    };
    let sketch_s = call(tally, &mut client, &sketch, &oracle::expected(&sketch, r)?)?;
    let mut peak_rss_mb = proc::peak_rss_mb(server.pid())?;
    drop(client);
    server.shutdown()?;
    let (cache_dir_bytes, persist_bytes) = dir_bytes(&cache)?;

    let first = Request::Check {
        ds: ds.clone(),
        attrs: vec![data::KEY_COLUMN.to_string()],
    };
    let expected = oracle::check(&r.grown, &[data::KEY_COLUMN.to_string()])?;
    let restarted = Instant::now();
    let server = ServerProc::spawn(&ctx.args.qid, &cache)?;
    let mut client = server.client()?;
    call(tally, &mut client, &first, &expected)?;
    let restart_ready_s = restarted.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();
    probe_gate(ctx, tally, &mut client, &ds, &r.grown)?;
    drop(client);

    let burst = match burst_trace_polls {
        Some(polls) => {
            let (scripts, _) = scripts(ctx, &ds, MixWeights::check_only(), connections())?;
            Some(measure(
                tally,
                &server,
                &scripts,
                BURST_WARMUP,
                BURST,
                polls,
            )?)
        }
        None => None,
    };
    peak_rss_mb = peak_rss_mb.max(proc::peak_rss_mb(server.pid())?);
    eprintln!(
        "layerbench: cycle {i}: build {build_s:.3} s, absorb {absorb_s:.3} s, \
         sketch {sketch_s:.3} s, restart {restart_ready_s:.3} s"
    );
    let server = if keep_server {
        Some(server)
    } else {
        server.shutdown()?;
        None
    };
    Ok((
        Cycle {
            wall_s,
            build_s,
            absorb_s,
            sketch_s,
            restart_ready_s,
            cache_dir_bytes,
            persist_bytes,
            peak_rss_mb,
            burst,
        },
        Kept { ds, cache, server },
    ))
}

/// The interquartile mean of one figure over `cycles`.
fn pooled(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    interquartile_mean(&mut cycles.iter().map(f).collect::<Vec<_>>())
}

/// The `q`-quantile of integer microsecond readings, interpolated
/// within the integer bucket it falls in (the readings are truncated
/// µs, so a value `v` stands for the interval `[v, v+1)`).
fn span_quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable();
    let rank = q * values.len() as f64;
    let idx = (rank.ceil() as usize).clamp(1, values.len()) - 1;
    let v = values[idx];
    let below = values.partition_point(|&x| x < v) as f64;
    let at = values.partition_point(|&x| x <= v) as f64 - below;
    v as f64 + ((rank - below) / at).clamp(0.0, 1.0)
}

fn run(args: &Args, dir: &Path) -> Result<(String, bool), String> {
    let t = Instant::now();
    let inputs = data::generate(dir, args.seed)?;
    eprintln!(
        "layerbench: inputs generated in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let t = Instant::now();
    let (reference, parse) = data::reference_pass(&inputs, args.seed)?;
    eprintln!(
        "layerbench: reference built in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let mut tally = Tally::default();
    // The paper's contract on the reference itself: a key is accepted
    // and a set that separates nothing is rejected.
    for filter in [&reference.base, &reference.grown] {
        for (column, accept) in [(data::KEY_COLUMN, true), (data::CONSTANT_COLUMN, false)] {
            let got = oracle::check(filter, &[column.to_string()])?;
            tally.record(
                matches!(got, Response::Check { accept: a, .. } if a == accept),
                || format!("reference check on {column} answered {got:?}"),
            );
        }
    }
    let ctx = Ctx {
        args,
        dir,
        inputs: &inputs,
        reference: &reference,
        probes: probes(&inputs.names),
    };
    let served = args.workload != Workload::IngestCycle;
    let polls = |window_polls: u32| if args.trace { window_polls } else { 0 };

    let setup_cycles = if served {
        SERVED_SETUP_CYCLES
    } else {
        INGEST_SETUP_CYCLES
    };
    let mut setup = Vec::new();
    let mut kept = None;
    for i in 0..setup_cycles {
        let keep = served && i + 1 == setup_cycles;
        let (c, k) = cycle(&ctx, i, &mut tally, None, keep)?;
        setup.push(c);
        kept = Some(k);
    }
    let mut kept = kept.expect("at least one set-up cycle");
    let setup_s = pooled(&setup, |c| c.wall_s);
    let mut peak_rss_mb = setup.iter().map(|c| c.peak_rss_mb).fold(0.0, f64::max);

    // The cycles the cold figures come from, and the hot windows.
    let (cold, hot): (Vec<Cycle>, Vec<Measured>) = if served {
        let server = kept
            .server
            .take()
            .expect("the last set-up cycle keeps its server");
        let weights = match args.workload {
            Workload::CheckHot => MixWeights::check_only(),
            _ => MixWeights::default(),
        };
        let (scripts, _) = scripts(&ctx, &kept.ds, weights, connections())?;
        let window = Duration::from_secs(args.seconds);
        let m = measure(&mut tally, &server, &scripts, WARMUP, window, polls(4))?;
        peak_rss_mb = peak_rss_mb.max(proc::peak_rss_mb(server.pid())?);
        server.shutdown()?;
        (setup, vec![m])
    } else {
        let started = Instant::now();
        let mut measured = Vec::new();
        while measured.len() < MIN_MEASURED_CYCLES || started.elapsed().as_secs() < args.seconds {
            let i = setup_cycles + measured.len();
            let (c, k) = cycle(&ctx, i, &mut tally, Some(polls(1)), false)?;
            peak_rss_mb = peak_rss_mb.max(c.peak_rss_mb);
            measured.push(c);
            kept = k;
        }
        let hot = measured.iter_mut().filter_map(|c| c.burst.take()).collect();
        // Every cycle of this workload is an ingest cycle; the cold
        // figures pool them all.
        setup.extend(measured);
        (setup, hot)
    };

    let hot_steal: Vec<f64> = hot.iter().map(|m| m.steal_s).collect();
    // One window on the served workloads, one burst per measured cycle
    // on `ingest_cycle`.
    let hot_figure = |f: fn(&Served) -> f64| {
        steady_mean(
            &hot.iter().map(|m| f(&m.served)).collect::<Vec<_>>(),
            &hot_steal,
        )
    };
    let p50_us = hot_figure(|s| s.p50_us);
    let build_s = pooled(&cold, |c| c.build_s);

    let mut out = Metrics::default();
    if !args.trace {
        out.put("p50_us", p50_us, "us");
        out.put("cpu_us_per_req", hot_figure(|s| s.cpu_us_per_req), "us");
        out.put("build_s", build_s, "s");
        out.put("absorb_s", pooled(&cold, |c| c.absorb_s), "s");
        out.put("sketch_s", pooled(&cold, |c| c.sketch_s), "s");
        out.put("restart_ready_s", pooled(&cold, |c| c.restart_ready_s), "s");
        out.put(
            "cache_dir_bytes",
            pooled(&cold, |c| c.cache_dir_bytes as f64),
            "bytes",
        );
        out.put("setup_s", setup_s, "s");
        out.put("peak_rss_mb", peak_rss_mb, "MB");
        let ok = 1.0 - tally.failed as f64 / tally.attempted as f64;
        out.put("ok_frac", ok, "ratio");
    } else {
        out.put("served.p99_us", hot_figure(|s| s.p99_us), "us");
        out.put("served.rps", hot_figure(|s| s.rps), "1/s");
        ledger(&mut out, &ctx, &kept, &cold, &hot, &parse, p50_us, build_s)?;
    }
    if let Some(first) = &tally.first {
        eprintln!("layerbench: wrong answer: {first}");
    }
    let correct = tally.failed == 0;
    Ok((
        out.result_line(correct, tally.attempted, tally.failed)?,
        correct,
    ))
}

/// The per-layer ledger of a traced run.
#[allow(clippy::too_many_arguments)]
fn ledger(
    out: &mut Metrics,
    ctx: &Ctx,
    kept: &Kept,
    cold: &[Cycle],
    hot: &[Measured],
    parse: &ParseLayers,
    p50_us: f64,
    served_build_s: f64,
) -> Result<(), String> {
    // Hot path: the transport floor, then the flight recorder's spans.
    let floor_us = load::loopback_floor_us(20_000)?;
    out.put("poller.loopback_floor_us", floor_us, "us");
    let mut spans: Vec<&TraceSpan> = hot.iter().flat_map(|m| &m.spans).collect();
    spans.sort_by_key(|s| s.id);
    spans.dedup_by_key(|s| s.id);
    if spans.is_empty() {
        return Err("the trace ring returned no spans".to_string());
    }
    let mut span_p50_sum = 0.0;
    for (name, field) in [
        (
            "pool.queue_us",
            (|s: &TraceSpan| s.queue_us) as fn(&TraceSpan) -> u64,
        ),
        ("server.serve_us", |s| s.serve_us),
        ("poller.write_us", |s| s.write_us),
    ] {
        let mut values: Vec<u64> = spans.iter().map(|s| field(s)).collect();
        let p50 = span_quantile(&mut values, 0.5);
        span_p50_sum += p50;
        out.put(format!("{name}.p50"), p50, "us");
        out.put(
            format!("{name}.p99"),
            span_quantile(&mut values, 0.99),
            "us",
        );
    }
    let sum = |f: fn(&Measured) -> u64| hot.iter().map(f).sum::<u64>() as f64;
    let requests = hot.iter().map(|m| m.requests).sum::<usize>() as f64;
    let answered = sum(|m| m.answered);
    out.put(
        "server.ctx_switches_per_req",
        sum(|m| m.ctx_switches) / requests,
        "count",
    );
    let (hits, misses) = (sum(|m| m.hits), sum(|m| m.misses));
    out.put(
        "registry.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    out.put(
        "wire.bytes_read_per_req",
        sum(|m| m.bytes_read) / answered,
        "bytes",
    );
    out.put(
        "wire.bytes_written_per_req",
        sum(|m| m.bytes_written) / answered,
        "bytes",
    );
    out.put(
        "hot.unattributed_us",
        p50_us - floor_us - span_p50_sum,
        "us",
    );

    // In-process request path on the entry the last cycle served.
    let lines = |weights| -> Result<Vec<String>, String> {
        let (_, lines) = scripts(ctx, &kept.ds, weights, 1)?;
        Ok(lines.into_iter().flatten().collect())
    };
    let check_lines = lines(MixWeights::check_only())?;
    let h = layers::hot(
        &kept.cache,
        &kept.ds,
        &check_lines,
        &lines(MixWeights::default())?,
        &ctx.probes,
    )?;
    out.put("fastpath.answer_line_ns", h.answer_line_ns, "ns");
    out.put("fastpath.allocs_per_check", h.allocs_per_check, "count");
    for c in &h.commands {
        out.put(format!("proto.decode_ns.{}", c.command), c.decode_ns, "ns");
        out.put(format!("proto.encode_ns.{}", c.command), c.encode_ns, "ns");
        out.put(format!("server.handle_ns.{}", c.command), c.handle_ns, "ns");
        out.put(
            format!("general.allocs_per_req.{}", c.command),
            c.allocs_per_req,
            "count",
        );
    }
    out.put("registry.peek_ns", h.peek_ns, "ns");
    out.put("registry.lookup_hit_ns", h.lookup_hit_ns, "ns");
    out.put("filter.query_ns", h.query_ns, "ns");

    // Cold path: the reference pass's per-layer times over the base
    // rows, then in-process registry builds.
    let c = layers::cold(ctx.dir, ctx.inputs, ctx.args.seed)?;
    let base_mb = ctx.inputs.base_bytes as f64 / 1e6;
    let suffix_mb = ctx.inputs.suffix.len() as f64 / 1e6;
    let mut layer = |name: &str, seconds: f64, mb: f64, rows: usize| {
        out.put(format!("{name}_s"), seconds, "s");
        out.put(format!("{name}.mb_per_s"), mb / seconds, "MB/s");
        out.put(format!("{name}.rows_per_s"), rows as f64 / seconds, "1/s");
    };
    layer("registry.stamp", c.stamp_s, base_mb, N_BASE);
    layer("csv.read_floor", c.read_floor_s, base_mb, N_BASE);
    layer("csv.parse", parse.parse_s, base_mb, N_BASE);
    layer("distinct.observe", parse.observe_s, base_mb, N_BASE);
    layer("stream.tuple_ingest", parse.tuple_ingest_s, base_mb, N_BASE);
    layer("stream.pair_ingest", parse.pair_ingest_s, base_mb, N_BASE);
    layer("registry.build", c.build_s, base_mb, N_BASE);
    layer("registry.absorb", c.absorb_s, suffix_mb, N_APPEND);
    layer(
        "registry.restore",
        c.restore_s,
        base_mb + suffix_mb,
        N_BASE + N_APPEND,
    );
    out.put("csv.allocs_per_row", parse.allocs_per_row, "count");
    out.put("registry.persist_s", c.persist_s, "s");
    out.put(
        "registry.build_allocs_per_row",
        c.build_allocs_per_row,
        "count",
    );
    for (_, kind) in PERSIST_KINDS {
        let bytes = pooled(cold, |cy| *cy.persist_bytes.get(kind).unwrap_or(&0) as f64);
        out.put(format!("persist.bytes.{kind}"), bytes, "bytes");
    }
    out.put("wal.replayed_events", c.wal_replayed_events, "count");
    let layered = c.stamp_s + parse.parse_s + parse.observe_s + parse.tuple_ingest_s + c.persist_s;
    out.put("cold.unattributed_s", served_build_s - layered, "s");
    Ok(())
}
