//! In-process layer timings: the harness calls the library's public
//! functions directly and times each call, so no instrumentation lives
//! in the program itself.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::{Duration, Instant};

use qid_dataset::AttrId;
use qid_server::proto::{DatasetRef, LoadMode, Request, Response};
use qid_server::registry::{CacheKey, SourceStamp};
use qid_server::{handle_request, Registry, RegistryConfig, Scratch, Server, ServerConfig};

use crate::alloc;
use crate::data::{self, Inputs, EPS, N_APPEND, N_BASE};
use crate::stats::median;

/// The commands of the general mix, in the order the ledger lists them.
pub const MIX_COMMANDS: [&str; 5] = ["check", "stats", "sketch", "batch", "audit"];

/// Batches per per-operation timing; the median batch mean is reported.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] of the mean nanoseconds per call of `op`,
/// with each batch running `ops` calls.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..ops {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut means)
}

/// How many calls of `op` fit in about `budget`, at least one.
fn calls_within(budget: Duration, mut op: impl FnMut()) -> usize {
    let t = Instant::now();
    op();
    let once = t.elapsed().max(Duration::from_nanos(1));
    (budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize
}

/// Per-command general-path figures.
pub struct CommandLayers {
    /// Wire command name.
    pub command: &'static str,
    /// `Request::decode`, ns per line.
    pub decode_ns: f64,
    /// `handle_request`, ns per request.
    pub handle_ns: f64,
    /// `Response::encode`, ns per response.
    pub encode_ns: f64,
    /// Heap allocations per request across decode, handle and encode.
    pub allocs_per_req: f64,
}

/// Hot-path figures from an in-process server state.
pub struct HotLayers {
    /// `ServerState::answer_line` + `finish_wake` on a fast-path
    /// `check`, ns.
    pub answer_line_ns: f64,
    /// Heap allocations per fast-path `check`.
    pub allocs_per_check: f64,
    /// General-path figures, one per mix command.
    pub commands: Vec<CommandLayers>,
    /// `Registry::peek` on the resident key, ns.
    pub peek_ns: f64,
    /// `Registry::get_or_load` on the resident key, ns.
    pub lookup_hit_ns: f64,
    /// `TupleSampleFilter::query_sorted` over the probe sets, ns.
    pub query_ns: f64,
}

/// Times the request path on a `Server::bind(..).state()` whose
/// registry restores the served entry from `cache_dir`.
///
/// `check_lines` are fast-path `check` lines; `mix_lines` are lines of
/// the general mix; `probes` are attribute sets for the filter query.
pub fn hot(
    cache_dir: &Path,
    ds: &DatasetRef,
    check_lines: &[String],
    mix_lines: &[String],
    probes: &[Vec<String>],
) -> Result<HotLayers, String> {
    let server = Server::bind(&ServerConfig {
        cache_dir: Some(
            cache_dir
                .to_str()
                .ok_or("cache dir is not UTF-8")?
                .to_string(),
        ),
        // Keep the freshness stamp valid for the whole measurement.
        revalidate_ms: 3_600_000,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("binding in-process server: {e}"))?;
    let state = server.state();
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    let load = Request::Load {
        ds: ds.clone(),
        mode: LoadMode::Stream,
    }
    .encode();
    state.answer_line(load.as_bytes(), &mut scratch, &mut out);
    if !out.starts_with(br#"{"ok":true,"kind":"loaded""#) {
        return Err(format!(
            "in-process load: {}",
            String::from_utf8_lossy(&out)
        ));
    }

    let mut answer = |line: &String| {
        out.clear();
        state.answer_line(line.as_bytes(), &mut scratch, &mut out);
        state.finish_wake(&mut scratch, Duration::ZERO);
    };
    check_lines.iter().for_each(&mut answer);
    let ops = check_lines.len() * 20;
    let allocs = alloc::allocations();
    let answer_line_ns = ns_per_op(ops, |i| answer(&check_lines[i % check_lines.len()]));
    let allocs_per_check = (alloc::allocations() - allocs) as f64 / (ops * BATCHES) as f64;

    let mut commands = Vec::new();
    for command in MIX_COMMANDS {
        let lines: Vec<&String> = mix_lines
            .iter()
            .filter(|l| l.starts_with(&format!(r#"{{"cmd":"{command}""#)))
            .take(64)
            .collect();
        if lines.is_empty() {
            return Err(format!("the mix has no {command} lines"));
        }
        let requests: Vec<Request> = lines
            .iter()
            .map(|l| Request::decode(l))
            .collect::<Result<_, _>>()?;
        // One untimed pass loads anything lazily built (the sketch).
        let responses: Vec<Response> = requests.iter().map(|r| handle_request(r, &state)).collect();
        if let Some(bad) = responses
            .iter()
            .find(|r| matches!(r, Response::Error { .. }))
        {
            return Err(format!("in-process {command}: {bad:?}"));
        }
        let allocs = alloc::allocations();
        for (line, request) in lines.iter().zip(&requests) {
            black_box(Request::decode(line)?);
            black_box(handle_request(request, &state).encode());
        }
        let allocs_per_req = (alloc::allocations() - allocs) as f64 / lines.len() as f64;
        let n = lines.len();
        let decode_ops = calls_within(Duration::from_millis(10), || {
            black_box(Request::decode(lines[0]).ok());
        });
        let decode_ns = ns_per_op(decode_ops, |i| {
            black_box(Request::decode(lines[i % n]).ok());
        });
        let handle_ops = calls_within(Duration::from_millis(20), || {
            black_box(handle_request(&requests[0], &state));
        });
        let handle_ns = ns_per_op(handle_ops, |i| {
            black_box(handle_request(&requests[i % n], &state));
        });
        let encode_ops = calls_within(Duration::from_millis(10), || {
            black_box(responses[0].encode());
        });
        let encode_ns = ns_per_op(encode_ops, |i| {
            black_box(responses[i % n].encode());
        });
        commands.push(CommandLayers {
            command,
            decode_ns,
            handle_ns,
            encode_ns,
            allocs_per_req,
        });
    }

    let key = CacheKey::of(ds);
    let peek_ns = ns_per_op(200_000, |_| {
        black_box(state.registry.peek(&key));
    });
    let lookup_hit_ns = ns_per_op(20_000, |_| {
        black_box(state.registry.get_or_load(ds, LoadMode::Stream).0.ok());
    });
    let entry = state
        .registry
        .peek(&key)
        .ok_or("the served entry is not resident in-process")?;
    let schema = entry.filter.sample().schema();
    let ids: Vec<Vec<AttrId>> = probes
        .iter()
        .map(|p| {
            p.iter()
                .filter_map(|name| schema.attr_by_name(name))
                .collect()
        })
        .collect();
    let query_ns = ns_per_op(20_000, |i| {
        black_box(entry.filter.query_sorted(&ids[i % ids.len()]));
    });
    drop(entry);
    drop(server);
    Ok(HotLayers {
        answer_line_ns,
        allocs_per_check,
        commands,
        peek_ns,
        lookup_hit_ns,
        query_ns,
    })
}

/// Cold-path figures from in-process registry builds.
pub struct ColdLayers {
    /// `SourceStamp::capture` on the base file, seconds.
    pub stamp_s: f64,
    /// A raw `BufRead` line pass over the base file, seconds.
    pub read_floor_s: f64,
    /// `Registry::get_or_load` stream build without a cache dir, seconds.
    pub build_s: f64,
    /// Heap allocations per row of that build.
    pub build_allocs_per_row: f64,
    /// A build with a cache dir minus the same build without one, on a
    /// [`PERSIST_ROWS`]-row prefix (medians of five each).
    pub persist_s: f64,
    /// `get_or_load` absorbing the appended rows, seconds.
    pub absorb_s: f64,
    /// `Registry::with_config` over the cache dir plus the first
    /// lookup, seconds.
    pub restore_s: f64,
    /// Journal records the restoring registry replayed.
    pub wal_replayed_events: f64,
}

/// Rows of the prefix `persist_s` is measured on. What persisting
/// writes (the sample, the column sketches' minima, the journal
/// records) does not grow with the row count, while a full build's
/// run-to-run noise is several times the persist cost; a short build
/// keeps the difference above the noise.
const PERSIST_ROWS: usize = 50_000;

fn median_of(n: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut v = (0..n).map(|_| f()).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&mut v))
}

/// Times the cold path on a private copy of the base file in `dir`.
pub fn cold(dir: &Path, inputs: &Inputs, seed: u64) -> Result<ColdLayers, String> {
    let file = dir.join("layer.csv");
    data::copy_synced(&inputs.base, &file)?;
    let path = file.to_str().ok_or("work dir is not UTF-8")?.to_string();

    let stamp_s = median_of(3, || {
        let t = Instant::now();
        SourceStamp::capture(&path).ok_or("stamping the base file failed")?;
        Ok(t.elapsed().as_secs_f64())
    })?;
    let read_floor_s = median_of(3, || {
        let t = Instant::now();
        let mut reader = BufReader::new(File::open(&path).map_err(|e| e.to_string())?);
        let mut line = Vec::new();
        let mut lines = 0usize;
        while reader
            .read_until(b'\n', &mut line)
            .map_err(|e| e.to_string())?
            > 0
        {
            lines += 1;
            line.clear();
        }
        if lines != N_BASE + 1 {
            return Err(format!("read {lines} lines, expected {}", N_BASE + 1));
        }
        Ok(t.elapsed().as_secs_f64())
    })?;

    let ds = DatasetRef {
        path: path.clone(),
        eps: EPS,
        seed,
    };
    let lookup_ds = |registry: &Registry, ds: &DatasetRef, rows: usize| -> Result<f64, String> {
        let t = Instant::now();
        let entry = registry.get_or_load(ds, LoadMode::Stream).0?;
        let elapsed = t.elapsed().as_secs_f64();
        if entry.rows != rows {
            return Err(format!(
                "registry entry has {} rows, expected {rows}",
                entry.rows
            ));
        }
        Ok(elapsed)
    };
    let lookup = |registry: &Registry, rows: usize| lookup_ds(registry, &ds, rows);

    let registry = Registry::with_config(RegistryConfig::default());
    let allocs = alloc::allocations();
    let build_s = lookup(&registry, N_BASE)?;
    let build_allocs_per_row = (alloc::allocations() - allocs) as f64 / N_BASE as f64;
    drop(registry);

    // The header plus the first PERSIST_ROWS rows.
    let prefix = dir.join("prefix.csv");
    let base = std::fs::read(&inputs.base).map_err(|e| format!("reading base: {e}"))?;
    let end = base
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(PERSIST_ROWS)
        .ok_or("the base file is shorter than the persist prefix")?
        .0;
    std::fs::write(&prefix, &base[..=end]).map_err(|e| format!("writing prefix: {e}"))?;
    let prefix_ds = DatasetRef {
        path: prefix.to_str().ok_or("work dir is not UTF-8")?.to_string(),
        eps: EPS,
        seed,
    };
    let bare = median_of(5, || {
        lookup_ds(
            &Registry::with_config(RegistryConfig::default()),
            &prefix_ds,
            PERSIST_ROWS,
        )
    })?;
    let mut round = 0;
    let persisting = median_of(5, || {
        round += 1;
        let registry = Registry::with_config(RegistryConfig {
            cache_dir: Some(dir.join(format!("persist_cache{round}"))),
            ..RegistryConfig::default()
        });
        lookup_ds(&registry, &prefix_ds, PERSIST_ROWS)
    })?;
    let persist_s = persisting - bare;

    let config = RegistryConfig {
        cache_dir: Some(dir.join("layer_cache")),
        ..RegistryConfig::default()
    };
    let registry = Registry::with_config(config.clone());
    lookup(&registry, N_BASE)?;
    data::append_synced(&file, &inputs.suffix)?;
    let absorb_s = lookup(&registry, N_BASE + N_APPEND)?;
    drop(registry);

    let t = Instant::now();
    let registry = Registry::with_config(config);
    lookup(&registry, N_BASE + N_APPEND)?;
    let restore_s = t.elapsed().as_secs_f64();
    let wal_replayed_events = registry.wal_replayed_events() as f64;
    drop(registry);

    Ok(ColdLayers {
        stamp_s,
        read_floor_s,
        build_s,
        build_allocs_per_row,
        persist_s,
        absorb_s,
        restore_s,
        wal_replayed_events,
    })
}
