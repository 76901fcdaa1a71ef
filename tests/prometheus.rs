//! Prometheus exposition conformance.
//!
//! Three layers:
//!
//! 1. **Format lint** — every non-comment line of a `/metrics` scrape
//!    must parse as `name{labels} value` (text format 0.0.4): metric
//!    names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label values are quoted,
//!    values parse as finite floats (or `+Inf`), and every sample's
//!    family carries `# HELP` and `# TYPE` headers.
//! 2. **Histogram invariants** — per-command latency buckets are
//!    cumulative (non-decreasing in `le`), the `+Inf` bucket equals
//!    `_count`, and `_sum` is non-negative.
//! 3. **Same-session consistency** — after real traffic, the scraped
//!    counters agree with the JSON `metrics` response for quiesced
//!    commands, and the required metric families are all present.
//!
//! The scrape goes over a real TCP connection with a hand-rolled HTTP
//! GET — the same path `curl` (and a Prometheus server) takes.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use quasi_id::server::proto::{DatasetRef, Request, Response};
use quasi_id::server::{Client, RunningServer, Server, ServerConfig};

/// Metric families the scrape must always export (CI greps for these
/// too; keep `.github/workflows/ci.yml` in sync).
const REQUIRED_FAMILIES: [&str; 20] = [
    "qid_build_info",
    "qid_uptime_seconds",
    "qid_requests_total",
    "qid_request_errors_total",
    "qid_request_latency_seconds",
    "qid_connections_accepted_total",
    "qid_worker_queue_depth",
    "qid_poller_registered_fds",
    "qid_cache_resident_bytes",
    "qid_cache_entries",
    "qid_cache_append_updates_total",
    "qid_cache_sweep_refreshes_total",
    "qid_restarts_total",
    "qid_wal_replayed_events_total",
    "qid_connections",
    "qid_rejected_lines_total",
    "qid_rejected_busy_total",
    "qid_writes_parked_total",
    "qid_poller_connections",
    "qid_wakes_total",
];

/// One parsed sample line: metric name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses one exposition line (`name{k="v",...} value`), returning an
/// error string that names what broke — the lint test surfaces it.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value_text) = match line.find('}') {
        Some(close) => {
            let (head, tail) = line.split_at(close + 1);
            (head, tail.trim())
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            (name, parts.next().unwrap_or("").trim())
        }
    };
    let (name, labels_text) = match name_and_labels.find('{') {
        Some(open) => {
            if !name_and_labels.ends_with('}') {
                return Err(format!("unterminated label set: {line:?}"));
            }
            (
                &name_and_labels[..open],
                &name_and_labels[open + 1..name_and_labels.len() - 1],
            )
        }
        None => (name_and_labels, ""),
    };
    if !valid_name(name) {
        return Err(format!("invalid metric name {name:?} in {line:?}"));
    }
    let mut labels = BTreeMap::new();
    if !labels_text.is_empty() {
        for pair in labels_text.split(',') {
            let (key, quoted) = pair
                .split_once('=')
                .ok_or_else(|| format!("label without '=' in {line:?}"))?;
            if !valid_name(key) {
                return Err(format!("invalid label name {key:?} in {line:?}"));
            }
            let value = quoted
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted label value in {line:?}"))?;
            if value.contains(['"', '\\', '\n']) {
                return Err(format!("unescaped label value in {line:?}"));
            }
            labels.insert(key.to_string(), value.to_string());
        }
    }
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other
            .parse::<f64>()
            .map_err(|_| format!("unparseable value {other:?} in {line:?}"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses a whole exposition body, checking HELP/TYPE coverage.
fn parse_exposition(body: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut typed: BTreeSet<String> = BTreeSet::new();
    let mut helped: BTreeSet<String> = BTreeSet::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a metric");
            let kind = parts.next().expect("TYPE carries a kind");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ),
                "unknown TYPE kind {kind:?}"
            );
            typed.insert(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a metric");
            helped.insert(name.to_string());
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "comment line that is neither HELP nor TYPE: {line:?}"
        );
        samples.push(parse_sample(line).unwrap_or_else(|e| panic!("{e}")));
    }
    for sample in &samples {
        // Histogram series drop the _bucket/_sum/_count suffix to find
        // their family name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                sample
                    .name
                    .strip_suffix(suffix)
                    .filter(|family| typed.contains(*family))
            })
            .unwrap_or(&sample.name)
            .to_string();
        assert!(typed.contains(&family), "{family} has no # TYPE");
        assert!(helped.contains(&family), "{family} has no # HELP");
    }
    samples
}

/// Scrapes `path` from the server's metrics listener over plain HTTP,
/// returning (status line, body).
fn scrape(server: &RunningServer, path: &str) -> (String, String) {
    let addr = server
        .state()
        .metrics_local_addr()
        .expect("server was bound with --metrics-addr");
    let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: qid\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read full response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type missing: {head}"
    );
    (status, body.to_string())
}

fn bind_with_metrics() -> RunningServer {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
}

fn fixture_csv(name: &str) -> String {
    let dir = std::env::temp_dir().join("qid-prometheus-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut csv = String::from("zip,age,sex\n");
    for i in 0..400 {
        csv.push_str(&format!("{:05},{},{}\n", i % 83, 18 + i % 50, i % 2));
    }
    std::fs::write(&path, csv).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn scrape_is_lint_clean_and_consistent_with_json_metrics() {
    let server = bind_with_metrics();
    let path = fixture_csv("scrape.csv");
    let ds = DatasetRef {
        path,
        eps: 0.01,
        seed: 7,
    };

    // Real traffic first, so the counters and histograms are non-zero:
    // one load, a burst of checks, one deliberate error.
    let mut client = Client::connect(server.addr()).expect("connect");
    let loaded = client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: quasi_id::server::LoadMode::Stream,
        })
        .expect("load");
    assert!(matches!(loaded, Response::Loaded { .. }), "{loaded:?}");
    for _ in 0..25 {
        let checked = client
            .call(&Request::Check {
                ds: ds.clone(),
                attrs: vec!["zip".into(), "age".into()],
            })
            .expect("check");
        assert!(matches!(checked, Response::Check { .. }), "{checked:?}");
    }
    let error = client
        .call(&Request::Check {
            ds: ds.clone(),
            attrs: vec!["no-such-column".into()],
        })
        .expect("check transport");
    assert!(matches!(error, Response::Error { .. }), "{error:?}");

    // JSON metrics *before* the scrape: the scrape itself touches no
    // command counters, so quiesced commands must agree exactly.
    let report = match client.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(report) => report,
        other => panic!("expected metrics, got {other:?}"),
    };

    let (status, body) = scrape(&server, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK", "scrape status");
    let samples = parse_exposition(&body);
    assert!(!samples.is_empty(), "scrape produced no samples");

    // Every required family is present.
    let names: BTreeSet<&str> = samples.iter().map(|s| s.name.as_str()).collect();
    for family in REQUIRED_FAMILIES {
        assert!(
            names.contains(family)
                || names.contains(format!("{family}_bucket").as_str())
                || names.contains(format!("{family}_count").as_str()),
            "required family {family} missing from the scrape"
        );
    }

    // Histogram invariants, per command series.
    let mut by_command: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for sample in &samples {
        let command = sample.labels.get("command").cloned().unwrap_or_default();
        match sample.name.as_str() {
            "qid_request_latency_seconds_bucket" => {
                let le = match sample.labels.get("le").map(String::as_str) {
                    Some("+Inf") => f64::INFINITY,
                    Some(edge) => edge.parse().expect("finite le edge parses"),
                    None => panic!("bucket without le label"),
                };
                by_command
                    .entry(command)
                    .or_default()
                    .push((le, sample.value));
            }
            "qid_request_latency_seconds_count" => {
                counts.insert(command, sample.value);
            }
            "qid_request_latency_seconds_sum" => {
                sums.insert(command, sample.value);
            }
            _ => {}
        }
    }
    assert!(!by_command.is_empty(), "no latency buckets exported");
    for (command, buckets) in &by_command {
        let edges: Vec<f64> = buckets.iter().map(|&(le, _)| le).collect();
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "{command}: le edges not strictly increasing: {edges:?}"
        );
        assert_eq!(
            edges.last().copied(),
            Some(f64::INFINITY),
            "{command}: +Inf bucket missing"
        );
        let values: Vec<f64> = buckets.iter().map(|&(_, v)| v).collect();
        assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "{command}: buckets not cumulative: {values:?}"
        );
        let count = counts
            .get(command)
            .unwrap_or_else(|| panic!("{command}: _count missing"));
        assert_eq!(
            values.last().copied(),
            Some(*count),
            "{command}: +Inf bucket must equal _count"
        );
        let sum = sums
            .get(command)
            .unwrap_or_else(|| panic!("{command}: _sum missing"));
        assert!(*sum >= 0.0, "{command}: negative _sum");
    }

    // Same-session consistency with the JSON report: `load` and
    // `check` are quiesced (nothing ran them since), so the scraped
    // counters must match exactly; `metrics` ran once more than the
    // JSON report saw at most (the report request itself is counted
    // before the response is built, so it is exact too).
    let scraped_count = |command: &str| -> f64 {
        samples
            .iter()
            .find(|s| {
                s.name == "qid_requests_total"
                    && s.labels.get("command").map(String::as_str) == Some(command)
            })
            .unwrap_or_else(|| panic!("qid_requests_total missing command {command}"))
            .value
    };
    for stats in &report.commands {
        if stats.name == "metrics" {
            continue; // racing our own scrape bookkeeping is fine
        }
        assert_eq!(
            scraped_count(&stats.name),
            stats.count as f64,
            "scraped qid_requests_total{{command={}}} disagrees with JSON metrics",
            stats.name
        );
    }
    let check_errors = samples
        .iter()
        .find(|s| {
            s.name == "qid_request_errors_total"
                && s.labels.get("command").map(String::as_str) == Some("check")
        })
        .expect("check error counter")
        .value;
    assert_eq!(check_errors, 1.0, "the one bad check is an error sample");

    // Gauges reflect reality: one resident entry, bytes > 0, build
    // info pinned to the crate version.
    let gauge = |name: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    assert_eq!(gauge("qid_cache_entries"), 1.0);
    assert!(gauge("qid_cache_resident_bytes") > 0.0);

    // One `qid_poller_connections` sample per shard, labelled with its
    // shard index, agreeing with the JSON report — and the scraping
    // client itself is registered with *some* shard.
    let shard_gauges: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "qid_poller_connections")
        .collect();
    assert_eq!(
        shard_gauges.len(),
        report.poller_connections.len(),
        "one per-shard gauge per poller"
    );
    for (shard, sample) in shard_gauges.iter().enumerate() {
        assert_eq!(
            sample.labels.get("poller").map(String::as_str),
            Some(shard.to_string().as_str()),
            "shard gauges are labelled in shard order"
        );
    }
    // The scraping client itself is registered with *some* shard. The
    // gauge is only refreshed when a poller loop re-admits connections,
    // and right after a response is written the protocol connection is
    // briefly owned by a worker instead — so a scrape can race that
    // window and read zero. Re-scrape until the poller catches up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let registered: f64 = parse_exposition(&scrape(&server, "/metrics").1)
            .iter()
            .filter(|s| s.name == "qid_poller_connections")
            .map(|s| s.value)
            .sum();
        if registered >= 1.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the connected client must be registered with a shard"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let build = samples
        .iter()
        .find(|s| s.name == "qid_build_info")
        .expect("build info");
    assert_eq!(build.value, 1.0);
    assert_eq!(
        build.labels.get("version").map(String::as_str),
        Some(quasi_id::server::BUILD_VERSION)
    );
    assert_eq!(
        report.version,
        quasi_id::server::BUILD_VERSION,
        "JSON metrics and build info agree on the version"
    );

    // Unknown paths 404; the root page points at /metrics.
    let (status, _) = scrape(&server, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, body) = scrape(&server, "/");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("/metrics"), "{body:?}");

    // Graceful shutdown still works with the metrics thread running —
    // join() would hang forever if the exposition loop leaked.
    let bye = client.call(&Request::Shutdown).expect("shutdown");
    assert!(matches!(bye, Response::ShuttingDown), "{bye:?}");
    server.join().expect("clean drain");
}
