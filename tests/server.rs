//! Integration tests for `qid serve`: spawn the real binary on an
//! ephemeral port and drive it through the wire protocol with the
//! library client and the `qid query` CLI.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use quasi_id::server::proto::{DatasetRef, LoadMode, Request, Response};
use quasi_id::server::Client;

/// Writes a CSV fixture with `rows` rows at `path`.
fn write_fixture(path: &std::path::Path, rows: usize) {
    let mut f = std::fs::File::create(path).unwrap();
    writeln!(f, "id,zip,age,sex").unwrap();
    for i in 0..rows {
        writeln!(
            f,
            "{i},{},{},{}",
            92100 + i % 40,
            18 + (i * 7) % 60,
            if i % 2 == 0 { "M" } else { "F" }
        )
        .unwrap();
    }
}

/// Writes a small CSV fixture and returns its path.
fn fixture_csv(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("qid-server-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_fixture(&path, 800);
    path
}

/// A unique, empty scratch directory for cache-dir tests.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qid-server-tests-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `qid serve` child process bound to an ephemeral port.
struct ServerUnderTest {
    child: Child,
    addr: String,
    /// The full announce line (carries the poller backend and the
    /// hardening knobs).
    announce: String,
}

impl ServerUnderTest {
    /// Spawns the server and parses the bound address off its stdout.
    fn spawn(workers: usize) -> ServerUnderTest {
        Self::spawn_with(workers, &[])
    }

    /// Like [`ServerUnderTest::spawn`] with extra `qid serve` flags
    /// (e.g. `--cache-dir`, `--cache-bytes`).
    fn spawn_with(workers: usize, extra: &[&str]) -> ServerUnderTest {
        Self::spawn_full(workers, extra, &[], false)
    }

    /// Full-control spawn: extra flags, extra environment variables,
    /// and optionally captured stderr (for asserting "no worker
    /// panicked" after a drain).
    fn spawn_full(
        workers: usize,
        extra: &[&str],
        env: &[(&str, &str)],
        capture_stderr: bool,
    ) -> ServerUnderTest {
        let mut command = Command::new(env!("CARGO_BIN_EXE_qid"));
        command
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .args(extra)
            .stdout(Stdio::piped());
        for (key, value) in env {
            command.env(key, value);
        }
        if capture_stderr {
            command.stderr(Stdio::piped());
        }
        let mut child = command.spawn().expect("server spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut first_line = String::new();
        BufReader::new(stdout)
            .read_line(&mut first_line)
            .expect("server announces its address");
        let addr = first_line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unparseable announce line: {first_line:?}"))
            .to_string();
        ServerUnderTest {
            child,
            addr,
            announce: first_line,
        }
    }

    fn client(&self) -> Client {
        Client::connect_timeout(self.addr.as_str(), Duration::from_secs(30))
            .expect("client connects")
    }

    /// Requests shutdown and waits for a clean exit.
    fn shutdown(mut self) {
        let mut client = self.client();
        assert_eq!(
            client.call(&Request::Shutdown).expect("shutdown answered"),
            Response::ShuttingDown
        );
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exit status: {status:?}");
    }

    fn ds(&self, path: &std::path::Path, eps: f64, seed: u64) -> DatasetRef {
        DatasetRef {
            path: path.to_str().unwrap().to_string(),
            eps,
            seed,
        }
    }
}

impl Drop for ServerUnderTest {
    fn drop(&mut self) {
        // Best-effort: do not leak daemons when an assertion fails.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn metrics(client: &mut Client) -> quasi_id::server::MetricsReport {
    match client.call(&Request::Metrics).expect("metrics answered") {
        Response::Metrics(report) => report,
        other => panic!("expected metrics, got {other:?}"),
    }
}

#[test]
fn full_session_load_audit_check_metrics_shutdown() {
    let csv = fixture_csv("session.csv");
    let server = ServerUnderTest::spawn(2);
    let mut client = server.client();
    let ds = server.ds(&csv, 0.01, 7);

    // load: a cold build.
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Memory,
        })
        .unwrap()
    {
        Response::Loaded {
            rows,
            attrs,
            sample,
            cached,
        } => {
            assert_eq!(rows, 800);
            assert_eq!(attrs, 4);
            assert_eq!(sample, 40); // m=4, eps=0.01 → 40 tuples
            assert!(!cached);
        }
        other => panic!("expected loaded, got {other:?}"),
    }

    // audit answers from the registry, without re-reading the CSV.
    let audit = |client: &mut Client| match client
        .call(&Request::Audit {
            ds: ds.clone(),
            max_key_size: 2,
        })
        .unwrap()
    {
        Response::Audit { keys } => keys,
        other => panic!("expected audit, got {other:?}"),
    };
    let keys = audit(&mut client);
    assert!(
        keys.iter().any(|(names, _)| names == &["id".to_string()]),
        "id must be a minimal key: {keys:?}"
    );
    let again = audit(&mut client);
    assert_eq!(keys, again, "cached sample must answer deterministically");

    // check against the same cached sketch.
    match client
        .call(&Request::Check {
            ds: ds.clone(),
            attrs: vec!["sex".to_string()],
        })
        .unwrap()
    {
        Response::Check { attrs, accept } => {
            assert_eq!(attrs, vec!["sex".to_string()]);
            assert!(!accept, "sex alone cannot be a key");
        }
        other => panic!("expected check, got {other:?}"),
    }

    // metrics: exactly one build, everything after it a hit — the
    // second audit in particular.
    let report = metrics(&mut client);
    assert_eq!(report.cache_misses, 1, "only the load scans the file");
    assert!(
        report.cache_hits >= 3,
        "audit x2 + check must hit the cache: {report:?}"
    );
    assert_eq!(report.datasets, 1);
    let audit_stats = report.commands.iter().find(|c| c.name == "audit").unwrap();
    assert_eq!(audit_stats.count, 2);
    assert_eq!(audit_stats.errors, 0);

    server.shutdown();
}

/// `FDSize:` of process `pid`: the slots in its descriptor table.
#[cfg(target_os = "linux")]
fn fd_table_size(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap()
        .lines()
        .find_map(|line| line.strip_prefix("FDSize:"))
        .expect("an FDSize line")
        .trim()
        .parse()
        .unwrap()
}

/// A server grows its descriptor table to the soft `RLIMIT_NOFILE`
/// (capped at 65,536) before serving, so no request pays the table's
/// growth: a table shared by threads grows only after an RCU grace
/// period.
#[test]
#[cfg(target_os = "linux")]
fn server_reserves_its_descriptor_table_at_startup() {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let soft = limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3))
        .expect("a Max open files line");
    // The child inherits this process's limits.
    let want = soft.parse::<u64>().map_or(65_536, |soft| soft.min(65_536));
    let server = ServerUnderTest::spawn(1);
    let size = fd_table_size(server.child.id());
    assert!(size >= want, "FDSize {size}, soft limit {soft}");
    server.shutdown();
}

#[test]
fn concurrent_clients_share_one_cached_sketch() {
    let csv = fixture_csv("concurrent.csv");
    let server = ServerUnderTest::spawn(4);
    let ds = server.ds(&csv, 0.01, 7);

    // Four clients race audits on a cold registry.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let mut client = server.client();
            let ds = ds.clone();
            scope.spawn(move || {
                match client
                    .call(&Request::Audit {
                        ds,
                        max_key_size: 2,
                    })
                    .unwrap()
                {
                    Response::Audit { keys } => {
                        assert!(keys.iter().any(|(names, _)| names == &["id".to_string()]))
                    }
                    other => panic!("expected audit, got {other:?}"),
                }
            });
        }
    });

    let mut client = server.client();
    let report = metrics(&mut client);
    assert_eq!(
        report.cache_misses, 1,
        "four concurrent audits must share one build: {report:?}"
    );
    assert_eq!(report.cache_hits, 3);
    assert_eq!(report.datasets, 1);

    server.shutdown();
}

#[test]
fn stream_entries_answer_stats_check_and_mask_without_upgrading() {
    // The Θ(m/√ε) memory pin (the tentpole regression test): on a
    // stream-loaded entry, `stats` answers from the per-column KMV
    // sketches, `check` from the sample, and `mask` plans on the
    // sample — ZERO materialisation upgrades, and one extra scan: the
    // first `stats` builds the column sketches.
    let csv = fixture_csv("upgrade.csv");
    let server = ServerUnderTest::spawn(2);
    let mut client = server.client();
    let ds = server.ds(&csv, 0.01, 7);

    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { rows, cached, .. } => {
            assert_eq!(rows, 800);
            assert!(!cached);
        }
        other => panic!("expected loaded, got {other:?}"),
    }

    // stats: stream length + KMV estimates, flagged inexact.
    match client.call(&Request::Stats { ds: ds.clone() }).unwrap() {
        Response::Stats {
            rows,
            exact,
            columns,
        } => {
            assert_eq!(rows, 800);
            assert!(!exact, "stream stats are estimates");
            assert_eq!(columns.len(), 4);
            assert!(columns.contains(&("sex".to_string(), 2)), "{columns:?}");
            assert!(columns.contains(&("zip".to_string(), 40)), "{columns:?}");
            let (_, id_distinct) = columns.iter().find(|(n, _)| n == "id").unwrap();
            let err = (*id_distinct as f64 - 800.0).abs() / 800.0;
            assert!(err < 0.25, "id estimate {id_distinct} too far from 800");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    match client
        .call(&Request::Check {
            ds: ds.clone(),
            attrs: vec!["id".to_string()],
        })
        .unwrap()
    {
        Response::Check { accept, .. } => assert!(accept),
        other => panic!("expected check, got {other:?}"),
    }

    match client
        .call(&Request::Mask {
            ds: ds.clone(),
            budget: 1,
        })
        .unwrap()
    {
        Response::Mask {
            suppressed,
            full_data,
            ..
        } => {
            assert!(
                suppressed.contains(&"id".to_string()),
                "the id column must be suppressed: {suppressed:?}"
            );
            assert!(!full_data, "a stream entry masks on the sample");
        }
        other => panic!("expected mask, got {other:?}"),
    }

    let report = metrics(&mut client);
    assert_eq!(
        report.cache_upgrades, 0,
        "stats/check/mask on a stream entry must not materialise: {report:?}"
    );
    assert_eq!(
        report.cache_misses, 2,
        "the load and the first stats scanned: {report:?}"
    );

    // An explicit memory-mode load is how an operator opts into exact
    // stats — it upgrades (one more scan, counted as such).
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Memory,
        })
        .unwrap()
    {
        Response::Loaded { cached, .. } => assert!(!cached, "the upgrade pays a scan"),
        other => panic!("expected loaded, got {other:?}"),
    }
    match client.call(&Request::Stats { ds: ds.clone() }).unwrap() {
        Response::Stats { exact, columns, .. } => {
            assert!(exact, "materialised stats are exact");
            assert!(columns.contains(&("id".to_string(), 800)), "{columns:?}");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    let report = metrics(&mut client);
    assert_eq!(report.cache_upgrades, 1, "{report:?}");
    assert_eq!(report.cache_misses, 3, "{report:?}");

    server.shutdown();
}

#[test]
fn sketch_answers_agree_with_a_direct_build_exactly() {
    // Acceptance: a served `sketch` on a stream-loaded dataset equals a
    // direct NonSeparationSketch built with the protocol's fixed
    // params and the same seed — bit-for-bit, including through the
    // JSON float round-trip.
    use quasi_id::core::stream::sketch_from_stream;
    use quasi_id::dataset::csv::{CsvOptions, CsvTupleSource};
    use quasi_id::dataset::AttrId;
    use quasi_id::server::sketch_params;

    let csv = fixture_csv("sketch.csv");
    let server = ServerUnderTest::spawn(2);
    let mut client = server.client();
    let ds = server.ds(&csv, 0.01, 7);
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { .. } => {}
        other => panic!("expected loaded, got {other:?}"),
    }

    let mut source = CsvTupleSource::open(&csv, &CsvOptions::default()).unwrap();
    let direct = sketch_from_stream(&mut source, sketch_params(), 7).unwrap();

    // sex (index 3) is dense: half of all pairs agree on it.
    for (attr_name, attr_id) in [("sex", 3), ("zip", 1)] {
        let response = client
            .call(&Request::Sketch {
                ds: ds.clone(),
                attrs: vec![attr_name.to_string()],
            })
            .unwrap();
        let attrs = vec![AttrId::new(attr_id)];
        match response {
            Response::Sketch {
                estimate,
                raw_pairs,
                sample_pairs,
                ..
            } => {
                assert_eq!(raw_pairs, direct.raw_count(&attrs), "{attr_name}");
                assert_eq!(sample_pairs, direct.sample_size());
                assert_eq!(
                    estimate,
                    direct.query(&attrs).estimate(),
                    "{attr_name}: served estimate must equal the direct build exactly"
                );
            }
            other => panic!("expected sketch, got {other:?}"),
        }
    }

    // The id key answers "small" with a zero raw count.
    match client
        .call(&Request::Sketch {
            ds: ds.clone(),
            attrs: vec!["id".to_string()],
        })
        .unwrap()
    {
        Response::Sketch {
            estimate,
            raw_pairs,
            ..
        } => {
            assert_eq!(estimate, None, "a key is never dense");
            assert_eq!(raw_pairs, direct.raw_count(&[AttrId::new(0)]));
        }
        other => panic!("expected sketch, got {other:?}"),
    }

    // The sketch build cost exactly one extra scan (load + sketch),
    // and repeated sketch queries hit the cached artifact.
    let report = metrics(&mut client);
    assert_eq!(report.cache_misses, 2, "{report:?}");
    let sketch_stats = report.commands.iter().find(|c| c.name == "sketch").unwrap();
    assert_eq!(sketch_stats.count, 3);
    assert_eq!(sketch_stats.errors, 0);

    server.shutdown();
}

#[test]
fn concurrent_sketch_queries_collapse_onto_one_build() {
    let csv = fixture_csv("sketch-race.csv");
    let server = ServerUnderTest::spawn(4);
    let ds = server.ds(&csv, 0.01, 7);

    // Warm the entry itself so the assertion isolates the sketch slot.
    let mut client = server.client();
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { .. } => {}
        other => panic!("expected loaded, got {other:?}"),
    }

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let mut client = server.client();
            let ds = ds.clone();
            scope.spawn(move || {
                match client
                    .call(&Request::Sketch {
                        ds,
                        attrs: vec!["sex".to_string()],
                    })
                    .unwrap()
                {
                    Response::Sketch { sample_pairs, .. } => assert!(sample_pairs > 0),
                    other => panic!("expected sketch, got {other:?}"),
                }
            });
        }
    });

    let report = metrics(&mut client);
    assert_eq!(
        report.cache_misses, 2,
        "sample build + exactly one sketch build: {report:?}"
    );

    server.shutdown();
}

#[test]
fn a_batch_resolves_each_dataset_key_exactly_once() {
    // Acceptance: k sub-commands over one dataset = one registry
    // lookup-or-build for the whole batch.
    let csv = fixture_csv("batch.csv");
    let server = ServerUnderTest::spawn(2);
    let mut client = server.client();
    let ds = server.ds(&csv, 0.01, 7);

    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { .. } => {}
        other => panic!("expected loaded, got {other:?}"),
    }
    let before = metrics(&mut client);
    assert_eq!(before.cache_misses, 1);

    let batch = Request::Batch {
        requests: vec![
            Request::Audit {
                ds: ds.clone(),
                max_key_size: 2,
            },
            Request::Check {
                ds: ds.clone(),
                attrs: vec!["id".to_string()],
            },
            Request::Stats { ds: ds.clone() },
            Request::Key { ds: ds.clone() },
            Request::Check {
                ds: ds.clone(),
                attrs: vec!["no_such_column".to_string()],
            },
        ],
    };
    match client.call(&batch).unwrap() {
        Response::Batch { results } => {
            assert_eq!(results.len(), 5);
            assert!(matches!(results[0], Response::Audit { .. }));
            assert!(matches!(results[1], Response::Check { accept: true, .. }));
            assert!(matches!(results[2], Response::Stats { exact: false, .. }));
            assert!(matches!(results[3], Response::Key { .. }));
            // Sub-command errors are inline results, not connection
            // failures.
            assert!(matches!(results[4], Response::Error { .. }));
        }
        other => panic!("expected batch, got {other:?}"),
    }

    let after = metrics(&mut client);
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 1,
        "five sub-commands, one registry resolution: {after:?}"
    );
    assert_eq!(
        after.cache_misses,
        before.cache_misses + 1,
        "the batch's stats scans once for the column sketches: {after:?}"
    );
    // Sub-commands are metered individually, plus the batch line.
    let count_of = |report: &quasi_id::server::MetricsReport, name: &str| {
        report
            .commands
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.count)
    };
    assert_eq!(count_of(&after, "batch"), 1);
    assert_eq!(count_of(&after, "audit"), 1);
    assert_eq!(count_of(&after, "check"), 2);
    let check = after.commands.iter().find(|c| c.name == "check").unwrap();
    assert_eq!(check.errors, 1, "the bad column counts as a check error");

    server.shutdown();
}

#[test]
fn shutdown_completes_under_a_busy_client() {
    // A client that never goes idle must not be able to hold the
    // drain open: the server stops each connection after its in-flight
    // request once shutdown is flagged.
    let server = ServerUnderTest::spawn(2);
    let mut busy = server.client();
    let hammer = std::thread::spawn(move || {
        let mut answered = 0u32;
        // Loop until the server closes the connection under us.
        while busy.call(&Request::Metrics).is_ok() {
            answered += 1;
        }
        answered
    });
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown(); // asserts the process actually exits
    let answered = hammer.join().expect("busy client thread exits");
    assert!(answered > 0, "the busy client was being served");
}

#[test]
fn errors_are_answers_not_disconnects() {
    let server = ServerUnderTest::spawn(1);
    let mut client = server.client();

    // Missing file.
    match client
        .call(&Request::Key {
            ds: DatasetRef {
                path: "/definitely/not/here.csv".to_string(),
                eps: 0.01,
                seed: 7,
            },
        })
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("not/here.csv")),
        other => panic!("expected error, got {other:?}"),
    }

    // Unknown attribute on a real file.
    let csv = fixture_csv("errors.csv");
    match client
        .call(&Request::Check {
            ds: server.ds(&csv, 0.01, 7),
            attrs: vec!["no_such_column".to_string()],
        })
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("unknown attribute")),
        other => panic!("expected error, got {other:?}"),
    }

    // The same connection still answers after both errors.
    match client
        .call(&Request::Check {
            ds: server.ds(&csv, 0.01, 7),
            attrs: vec!["id".to_string()],
        })
        .unwrap()
    {
        Response::Check { accept, .. } => assert!(accept),
        other => panic!("expected check, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn qid_query_cli_talks_to_the_server() {
    let csv = fixture_csv("cli.csv");
    let server = ServerUnderTest::spawn(2);

    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_qid"))
            .args(args)
            .output()
            .expect("qid query runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            out.status.success(),
        )
    };
    let csv = csv.to_str().unwrap();

    let (stdout, ok) = run(&["query", &server.addr, "load", csv, "--eps", "0.01"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("800 rows x 4 attributes"), "{stdout}");

    let (stdout, ok) = run(&[
        "query",
        &server.addr,
        "check",
        csv,
        "--attrs",
        "id",
        "--eps",
        "0.01",
    ]);
    assert!(ok);
    assert!(stdout.contains("Accept"), "{stdout}");

    let (stdout, ok) = run(&[
        "query",
        &server.addr,
        "sketch",
        csv,
        "--attrs",
        "sex",
        "--eps",
        "0.01",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("unseparated pairs"), "{stdout}");

    let (stdout, ok) = run(&["query", &server.addr, "metrics"]);
    assert!(ok);
    assert!(stdout.contains("cache hits"), "{stdout}");

    // batch -: NDJSON sub-commands on stdin, one wire line out.
    let mut child = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args(["query", &server.addr, "batch", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("qid query batch spawns");
    let stdin_lines = format!(
        "{}\n{}\n",
        quasi_id::server::Request::Check {
            ds: DatasetRef {
                path: csv.to_string(),
                eps: 0.01,
                seed: 7,
            },
            attrs: vec!["id".to_string()],
        }
        .encode(),
        quasi_id::server::Request::Stats {
            ds: DatasetRef {
                path: csv.to_string(),
                eps: 0.01,
                seed: 7,
            },
        }
        .encode(),
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin_lines.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("batch completes");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Accept"), "{stdout}");
    assert!(stdout.contains("batch: 2 results"), "{stdout}");

    server.shutdown();
}

#[test]
fn restart_with_cache_dir_answers_without_rescanning() {
    // The acceptance test for the registry's disk tier: a server
    // restarted over the same --cache-dir answers a previously-loaded
    // audit with ZERO new build misses (no source scan) and the exact
    // same keys, because the persisted Θ(m/√ε) sample is the sketch.
    // With the registry journal armed (the --cache-dir default) the
    // restart also replays the journal: the first life's counters
    // resume and the entry is re-admitted eagerly at boot.
    let dir = scratch_dir("restart");
    let cache = dir.join("cache");
    let csv = dir.join("restart.csv");
    write_fixture(&csv, 800);
    let cache_flag = cache.to_str().unwrap().to_string();

    let audit = |client: &mut Client, ds: &DatasetRef| match client
        .call(&Request::Audit {
            ds: ds.clone(),
            max_key_size: 2,
        })
        .unwrap()
    {
        Response::Audit { keys } => keys,
        other => panic!("expected audit, got {other:?}"),
    };

    let server = ServerUnderTest::spawn_with(2, &["--cache-dir", &cache_flag]);
    let ds = server.ds(&csv, 0.01, 7);
    let mut client = server.client();
    let first_keys = audit(&mut client, &ds);
    assert!(!first_keys.is_empty());
    assert_eq!(metrics(&mut client).cache_misses, 1, "the cold scan");
    server.shutdown();

    let server = ServerUnderTest::spawn_with(2, &["--cache-dir", &cache_flag]);
    let mut client = server.client();
    let warm_keys = audit(&mut client, &ds);
    assert_eq!(
        warm_keys, first_keys,
        "the restored sample is the same sample"
    );
    let report = metrics(&mut client);
    // misses == 1 is the first life's cold scan, resumed through the
    // journal — a re-scan on this side of the restart would make it 2.
    assert_eq!(
        report.cache_misses, 1,
        "a warm restart must not re-scan the source: {report:?}"
    );
    assert_eq!(report.cache_disk_hits, 1, "restored from the disk tier");
    assert_eq!(report.restarts, 1, "the journal counted the prior life");
    assert!(
        report.wal_replayed_events > 0,
        "the restart replayed the journal: {report:?}"
    );
    assert_eq!(report.datasets, 1);
    server.shutdown();
}

#[test]
fn rewriting_the_csv_in_place_triggers_a_rebuild() {
    let dir = scratch_dir("stale");
    let csv = dir.join("stale.csv");
    write_fixture(&csv, 800);

    let server = ServerUnderTest::spawn(2);
    let ds = server.ds(&csv, 0.01, 7);
    let mut client = server.client();
    let load = |client: &mut Client, ds: &DatasetRef| match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { rows, cached, .. } => (rows, cached),
        other => panic!("expected loaded, got {other:?}"),
    };
    assert_eq!(load(&mut client, &ds), (800, false));
    assert_eq!(load(&mut client, &ds), (800, true), "second load is a hit");

    // Growing the fixture keeps the old 800 rows as an intact prefix,
    // so this is an *append*, not a rewrite: the entry absorbs the
    // suffix and the load is still a hit.
    write_fixture(&csv, 850);
    assert_eq!(
        load(&mut client, &ds),
        (850, true),
        "a pure append is absorbed, not rebuilt"
    );
    let report = metrics(&mut client);
    assert_eq!(report.cache_append_updates, 1, "{report:?}");
    assert_eq!(report.cache_stale_rebuilds, 0, "{report:?}");

    // A genuine rewrite: different length AND different content from
    // the first data row on, so the prefix fingerprint cannot match.
    {
        let mut f = std::fs::File::create(&csv).unwrap();
        writeln!(f, "id,zip,age,sex").unwrap();
        for i in 0..900 {
            writeln!(
                f,
                "{i},{},{},{}",
                50100 + i % 40,
                18 + (i * 7) % 60,
                if i % 2 == 0 { "M" } else { "F" }
            )
            .unwrap();
        }
    }
    let (rows, cached) = load(&mut client, &ds);
    assert_eq!(
        rows, 900,
        "the rebuilt entry sees the new file, not stale data"
    );
    assert!(!cached, "a stale entry is not served as a hit");
    let report = metrics(&mut client);
    assert_eq!(report.cache_stale_rebuilds, 1, "{report:?}");
    assert_eq!(report.cache_misses, 2, "cold build + stale rebuild");
    assert_eq!(report.datasets, 1, "the stale entry was replaced, not kept");
    server.shutdown();
}

#[test]
fn cache_budget_evicts_lru_entries() {
    let dir = scratch_dir("evict");
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    write_fixture(&a, 800);
    write_fixture(&b, 800);

    // Measure one stream entry's resident bytes (sample + column
    // sketches) on a budget-less server, then restart with a budget
    // that fits one entry but not two.
    let per_entry = {
        let probe = ServerUnderTest::spawn(1);
        let mut client = probe.client();
        match client
            .call(&Request::Load {
                ds: probe.ds(&a, 0.01, 7),
                mode: LoadMode::Stream,
            })
            .unwrap()
        {
            Response::Loaded { .. } => {}
            other => panic!("expected loaded, got {other:?}"),
        }
        let bytes = metrics(&mut client).cache_bytes;
        probe.shutdown();
        bytes
    };
    let budget = (per_entry + per_entry / 2).to_string();
    let server = ServerUnderTest::spawn_with(2, &["--cache-bytes", &budget]);
    let mut client = server.client();
    for path in [&a, &b] {
        match client
            .call(&Request::Load {
                ds: server.ds(path, 0.01, 7),
                mode: LoadMode::Stream,
            })
            .unwrap()
        {
            Response::Loaded { cached, .. } => assert!(!cached),
            other => panic!("expected loaded, got {other:?}"),
        }
    }
    let report = metrics(&mut client);
    assert_eq!(report.cache_evictions, 1, "{report:?}");
    assert_eq!(report.datasets, 1, "only the most recent entry survives");
    assert!(
        report.cache_bytes <= per_entry + per_entry / 2,
        "{report:?}"
    );

    // The survivor is b (a was the LRU victim): touching b is a hit.
    match client
        .call(&Request::Load {
            ds: server.ds(&b, 0.01, 7),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { cached, .. } => assert!(cached, "b must still be resident"),
        other => panic!("expected loaded, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unload_drops_the_entry_and_the_cli_drives_it() {
    let dir = scratch_dir("unload");
    let csv = dir.join("u.csv");
    write_fixture(&csv, 800);
    let server = ServerUnderTest::spawn(2);
    let ds = server.ds(&csv, 0.01, 7);
    let mut client = server.client();
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { .. } => {}
        other => panic!("expected loaded, got {other:?}"),
    }
    assert_eq!(metrics(&mut client).datasets, 1);

    // Drive unload through the CLI, like an operator would.
    let out = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args([
            "query",
            &server.addr,
            "unload",
            csv.to_str().unwrap(),
            "--eps",
            "0.01",
        ])
        .output()
        .expect("qid query unload runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dropped"), "{stdout}");

    let report = metrics(&mut client);
    assert_eq!(report.datasets, 0, "{report:?}");
    assert_eq!(report.cache_bytes, 0, "{report:?}");
    // Unloading again reports that nothing was there.
    match client.call(&Request::Unload { ds: ds.clone() }).unwrap() {
        Response::Unloaded { existed } => assert!(!existed),
        other => panic!("expected unloaded, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn metrics_report_server_side_percentiles() {
    let server = ServerUnderTest::spawn(1);
    let mut client = server.client();
    for _ in 0..20 {
        let _ = client.call(&Request::Metrics).unwrap();
    }
    let report = metrics(&mut client);
    let m = report
        .commands
        .iter()
        .find(|c| c.name == "metrics")
        .unwrap();
    assert!(m.count >= 20);
    assert!(m.p50_us > 0, "histogram quantiles are populated: {m:?}");
    assert!(m.p50_us <= m.p99_us, "{m:?}");
    server.shutdown();
}

// ------------------------------------------------- readiness core tests

/// Waits until the server has accepted at least `n` connections (i.e.
/// the idle herd has been handed to the poller).
fn wait_for_connections(client: &mut Client, n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if metrics(client).connections >= n {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server accepted fewer than {n} connections in 30s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn raw_ndjson_session_over_a_plain_socket() {
    // The protocol is hand-writable: no client library required.
    let csv = fixture_csv("raw.csv");
    let server = ServerUnderTest::spawn(1);
    let stream = std::net::TcpStream::connect(server.addr.as_str()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut roundtrip = |line: String| -> String {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };

    let reply = roundtrip(format!(
        r#"{{"cmd":"key","path":{:?},"eps":0.01}}"#,
        csv.to_str().unwrap()
    ));
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    assert!(reply.contains("id"), "{reply}");

    let reply = roundtrip("this is not json".to_string());
    assert!(reply.contains(r#""ok":false"#), "{reply}");

    server.shutdown();
}

// ----------------------------------------------- hardening + soak tests

#[test]
fn rate_limited_lines_get_structured_errors_and_survive() {
    let server = ServerUnderTest::spawn_with(2, &["--max-rps", "2"]);
    let mut client = server.client();

    // Hammer one connection far past its 2 req/s budget: the first
    // burst is answered, the overflow gets structured `rate_limited`
    // replies (not disconnects), and the connection keeps working.
    let mut answered = 0u32;
    let mut limited = 0u32;
    for _ in 0..10 {
        match client.call(&Request::Metrics).expect("connection survives") {
            Response::Metrics(_) => answered += 1,
            Response::RateLimited { max_rps } => {
                assert_eq!(max_rps, 2);
                limited += 1;
            }
            other => panic!("expected metrics or rate_limited, got {other:?}"),
        }
    }
    assert!(answered >= 1, "the burst budget admits at least one");
    assert!(limited >= 1, "10 instant requests must overflow 2 rps");

    // The bucket refills: after a second the same connection answers.
    std::thread::sleep(Duration::from_millis(1100));
    match client.call(&Request::Metrics).expect("refilled") {
        Response::Metrics(report) => {
            assert!(
                report.rejected_rate >= u64::from(limited),
                "rejections are surfaced in metrics: {report:?}"
            );
        }
        other => panic!("expected metrics after refill, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn oversized_lines_are_rejected_in_cap_memory_and_connection_survives() {
    // Acceptance: a 10x oversized request line is rejected with the
    // connection still usable (the framer discards it in O(cap)
    // memory — unit-tested in qid-server — so this exercises the wire
    // behaviour end to end).
    let server = ServerUnderTest::spawn_with(2, &["--max-line-bytes", "1K"]);
    let stream = std::net::TcpStream::connect(server.addr.as_str()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut roundtrip = |line: &[u8]| -> String {
        writer.write_all(line).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("server answers");
        reply
    };

    // 10x the cap of garbage: structured rejection, no disconnect.
    let reply = roundtrip(&vec![b'x'; 10 * 1024]);
    assert!(reply.contains(r#""kind":"line_too_long""#), "{reply}");
    assert!(reply.contains(r#""limit":1024"#), "{reply}");

    // The same connection still answers a valid request...
    let reply = roundtrip(br#"{"cmd":"metrics"}"#);
    assert!(reply.contains(r#""ok":true"#), "{reply}");

    // ...and a valid request padded to exactly the cap is served,
    // while one byte more is rejected (the cap is exact).
    let pad_to = |len: usize| -> Vec<u8> {
        let mut line = br#"{"cmd":"metrics"}"#.to_vec();
        line.resize(len, b' ');
        line
    };
    let reply = roundtrip(&pad_to(1024));
    assert!(
        reply.contains(r#""ok":true"#),
        "cap-sized line served: {reply}"
    );
    let reply = roundtrip(&pad_to(1025));
    assert!(reply.contains(r#""kind":"line_too_long""#), "{reply}");

    // Both rejections are surfaced in metrics.
    let reply = roundtrip(br#"{"cmd":"metrics"}"#);
    assert!(reply.contains(r#""rejected_oversize":2"#), "{reply}");

    server.shutdown();
}

#[test]
fn unterminated_final_line_is_answered_at_eof() {
    // NDJSON clients should newline-terminate, but `printf '…' | nc`
    // half-closes after an unterminated request — which has always
    // been answered. The framer must surrender the EOF tail, not
    // swallow it.
    let server = ServerUnderTest::spawn(1);
    let stream = std::net::TcpStream::connect(server.addr.as_str()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(br#"{"cmd":"metrics"}"#).unwrap(); // no newline
    writer.flush().unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("EOF tail is answered");
    assert!(reply.contains(r#""kind":"metrics""#), "{reply:?}");
    // After the answer the server closes its half too.
    let mut rest = String::new();
    reader.read_line(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection closed after the EOF tail");
    server.shutdown();
}

#[test]
fn poll_backend_fallback_serves_a_full_session() {
    // The poll(2) fallback must carry a real session end to end, so a
    // non-epoll platform (or QID_POLL_BACKEND=poll) is not a paper
    // config.
    let csv = fixture_csv("pollback.csv");
    let server = ServerUnderTest::spawn_full(2, &[], &[("QID_POLL_BACKEND", "poll")], false);
    assert!(
        server.announce.contains("poller = poll"),
        "fallback backend announced: {}",
        server.announce
    );
    let mut client = server.client();
    let ds = server.ds(&csv, 0.01, 7);
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { rows, .. } => assert_eq!(rows, 800),
        other => panic!("expected loaded, got {other:?}"),
    }
    match client
        .call(&Request::Check {
            ds,
            attrs: vec!["id".to_string()],
        })
        .unwrap()
    {
        Response::Check { accept, .. } => assert!(accept),
        other => panic!("expected check, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_and_closes_poller_idle_connections() {
    // The drain regression test: N connections idle in the poller, one
    // request mid-flight. `shutdown` must (a) answer the in-flight
    // request, (b) EOF the idle sockets, (c) exit cleanly with no
    // worker panic on stderr.
    let dir = scratch_dir("drain");
    let csv = dir.join("big.csv");
    {
        // Big enough that the memory-mode load is still scanning when
        // the shutdown lands.
        let mut f = std::io::BufWriter::new(std::fs::File::create(&csv).unwrap());
        writeln!(f, "id,zip,age,sex").unwrap();
        for i in 0..150_000u64 {
            writeln!(
                f,
                "{i},{},{},{}",
                92100 + i % 40,
                18 + (i * 7) % 60,
                if i % 2 == 0 { "M" } else { "F" }
            )
            .unwrap();
        }
    }

    let mut server = ServerUnderTest::spawn_full(2, &[], &[], true);

    let idles: Vec<std::net::TcpStream> = (0..20)
        .map(|_| std::net::TcpStream::connect(server.addr.as_str()).unwrap())
        .collect();
    let mut mclient = server.client();
    wait_for_connections(&mut mclient, 21); // 20 idles + this client

    // Mid-flight request on a raw socket (no read yet).
    let inflight = std::net::TcpStream::connect(server.addr.as_str()).unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut inflight_reader = BufReader::new(inflight.try_clone().unwrap());
    let mut inflight_writer = inflight;
    writeln!(
        inflight_writer,
        r#"{{"cmd":"load","path":{:?},"eps":0.01,"seed":7,"mode":"memory"}}"#,
        csv.to_str().unwrap()
    )
    .unwrap();
    inflight_writer.flush().unwrap();
    // Give the poller time to dispatch it to a worker (the scan itself
    // runs long past this).
    std::thread::sleep(Duration::from_millis(150));

    let mut shutter = server.client();
    assert_eq!(
        shutter.call(&Request::Shutdown).expect("shutdown answered"),
        Response::ShuttingDown
    );

    // (a) The in-flight response arrives, complete and successful.
    let mut reply = String::new();
    inflight_reader
        .read_line(&mut reply)
        .expect("in-flight response readable");
    assert!(
        reply.contains(r#""kind":"loaded""#),
        "in-flight load must be answered, got: {reply:?}"
    );

    // (b) Every idle socket sees EOF (drained, not abandoned).
    for idle in &idles {
        idle.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut buf = [0u8; 16];
        let n = (&mut &*idle).read(&mut buf).expect("idle socket readable");
        assert_eq!(n, 0, "idle poller connections get EOF on drain");
    }

    // (c) Clean exit, no panic in the logs.
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "server exit status: {status:?}");
    let mut stderr = String::new();
    server
        .child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        !stderr.to_lowercase().contains("panic"),
        "no worker may panic during the drain:\n{stderr}"
    );
}

/// Drives one server with `idle` quiet keep-alive connections plus 8
/// active clients issuing audit/sketch/batch, asserts every request is
/// answered, then times 100 sequential audits from one client with the
/// herd still held. Dumps the metrics report and the server's slow
/// spans (`--slow-ms 4`, stderr) to `soak/` under the build's target
/// directory (`$CARGO_TARGET_DIR`, else `target/` in the repository).
/// Returns the served p99 per driven command and the probe's
/// nearest-rank p99, in µs.
fn soak_run(idle: usize, tag: &str) -> (std::collections::BTreeMap<String, u64>, u64) {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 12;
    const PROBES: usize = 100;

    let csv = fixture_csv(&format!("soak-{tag}.csv"));
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let soak_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(target)
        .join("soak");
    std::fs::create_dir_all(&soak_dir).unwrap();
    // Two poller shards: the soak must hold with connections split
    // across shards, not just on the single-poller fast path.
    let mut server =
        ServerUnderTest::spawn_full(4, &["--pollers", "2", "--slow-ms", "4"], &[], true);
    let mut stderr = server.child.stderr.take().expect("stderr piped");
    let mut spans = std::fs::File::create(soak_dir.join(format!("spans-{tag}.ndjson"))).unwrap();
    let spans = std::thread::spawn(move || std::io::copy(&mut stderr, &mut spans));
    let ds = server.ds(&csv, 0.01, 7);
    let mut client = server.client();
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { .. } => {}
        other => panic!("expected loaded, got {other:?}"),
    }

    // The idle herd: connected, registered with the poller, silent.
    let idles: Vec<std::net::TcpStream> = (0..idle)
        .map(|_| std::net::TcpStream::connect(server.addr.as_str()).unwrap())
        .collect();
    wait_for_connections(&mut client, idle as u64 + 1);

    // 8 active clients drive audit/sketch/batch through the herd.
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let ds = ds.clone();
            let server = &server;
            scope.spawn(move || {
                let mut client = server.client();
                for _ in 0..ROUNDS {
                    match client
                        .call(&Request::Audit {
                            ds: ds.clone(),
                            max_key_size: 2,
                        })
                        .expect("audit answered under idle load")
                    {
                        Response::Audit { .. } => {}
                        other => panic!("expected audit, got {other:?}"),
                    }
                    match client
                        .call(&Request::Sketch {
                            ds: ds.clone(),
                            attrs: vec!["sex".to_string()],
                        })
                        .expect("sketch answered under idle load")
                    {
                        Response::Sketch { .. } => {}
                        other => panic!("expected sketch, got {other:?}"),
                    }
                    match client
                        .call(&Request::Batch {
                            requests: vec![
                                Request::Check {
                                    ds: ds.clone(),
                                    attrs: vec!["id".to_string()],
                                },
                                Request::Stats { ds: ds.clone() },
                            ],
                        })
                        .expect("batch answered under idle load")
                    {
                        Response::Batch { results } => assert_eq!(results.len(), 2),
                        other => panic!("expected batch, got {other:?}"),
                    }
                }
            });
        }
    });

    let report = metrics(&mut client);
    // Dump the full report for CI artifacts before any assertion can
    // fail.
    std::fs::write(
        soak_dir.join(format!("metrics-{tag}.json")),
        format!("{}\n", Response::Metrics(report.clone()).encode()),
    )
    .unwrap();

    // Every request was answered (the calls above assert transport
    // success; this asserts server-side accounting agrees).
    let expect = (CLIENTS * ROUNDS) as u64;
    let mut p99s = std::collections::BTreeMap::new();
    for name in ["audit", "sketch", "batch"] {
        let stats = report
            .commands
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("{name} stats present"));
        assert_eq!(stats.count, expect, "{name}: every request answered");
        assert_eq!(stats.errors, 0, "{name}: no errors under idle load");
        p99s.insert(name.to_string(), stats.p99_us);
    }

    // The steady-state probe, herd still registered. It runs after the
    // snapshot above, so the counts asserted there are the drive's own.
    let audit = Request::Audit {
        ds,
        max_key_size: 2,
    };
    let mut probe: Vec<Duration> = (0..PROBES)
        .map(|_| {
            let start = std::time::Instant::now();
            match client.call(&audit).expect("probe audit answered") {
                Response::Audit { .. } => {}
                other => panic!("expected audit, got {other:?}"),
            }
            start.elapsed()
        })
        .collect();
    probe.sort_unstable();
    let probe_p99 = probe[(PROBES * 99).div_ceil(100) - 1].as_micros() as u64;
    drop(idles);
    server.shutdown();
    spans.join().unwrap().unwrap();
    (p99s, probe_p99)
}

#[test]
fn soak_idle_connections_do_not_degrade_served_p99() {
    // The soak test: a herd of idle keep-alive connections must not
    // cost the active clients their latency. With the previous
    // time-sliced core, 500 idles × a blocked 150 ms read each would
    // starve the pool for tens of seconds per cycle; with the
    // readiness core they are O(1) registrations the pollers never
    // visit while quiet. `QID_SOAK_IDLE` scales the herd (CI runs
    // 2000; the default keeps local `cargo test` snappy; 10000 needs
    // a raised `ulimit -n`, see docs/BENCHMARKS.md).
    let idle: usize = std::env::var("QID_SOAK_IDLE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    let (baseline, probe_base) = soak_run(10, "baseline-10");
    let (soak, probe_herd) = soak_run(idle, &format!("soak-{idle}"));
    eprintln!("audit probe p99: {probe_base}µs with 10 idles, {probe_herd}µs with {idle}");
    // p99s come from log₂ histogram bucket edges (each bucket is 2×
    // the previous), so the 3× budget is one bucket of drift. The
    // absolute floor absorbs scheduler noise when both runs are
    // already fast — the failure mode this guards against (idle
    // connections re-entering the worker pool) costs *seconds*, not
    // single-digit milliseconds.
    const FLOOR_US: u64 = 8191; // bucket edge ≈ 8 ms
    for (name, base_p99) in &baseline {
        let soak_p99 = soak[name];
        assert!(
            soak_p99 <= (base_p99 * 3).max(FLOOR_US),
            "{name}: p99 {soak_p99}µs with {idle} idles vs {base_p99}µs with 10 \
             (dumps in target/soak/)"
        );
    }
    // The sequential probe is client-timed and exact, so it takes the
    // tighter bound: 2× the 10-idle p99, or 5 ms over it when both are
    // already fast.
    assert!(
        probe_herd <= (probe_base * 2).max(probe_base + 5_000),
        "audit probe: p99 {probe_herd}µs with {idle} idles vs {probe_base}µs with 10 \
         (spans in target/soak/)"
    );
}

#[test]
fn trace_reports_recent_spans_newest_first_and_the_cli_renders_them() {
    let dir = scratch_dir("trace");
    let csv = dir.join("t.csv");
    write_fixture(&csv, 800);
    let server = ServerUnderTest::spawn(2);
    let ds = server.ds(&csv, 0.01, 7);
    let mut client = server.client();
    match client
        .call(&Request::Load {
            ds: ds.clone(),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { .. } => {}
        other => panic!("expected loaded, got {other:?}"),
    }
    for _ in 0..8 {
        match client
            .call(&Request::Check {
                ds: ds.clone(),
                attrs: vec!["id".to_string()],
            })
            .unwrap()
        {
            Response::Check { .. } => {}
            other => panic!("expected check, got {other:?}"),
        }
    }

    // Unfiltered trace: newest-first ids, and both commands present.
    let spans = match client
        .call(&Request::Trace {
            last: 50,
            command: None,
            min_us: 0,
        })
        .unwrap()
    {
        Response::Trace { spans } => spans,
        other => panic!("expected trace, got {other:?}"),
    };
    assert!(spans.len() >= 9, "load + 8 checks recorded: {spans:?}");
    assert!(
        spans.windows(2).all(|w| w[0].id > w[1].id),
        "spans must be newest-first with distinct ids: {spans:?}"
    );
    assert!(spans.iter().any(|s| s.command == "load"), "{spans:?}");

    // Command filter narrows to checks only, and each span carries the
    // same resolved cache key plus real sizes.
    let checks = match client
        .call(&Request::Trace {
            last: 50,
            command: Some("check".to_string()),
            min_us: 0,
        })
        .unwrap()
    {
        Response::Trace { spans } => spans,
        other => panic!("expected trace, got {other:?}"),
    };
    assert_eq!(checks.len(), 8, "{checks:?}");
    for span in &checks {
        assert_eq!(span.command, "check");
        assert_eq!(span.outcome, "ok");
        assert_eq!(span.key.len(), 16, "16 hex digits: {span:?}");
        assert!(span.bytes_in > 0 && span.bytes_out > 0, "{span:?}");
    }
    assert!(
        checks.windows(2).all(|w| w[0].key == w[1].key),
        "one dataset, one key: {checks:?}"
    );

    // An impossible min_us filter (≈ 35 years, and exactly
    // representable as a JSON number) yields an empty, valid answer.
    match client
        .call(&Request::Trace {
            last: 50,
            command: None,
            min_us: 1 << 50,
        })
        .unwrap()
    {
        Response::Trace { spans } => assert!(spans.is_empty(), "{spans:?}"),
        other => panic!("expected trace, got {other:?}"),
    }

    // The CLI renders a table of the same data.
    let out = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args([
            "query",
            &server.addr,
            "trace",
            "--last",
            "5",
            "--command",
            "check",
        ])
        .output()
        .expect("qid query trace runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("command"), "header row: {stdout}");
    assert!(stdout.contains("trace: 5 spans"), "{stdout}");
    server.shutdown();
}

/// `metrics` and `trace` read one measurement: each served `check`
/// (fast path and general path alike) and `audit` adds one count and one
/// span, and the command's latency sum is the sum of its spans' serve
/// times. The sum is kept in nanoseconds and each span's `serve_us` is
/// truncated to whole µs, so the sum exceeds the spans' total by less
/// than 1 µs a span. One connection, one request at a time, and fewer
/// lines than the 4096-slot ring holds, so every span is still in it.
#[test]
fn metrics_latency_and_trace_serve_time_are_one_measurement() {
    let csv = fixture_csv("one-measurement.csv");
    let server = ServerUnderTest::spawn(2);
    let ds = server.ds(&csv, 0.01, 7);
    let stream = std::net::TcpStream::connect(server.addr.as_str()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut send = |line: &str| -> Response {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::decode(reply.trim()).unwrap()
    };
    let load = Request::Load {
        ds: ds.clone(),
        mode: LoadMode::Stream,
    };
    assert!(matches!(send(&load.encode()), Response::Loaded { .. }));
    let check = Request::Check {
        ds: ds.clone(),
        attrs: vec!["zip".to_string(), "sex".to_string()],
    }
    .encode();
    let audit = Request::Audit {
        ds,
        max_key_size: 2,
    }
    .encode();
    for i in 0..2_000 {
        assert!(matches!(send(&check), Response::Check { .. }));
        if i % 40 == 0 {
            assert!(matches!(send(&audit), Response::Audit { .. }));
        }
    }
    assert!(matches!(send("{not json"), Response::Error { .. }));
    let Response::Metrics(report) = send(&Request::Metrics.encode()) else {
        panic!("expected metrics");
    };
    let trace = Request::Trace {
        last: 4096,
        command: None,
        min_us: 0,
    };
    let Response::Trace { spans } = send(&trace.encode()) else {
        panic!("expected trace");
    };
    assert!(spans.iter().any(|s| s.outcome == "protocol_error"));
    for (name, expected) in [("check", 2_000), ("audit", 50)] {
        let stats = report.commands.iter().find(|c| c.name == name).unwrap();
        let served: Vec<_> = spans.iter().filter(|s| s.command == name).collect();
        assert_eq!(stats.count, expected, "{name}: {stats:?}");
        assert_eq!(
            served.len() as u64,
            stats.count,
            "{name}: one span per count"
        );
        let serve_us: u64 = served.iter().map(|s| s.serve_us).sum();
        assert!(
            (serve_us..serve_us + stats.count).contains(&stats.latency_us),
            "{name}: one measurement: latency_us {} against {serve_us} µs of spans",
            stats.latency_us
        );
    }
    server.shutdown();
}

#[test]
fn unload_all_purges_the_whole_cache_and_the_cli_drives_it() {
    let dir = scratch_dir("unload-all");
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    write_fixture(&a, 800);
    write_fixture(&b, 600);
    let server = ServerUnderTest::spawn(2);
    let mut client = server.client();
    for (path, seed) in [(&a, 7u64), (&b, 8u64)] {
        match client
            .call(&Request::Load {
                ds: server.ds(path, 0.01, seed),
                mode: LoadMode::Stream,
            })
            .unwrap()
        {
            Response::Loaded { .. } => {}
            other => panic!("expected loaded, got {other:?}"),
        }
    }
    assert_eq!(metrics(&mut client).datasets, 2);

    // `qid query <addr> unload --all`, as an operator would run it.
    let out = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args(["query", &server.addr, "unload", "--all"])
        .output()
        .expect("qid query unload --all runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dropped"), "{stdout}");

    let report = metrics(&mut client);
    assert_eq!(report.datasets, 0, "{report:?}");
    assert_eq!(report.cache_bytes, 0, "{report:?}");

    // A second purge finds an already-empty cache.
    match client.call(&Request::UnloadAll).unwrap() {
        Response::Unloaded { existed } => assert!(!existed),
        other => panic!("expected unloaded, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn flight_recorder_flags_announce_and_log_ndjson_events() {
    let dir = scratch_dir("flags");
    let csv = dir.join("f.csv");
    write_fixture(&csv, 800);
    let mut server = ServerUnderTest::spawn_full(
        1,
        &["--metrics-addr", "127.0.0.1:0", "--log-json"],
        &[],
        true,
    );
    assert!(
        server.announce.contains("metrics = 127.0.0.1:"),
        "announce line names the metrics listener: {}",
        server.announce
    );

    let mut client = server.client();
    match client
        .call(&Request::Load {
            ds: server.ds(&csv, 0.01, 7),
            mode: LoadMode::Stream,
        })
        .unwrap()
    {
        Response::Loaded { .. } => {}
        other => panic!("expected loaded, got {other:?}"),
    }
    match client.call(&Request::UnloadAll).unwrap() {
        Response::Unloaded { existed } => assert!(existed),
        other => panic!("expected unloaded, got {other:?}"),
    }
    assert_eq!(
        client.call(&Request::Shutdown).expect("shutdown answered"),
        Response::ShuttingDown
    );
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "server exit status: {status:?}");

    // The NDJSON event log recorded the cache lifecycle.
    let mut stderr = String::new();
    server
        .child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(
        stderr.contains(r#""event":"cache_build""#),
        "cache_build logged:\n{stderr}"
    );
    assert!(
        stderr.contains(r#""event":"cache_purge""#),
        "cache_purge logged:\n{stderr}"
    );
    for line in stderr.lines().filter(|l| l.contains(r#""event":"#)) {
        assert!(
            line.starts_with(r#"{"ts_ms":"#) && line.ends_with('}'),
            "NDJSON shape: {line:?}"
        );
    }
}
