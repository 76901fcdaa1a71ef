//! Answers served on the poller shard, and the hand-off to the worker
//! pool mid-wake.
//!
//! A shard answers a wake's fast-path `check`s itself and hands the
//! connection to the pool at the first line it may not answer, carrying
//! the replies rendered so far. These tests pin what the client sees
//! across that hand-off: replies in request order and byte-identical to
//! the general path, every reply of a burst past the per-wake inline
//! cap, one `--max-rps` token per line, and a `check` over a sample too
//! large for the shard answered on the pool.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use quasi_id::server::proto::{Request, Response};
use quasi_id::server::{Client, RunningServer, Server, ServerConfig};

/// Writes a CSV of `rows` rows over `cols` columns and returns its path.
fn fixture_csv(name: &str, rows: usize, cols: usize) -> String {
    let dir = std::env::temp_dir().join("qid-inline-handoff");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let header: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
    let mut csv = header.join(",") + "\n";
    for i in 0..rows {
        let row: Vec<String> = (0..cols)
            .map(|c| ((i * (c + 3) + c) % (7 + 13 * c)).to_string())
            .collect();
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    std::fs::write(&path, csv).expect("write csv");
    path.to_str().expect("utf-8 path").to_string()
}

fn spawn(config: ServerConfig) -> RunningServer {
    Server::bind(&ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..config
    })
    .expect("bind")
    .spawn()
}

fn shutdown(server: RunningServer) {
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(
        client.call(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    );
    server.join().expect("clean drain");
}

fn load_line(path: &str, eps: f64) -> String {
    format!(r#"{{"cmd":"load","path":"{path}","eps":{eps},"seed":7,"mode":"stream"}}"#)
}

fn check_line(path: &str, eps: f64, attrs: &[&str]) -> String {
    let attrs: Vec<String> = attrs.iter().map(|a| format!("\"{a}\"")).collect();
    format!(
        r#"{{"cmd":"check","path":"{path}","eps":{eps},"seed":7,"attrs":[{}]}}"#,
        attrs.join(",")
    )
}

fn stats_line(path: &str, eps: f64) -> String {
    format!(r#"{{"cmd":"stats","path":"{path}","eps":{eps},"seed":7}}"#)
}

/// Sends `lines` in one write and reads back one reply line per
/// request line, in order.
fn burst(server: &RunningServer, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let payload: String = lines.iter().map(|l| format!("{l}\n")).collect();
    (&stream)
        .write_all(payload.as_bytes())
        .expect("write burst");
    let mut reader = BufReader::new(stream);
    (0..lines.len())
        .map(|i| {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert!(reply.ends_with('\n'), "reply {i} truncated: {reply:?}");
            reply
        })
        .collect()
}

/// One round trip on a fresh connection: the reply to `line` alone.
fn alone(server: &RunningServer, line: &str) -> String {
    burst(server, &[line.to_string()]).remove(0)
}

/// `qid_wakes_total{path}` from a live Prometheus scrape.
fn wakes(server: &RunningServer, path: &str) -> u64 {
    let addr = server.state().metrics_local_addr().expect("metrics addr");
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: qid\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("scrape");
    let sample = format!("qid_wakes_total{{path=\"{path}\"}} ");
    body.lines()
        .find_map(|line| line.strip_prefix(sample.as_str())?.parse().ok())
        .unwrap_or_else(|| panic!("{sample} missing from the scrape"))
}

#[test]
fn a_mixed_wake_is_answered_in_order_and_byte_identical_to_the_general_path() {
    let path = fixture_csv("mixed.csv", 400, 4);
    let fast = spawn(ServerConfig {
        workers: 2,
        pollers: 1,
        revalidate_ms: 3_600_000,
        ..ServerConfig::default()
    });
    let general = spawn(ServerConfig {
        workers: 2,
        pollers: 1,
        revalidate_ms: 0,
        ..ServerConfig::default()
    });
    for server in [&fast, &general] {
        let loaded = alone(server, &load_line(&path, 0.01));
        assert!(
            loaded.starts_with(r#"{"ok":true,"kind":"loaded""#),
            "{loaded}"
        );
    }
    let lines = vec![
        check_line(&path, 0.01, &["c0", "c1"]),
        stats_line(&path, 0.01),
        check_line(&path, 0.01, &["c2"]),
        check_line(&path, 0.01, &["c1", "c3", "c0"]),
    ];
    let pool_before = wakes(&fast, "pool");
    let replies = burst(&fast, &lines);
    // The shard answers the first check, then hands the wake to the
    // pool at `stats`.
    assert!(wakes(&fast, "pool") > pool_before, "stats left the shard");
    for (line, reply) in lines.iter().zip(&replies) {
        assert_eq!(reply, &alone(&general, line), "reply to {line}");
    }
    shutdown(fast);
    shutdown(general);
}

#[test]
fn a_burst_past_the_inline_cap_gets_every_reply_in_order() {
    let path = fixture_csv("burst.csv", 400, 4);
    let server = spawn(ServerConfig {
        workers: 1,
        pollers: 1,
        revalidate_ms: 3_600_000,
        ..ServerConfig::default()
    });
    let loaded = alone(&server, &load_line(&path, 0.01));
    assert!(
        loaded.starts_with(r#"{"ok":true,"kind":"loaded""#),
        "{loaded}"
    );
    // Distinct answers so that a reordering cannot go unnoticed.
    let shapes: [&[&str]; 4] = [&["c0"], &["c1", "c2"], &["c3"], &["c2", "c0", "c1"]];
    let expected: Vec<String> = shapes
        .iter()
        .map(|attrs| alone(&server, &check_line(&path, 0.01, attrs)))
        .collect();
    let lines: Vec<String> = (0..200)
        .map(|i| check_line(&path, 0.01, shapes[i % shapes.len()]))
        .collect();
    let pool_before = wakes(&server, "pool");
    let replies = burst(&server, &lines);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply, &expected[i % shapes.len()], "reply {i}");
    }
    assert!(
        wakes(&server, "pool") > pool_before,
        "200 pipelined checks exceed the per-wake inline cap"
    );
    shutdown(server);
}

#[test]
fn a_line_handed_off_after_its_token_is_not_charged_twice() {
    let path = fixture_csv("rate.csv", 400, 4);
    let server = spawn(ServerConfig {
        workers: 1,
        pollers: 1,
        revalidate_ms: 3_600_000,
        max_rps: Some(2),
        ..ServerConfig::default()
    });
    let loaded = alone(&server, &load_line(&path, 0.01));
    assert!(
        loaded.starts_with(r#"{"ok":true,"kind":"loaded""#),
        "{loaded}"
    );
    let mut control = Client::connect(server.addr()).expect("connect");
    let rejected = |client: &mut Client| match client.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(report) => report.rejected_rate,
        other => panic!("expected metrics, got {other:?}"),
    };
    let before = rejected(&mut control);
    // N + 1 lines for N = 2: the shard takes a token for the check and
    // answers it, takes one for `stats` and hands it off; the worker
    // must not charge `stats` again, so only the last check is over.
    let replies = burst(
        &server,
        &[
            check_line(&path, 0.01, &["c0"]),
            stats_line(&path, 0.01),
            check_line(&path, 0.01, &["c1"]),
        ],
    );
    assert!(replies[0].contains(r#""kind":"check""#), "{}", replies[0]);
    assert!(replies[1].contains(r#""kind":"stats""#), "{}", replies[1]);
    assert!(replies[2].contains("rate_limited"), "{}", replies[2]);
    let limited = replies
        .iter()
        .filter(|r| r.contains("rate_limited"))
        .count();
    assert_eq!(limited, 1, "exactly one line over budget: {replies:?}");
    assert_eq!(rejected(&mut control), before + 1);
    drop(control);
    shutdown(server);
}

#[test]
fn a_check_over_a_sample_too_large_for_the_shard_is_answered_on_the_pool() {
    // ε = 1e-6 draws a tuple sample of ⌈5/√ε⌉ = 5000 of the 6000 rows,
    // so a check over all five columns queries 25,000 cells.
    let path = fixture_csv("wide.csv", 6000, 5);
    let eps = 1e-6;
    let fast = spawn(ServerConfig {
        workers: 1,
        pollers: 1,
        revalidate_ms: 3_600_000,
        ..ServerConfig::default()
    });
    let general = spawn(ServerConfig {
        workers: 1,
        pollers: 1,
        revalidate_ms: 0,
        ..ServerConfig::default()
    });
    for server in [&fast, &general] {
        let loaded = alone(server, &load_line(&path, eps));
        assert!(loaded.contains(r#""sample":5000"#), "{loaded}");
    }
    let small = check_line(&path, eps, &["c0"]);
    let big = check_line(&path, eps, &["c0", "c1", "c2", "c3", "c4"]);

    let mut control = Client::connect(fast.addr()).expect("connect");
    let mut hits = || match control.call(&Request::Metrics).expect("metrics") {
        Response::Metrics(report) => report.cache_hits,
        other => panic!("expected metrics, got {other:?}"),
    };
    let hits_before = hits();
    let pool_before = wakes(&fast, "pool");
    assert_eq!(alone(&fast, &small), alone(&general, &small));
    assert_eq!(wakes(&fast, "pool"), pool_before, "5,000 cells stay inline");
    assert_eq!(alone(&fast, &big), alone(&general, &big));
    assert_eq!(
        wakes(&fast, "pool"),
        pool_before + 1,
        "25,000 cells go to the pool"
    );
    // The shard's declined peek is not a lookup: the pool's answer
    // counts the big check's one hit.
    assert_eq!(hits(), hits_before + 2, "one cache hit per check");
    shutdown(fast);
    shutdown(general);
}
