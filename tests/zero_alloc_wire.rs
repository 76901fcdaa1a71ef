//! The zero-allocation proof for a served `check`, measured at the wire.
//!
//! `tests/zero_alloc.rs` counts the in-process request path
//! (`answer_line` + `finish_wake`). This test counts the whole wake of
//! a live server instead: a raw `TcpStream` client writes one
//! pre-encoded `check` line and reads the reply into a fixed buffer,
//! 200 times after warm-up, and the process-wide allocation counter
//! must not move. The window therefore covers everything the poller
//! shard does for the request: the readiness wake, the socket read,
//! line framing, the fast-path answer, span capture and publication,
//! the flush, and the oneshot re-arm.
//!
//! The server runs fully armed, as in `zero_alloc.rs`: two poller
//! shards (one idle connection each), the registry journal (WAL) under
//! a cache dir, the `--metrics-addr` listener, `--slow-ms` detection
//! and the background sweeper. A wake handed to the worker pool would
//! allocate (the pool job is a `Box`ed closure), so a moving counter
//! here also means a `check` left its shard. The count holds on both
//! readiness backends (`QID_POLL_BACKEND=poll` included: the `poll(2)`
//! fallback reuses its pollfd array between waits).
//!
//! One `#[test]` only: a global allocator is process-wide, and a
//! concurrent test's allocations would race the counter.

mod counting_alloc;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use counting_alloc::ALLOCATIONS;
use quasi_id::server::proto::{Request, Response};
use quasi_id::server::{Client, Server, ServerConfig};

/// Writes one request line and reads exactly one reply line into
/// `buf`, returning its length (newline included). Allocation-free.
fn round_trip(stream: &mut TcpStream, line: &[u8], buf: &mut [u8]) -> usize {
    stream.write_all(line).expect("write request");
    let mut len = 0;
    loop {
        let n = stream.read(&mut buf[len..]).expect("read reply");
        assert!(n > 0, "server closed the connection mid-reply");
        len += n;
        if buf[len - 1] == b'\n' {
            return len;
        }
        assert!(len < buf.len(), "reply overflowed the fixed buffer");
    }
}

/// The value of one sample line in a Prometheus scrape.
fn scraped(body: &str, sample: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(sample)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{sample} missing from the scrape"))
}

#[test]
fn steady_state_wire_check_allocates_nothing() {
    let dir = std::env::temp_dir().join("qid-zero-alloc-wire");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("people.csv");
    let mut csv = String::from("zip,age,sex,job\n");
    for i in 0..500 {
        csv.push_str(&format!(
            "{:05},{},{},job{}\n",
            i % 89,
            18 + i % 60,
            i % 2,
            i % 7
        ));
    }
    std::fs::write(&path, csv).expect("write csv");
    let path = path.to_str().expect("utf-8 path");

    // Every background subsystem is armed and ticks alongside the
    // counted window; the hour-long sweep and revalidation intervals
    // keep an actual sweep pass (which allocates on its own thread by
    // design) and a path re-canonicalisation out of it.
    let cache_dir = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache_dir); // stale journal from a prior run
    let server = Server::bind(&ServerConfig {
        workers: 1,
        pollers: 2,
        revalidate_ms: 3_600_000,
        sweep_ms: 3_600_000,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        slow_ms: Some(60_000),
        cache_dir: Some(cache_dir.to_str().expect("utf-8 cache dir").to_string()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let state = server.state();
    let running = server.spawn();

    // Two idle connections land one on each shard (round-robin); the
    // control client then waits until both shards hold one.
    let idles: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(running.addr()).expect("idle conn"))
        .collect();
    let mut client = Client::connect(running.addr()).expect("control client");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.call(&Request::Metrics).expect("metrics answered") {
            Response::Metrics(report)
                if report.poller_connections.len() == 2
                    && report.poller_connections.iter().all(|&n| n >= 1) =>
            {
                break;
            }
            Response::Metrics(_) => {}
            other => panic!("expected metrics, got {other:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "both poller shards must arm a connection"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    let mut wire = TcpStream::connect(running.addr()).expect("wire client");
    wire.set_nodelay(true).expect("nodelay");
    wire.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 4096];
    let load = format!("{{\"cmd\":\"load\",\"path\":\"{path}\",\"eps\":0.01,\"seed\":7}}\n");
    let n = round_trip(&mut wire, load.as_bytes(), &mut buf);
    assert!(
        buf[..n].starts_with(br#"{"ok":true,"kind":"loaded""#),
        "load failed: {}",
        String::from_utf8_lossy(&buf[..n])
    );

    let check = format!(
        "{{\"cmd\":\"check\",\"path\":\"{path}\",\"eps\":0.01,\"seed\":7,\"attrs\":[\"zip\",\"age\"]}}\n"
    );
    let check = check.as_bytes();
    // Warm-up, excluded from the count: the connection's first check
    // memoises its cache key and grows its scratch and output buffers.
    let n = round_trip(&mut wire, check, &mut buf);
    let expected = buf[..n].to_vec();
    assert!(
        expected.starts_with(br#"{"ok":true,"kind":"check""#),
        "warm-up check failed: {}",
        String::from_utf8_lossy(&expected)
    );
    for _ in 0..20 {
        round_trip(&mut wire, check, &mut buf);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        let n = round_trip(&mut wire, check, &mut buf);
        assert!(buf[..n] == expected[..], "served answer drifted");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state wire check allocated {} time(s) in 200 requests",
        after - before
    );

    // The window's checks were served on the shard: the inline wake
    // counter covers them.
    let metrics_addr = state.metrics_local_addr().expect("metrics listener");
    let mut scrape = TcpStream::connect(metrics_addr).expect("connect to metrics listener");
    scrape
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: qid\r\n\r\n")
        .expect("scrape request");
    let mut body = String::new();
    scrape.read_to_string(&mut body).expect("scrape body");
    let inline = scraped(&body, "qid_wakes_total{path=\"inline\"}");
    assert!(inline >= 221, "inline wakes {inline} < 221 checks");

    drop(idles);
    drop(wire);
    assert_eq!(
        client.call(&Request::Shutdown).expect("shutdown answered"),
        Response::ShuttingDown
    );
    drop(client);
    running.join().expect("clean drain");
}
