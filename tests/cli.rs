//! Integration tests for the `qid` command-line tool, driving the real
//! compiled binary via `CARGO_BIN_EXE_qid`.

use std::io::Write;
use std::process::Command;

/// Writes a small CSV fixture and returns its path.
fn fixture_csv(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("qid-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "id,zip,age,sex").unwrap();
    for i in 0..800 {
        writeln!(
            f,
            "{i},{},{},{}",
            92100 + i % 40,
            18 + (i * 7) % 60,
            if i % 2 == 0 { "M" } else { "F" }
        )
        .unwrap();
    }
    path
}

#[test]
fn duplicate_attrs_deduped_with_warning() {
    let csv = fixture_csv("dup-attrs.csv");
    let (stdout, stderr, ok) = run(&[
        "check",
        csv.to_str().unwrap(),
        "--attrs",
        "zip,zip,age,zip",
        "--eps",
        "0.01",
    ]);
    assert!(ok);
    assert!(
        stderr.contains("duplicate attribute \"zip\""),
        "duplicates must be warned about: {stderr}"
    );
    // The query runs on the deduped, order-preserved set.
    assert!(stdout.contains("[\"zip\", \"age\"]"), "{stdout}");
    assert!(!stdout.contains("zip\", \"zip"), "{stdout}");

    // A name and its index are the same attribute.
    let (stdout, stderr, ok) = run(&[
        "check",
        csv.to_str().unwrap(),
        "--attrs",
        "id,0",
        "--eps",
        "0.01",
    ]);
    assert!(ok);
    assert!(stderr.contains("duplicate attribute \"0\""), "{stderr}");
    assert!(stdout.contains("[\"id\"]"), "{stdout}");
}

#[test]
fn streamed_audit_and_key_report_stream_length() {
    let csv = fixture_csv("streamed.csv");
    let (stdout, _, ok) = run(&["key", csv.to_str().unwrap(), "--eps", "0.01"]);
    assert!(ok);
    assert!(stdout.contains("(streamed)"), "{stdout}");
    assert!(stdout.contains("800 rows x 4 attributes"), "{stdout}");

    let (stdout, _, ok) = run(&["audit", csv.to_str().unwrap(), "--eps", "0.01"]);
    assert!(ok);
    assert!(stdout.contains("(streamed)"), "{stdout}");

    // --exact forces the materialised path.
    let (stdout, _, ok) = run(&["key", csv.to_str().unwrap(), "--eps", "0.01", "--exact"]);
    assert!(ok);
    assert!(!stdout.contains("(streamed)"), "{stdout}");
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn stats_lists_cardinalities() {
    let csv = fixture_csv("stats.csv");
    let (stdout, _, ok) = run(&["stats", csv.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("800 rows x 4 attributes"));
    assert!(stdout.contains("zip"));
    assert!(stdout.contains("800 distinct") || stdout.contains("id"));
}

#[test]
fn key_finds_id() {
    let csv = fixture_csv("key.csv");
    let (stdout, _, ok) = run(&["key", csv.to_str().unwrap(), "--eps", "0.01"]);
    assert!(ok);
    assert!(stdout.contains("eps-separation key"));
    assert!(
        stdout.contains("\"id\""),
        "id must be the found key: {stdout}"
    );
}

#[test]
fn check_accepts_key_rejects_weak() {
    let csv = fixture_csv("check.csv");
    let (stdout, _, ok) = run(&[
        "check",
        csv.to_str().unwrap(),
        "--attrs",
        "id",
        "--eps",
        "0.01",
    ]);
    assert!(ok);
    assert!(stdout.contains("Accept"), "{stdout}");

    let (stdout, _, ok) = run(&[
        "check",
        csv.to_str().unwrap(),
        "--attrs",
        "sex",
        "--eps",
        "0.01",
    ]);
    assert!(ok);
    assert!(stdout.contains("Reject"), "{stdout}");
}

#[test]
fn audit_reports_quasi_identifiers() {
    let csv = fixture_csv("audit.csv");
    let (stdout, _, ok) = run(&[
        "audit",
        csv.to_str().unwrap(),
        "--eps",
        "0.01",
        "--max-key-size",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("minimal quasi-identifiers"));
    assert!(stdout.contains("uniquely identified"));
}

#[test]
fn mask_suppresses_id() {
    let csv = fixture_csv("mask.csv");
    let (stdout, _, ok) = run(&[
        "mask",
        csv.to_str().unwrap(),
        "--eps",
        "0.01",
        "--budget",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("suppress"));
    assert!(
        stdout.contains("id"),
        "the id column must be suppressed: {stdout}"
    );
}

/// A CSV wide enough that printing its stats overflows a 64 KiB pipe
/// buffer — so a `| head -1` reader guarantees the writer sees EPIPE.
fn wide_fixture_csv(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("qid-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let cols = 3000;
    let header: Vec<String> = (0..cols).map(|c| format!("col_number_{c}")).collect();
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in 0..3 {
        let cells: Vec<String> = (0..cols).map(|c| format!("{}", row * cols + c)).collect();
        writeln!(f, "{}", cells.join(",")).unwrap();
    }
    path
}

/// Runs `cmd | head -1` through the shell, capturing qid's own exit
/// status on stderr (sh has no pipefail, and the pipeline's status is
/// head's).
fn run_piped_to_head(cmd: &str) -> (String, String) {
    let out = Command::new("/bin/sh")
        .args([
            "-c",
            &format!("( {cmd}; echo qid-status=$? >&2 ) | head -1"),
        ])
        .output()
        .expect("shell pipeline runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn closed_pipe_is_a_clean_exit_not_a_panic() {
    // ROADMAP "CLI broken-pipe hygiene": `qid … | head -1` used to
    // panic with "failed printing to stdout: Broken pipe" (println!
    // panics on EPIPE because Rust ignores SIGPIPE). Output now goes
    // through an EPIPE-aware writer that exits 0.
    let csv = wide_fixture_csv("wide-oneshot.csv");
    let cmd = format!(
        "{} stats {}",
        env!("CARGO_BIN_EXE_qid"),
        csv.to_str().unwrap()
    );
    let (stdout, stderr) = run_piped_to_head(&cmd);
    assert!(
        stderr.contains("qid-status=0"),
        "one-shot stats must exit 0 under head -1: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn query_output_survives_a_closed_pipe_too() {
    use std::io::BufRead as _;
    // Same hygiene for the served path: spawn a real server, pipe
    // `qid query … stats` (3000 estimate lines ≫ the pipe buffer)
    // into head -1.
    let csv = wide_fixture_csv("wide-query.csv");
    let mut server = Command::new(env!("CARGO_BIN_EXE_qid"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let stdout = server.stdout.take().unwrap();
    let mut announce = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut announce)
        .unwrap();
    let addr = announce
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparseable announce line: {announce:?}"))
        .to_string();

    let cmd = format!(
        "{} query {} stats {}",
        env!("CARGO_BIN_EXE_qid"),
        addr,
        csv.to_str().unwrap()
    );
    let (stdout, stderr) = run_piped_to_head(&cmd);
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        stderr.contains("qid-status=0"),
        "query stats must exit 0 under head -1: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = run(&["frobnicate", "/nonexistent.csv"]);
    assert!(!ok);
    assert!(!stderr.is_empty());

    let (_, stderr, ok) = run(&["stats", "/definitely/not/here.csv"]);
    assert!(!ok);
    assert!(stderr.contains("error reading"));

    let csv = fixture_csv("usage.csv");
    let (_, stderr, ok) = run(&["check", csv.to_str().unwrap()]);
    assert!(!ok, "check without --attrs must fail");
    assert!(stderr.contains("--attrs"));
}

#[test]
fn unknown_attribute_rejected() {
    let csv = fixture_csv("unknown.csv");
    let (_, stderr, ok) = run(&["check", csv.to_str().unwrap(), "--attrs", "no_such_column"]);
    assert!(!ok);
    assert!(stderr.contains("unknown attribute"));
}

#[test]
fn wal_verify_lists_artifacts_and_fails_on_a_flipped_byte() {
    use quasi_id::server::{DatasetRef, LoadMode, Registry, RegistryConfig};
    let csv = fixture_csv("wal-artifact.csv");
    let cache = std::env::temp_dir().join(format!("qid-cli-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    {
        // A clean life over the cache dir leaves one artifact behind.
        let registry = Registry::with_config(RegistryConfig {
            cache_dir: Some(cache.clone()),
            ..RegistryConfig::default()
        });
        let ds = DatasetRef {
            path: csv.to_str().unwrap().to_string(),
            eps: 0.01,
            seed: 7,
        };
        registry.get_or_load(&ds, LoadMode::Stream).0.unwrap();
    }
    let dir = cache.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["wal", dir, "--verify"]);
    assert!(ok, "{stdout}{stderr}");
    assert!(
        stdout.contains("800x4, 40 sample rows, pairs no"),
        "{stdout}"
    );
    assert!(stdout.contains("verify: ok"), "{stdout}");

    let artifact = std::fs::read_dir(&cache)
        .unwrap()
        .flatten()
        .map(|d| d.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.len() == 16)
        })
        .expect("one artifact per key");
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&artifact, bytes).unwrap();
    let (stdout, stderr, ok) = run(&["wal", dir, "--verify"]);
    assert!(!ok, "a flipped byte must fail verification: {stdout}");
    assert!(stdout.contains("INVALID (checksum mismatch)"), "{stdout}");
    assert!(stderr.contains("checksum mismatch"), "{stderr}");
    let _ = std::fs::remove_dir_all(&cache);
}
