//! Allocations per stream build scale with the sample, not the source.
//!
//! A stream build keeps a reservoir of `r = Θ(m/√ε)` rows and one
//! `O(k)` sketch per column, so the heap work it does should not grow
//! with the row count `n`: the scan types and hashes each field in the
//! CSV reader's reused buffers and builds an owned tuple only for the
//! `O(r log(n/r))` rows a reservoir keeps. This test installs a
//! counting global allocator, builds stream entries through
//! [`Registry`] over a 20k-row and a 200k-row file of the same shape,
//! and bounds the difference in allocations. An owned tuple per row
//! (one allocation per text field plus the row's `Vec`) would put the
//! difference in the millions.
//!
//! One `#[test]` only: a global allocator is process-wide, and a
//! concurrent test's allocations would race the counter.

mod counting_alloc;

use std::io::Write as _;
use std::sync::atomic::Ordering;

use counting_alloc::ALLOCATIONS;
use quasi_id::server::proto::{DatasetRef, LoadMode};
use quasi_id::server::{Registry, RegistryConfig};

/// Writes `rows` rows mixing integer, text (high and low cardinality),
/// float and null fields, one row quoted per hundred.
fn write_csv(name: &str, rows: usize) -> String {
    let dir = std::env::temp_dir().join(format!("qid-scan-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv"));
    writeln!(out, "id,user,city,income,zip,note").unwrap();
    for i in 0..rows {
        let note = match i % 100 {
            0 => "\"quoted, with comma\"",
            1 => "?",
            _ => "",
        };
        writeln!(
            out,
            "{i},user{},city-{},{}.5,{:05},{note}",
            i * 7919 % 1_000_003,
            i % 37,
            i % 5_000,
            i * 31 % 99_991,
        )
        .unwrap();
    }
    out.flush().unwrap();
    path.to_str().expect("UTF-8 temp path").to_string()
}

/// Heap allocations of one cold stream build of `path` (stamp, scan,
/// sample and sketches), counted in a fresh registry.
fn build_allocations(path: &str, rows: usize) -> u64 {
    let registry = Registry::with_config(RegistryConfig::default());
    let ds = DatasetRef {
        path: path.to_string(),
        eps: 0.01,
        seed: 3,
    };
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let entry = registry
        .get_or_load(&ds, LoadMode::Stream)
        .0
        .expect("stream build");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(entry.rows, rows);
    after - before
}

#[test]
fn stream_build_allocations_scale_with_the_sample_not_the_rows() {
    let small_path = write_csv("small.csv", 20_000);
    let large_path = write_csv("large.csv", 200_000);
    let small = build_allocations(&small_path, 20_000);
    let large = build_allocations(&large_path, 200_000);
    let extra = large.saturating_sub(small);
    eprintln!("build allocations: {small} for 20k rows, {large} for 200k rows");
    assert!(
        extra < 10_000,
        "10x the rows cost {extra} more allocations ({small} -> {large}): \
         the scan allocates per row"
    );
}
