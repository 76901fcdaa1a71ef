//! Absorbing an appended suffix is at least 5× cheaper than a rebuild.
//!
//! A registry entry built over 150,000 covtype-shaped rows parks its
//! reservoir mid-stream; a 10,000-row append (~7 %) is absorbed by
//! scanning only the suffix, while a cold build re-reads every row.
//! The bound holds only at this size, where the suffix scan dominates
//! the lookup's fixed costs, so the test generates 160k rows and is
//! ignored by default. Run it in release:
//!
//! ```sh
//! cargo test --release --test append_absorb -- --ignored
//! ```

use std::io::Write as _;
use std::time::Instant;

use quasi_id::dataset::csv::write_csv;
use quasi_id::dataset::generator::covtype_like_scaled;
use quasi_id::server::proto::{DatasetRef, LoadMode};
use quasi_id::server::Registry;

const BASE_ROWS: usize = 150_000;
const SUFFIX_ROWS: usize = BASE_ROWS / 15;

#[test]
#[ignore = "release-only: generates 160k covtype rows"]
fn appending_lookup_absorbs_at_least_5x_cheaper_than_a_rebuild() {
    let mut csv = Vec::new();
    write_csv(&covtype_like_scaled(11, BASE_ROWS + SUFFIX_ROWS), &mut csv).unwrap();
    // Just past the header and the base rows: the suffix starts on a
    // row boundary.
    let split = csv
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(BASE_ROWS)
        .expect("split boundary")
        .0
        + 1;
    let dir = std::env::temp_dir().join(format!("qid-append-absorb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grow.csv");
    std::fs::write(&path, &csv[..split]).unwrap();
    let ds = DatasetRef {
        path: path.to_str().unwrap().to_string(),
        eps: 0.01,
        seed: 7,
    };

    let reg = Registry::new();
    reg.get_or_load(&ds, LoadMode::Stream)
        .0
        .expect("base build");
    let mut file = std::fs::File::options().append(true).open(&path).unwrap();
    file.write_all(&csv[split..]).unwrap();
    drop(file);

    let start = Instant::now();
    let (absorbed, hit) = reg.get_or_load(&ds, LoadMode::Stream);
    let absorb = start.elapsed();
    assert!(hit, "the appending lookup must absorb, not rebuild");
    assert_eq!(absorbed.expect("absorb").rows, BASE_ROWS + SUFFIX_ROWS);
    assert_eq!(reg.append_updates(), 1, "exactly one append absorbed");
    assert_eq!(reg.snapshot().stale_rebuilds, 0, "no full rebuild");

    let start = Instant::now();
    let (rebuilt, _) = Registry::new().get_or_load(&ds, LoadMode::Stream);
    let rebuild = start.elapsed();
    assert_eq!(rebuilt.expect("rebuild").rows, BASE_ROWS + SUFFIX_ROWS);

    let speedup = rebuild.as_secs_f64() / absorb.as_secs_f64();
    eprintln!("absorb {absorb:?}, rebuild {rebuild:?}: {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "append absorb regressed below 5x: absorb {absorb:?}, rebuild {rebuild:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
