//! **E6 — Criterion micro-benchmarks** for the paper's cost claims:
//! filter query time (`O(|A|·m/ε)` vs `O(|A|·(m/√ε)·log(m/ε))`),
//! sketch construction, partition refinement, and the greedy cover —
//! plus the serving tier's source-stamp and CSV framing throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use qid_core::filter::{
    CollisionScratch, FilterParams, PairSampleFilter, SeparationFilter, TupleSampleFilter,
};
use qid_core::minkey::GreedyRefineMinKey;
use qid_core::separation::{PartitionIndex, Refiner};
use qid_core::sketch::{NonSeparationSketch, SketchParams};
use qid_dataset::csv::{CsvOptions, CsvTupleSource, SCAN_BATCH_BYTES};
use qid_dataset::generator::covtype_like_scaled;
use qid_dataset::AttrId;
use qid_server::registry::SourceStamp;

fn covtype_small() -> qid_dataset::Dataset {
    covtype_like_scaled(7, 20_000)
}

fn query_attrs(m: usize) -> Vec<AttrId> {
    // A mid-size subset: every third attribute.
    (0..m).step_by(3).map(AttrId::new).collect()
}

fn bench_filter_queries(c: &mut Criterion) {
    let ds = covtype_small();
    let attrs = query_attrs(ds.n_attrs());
    let mut group = c.benchmark_group("filter_query");
    for &eps in &[0.01, 0.001] {
        let params = FilterParams::new(eps);
        let pair = PairSampleFilter::build(&ds, params, 1);
        let tuple = TupleSampleFilter::build(&ds, params, 1);
        group.bench_with_input(BenchmarkId::new("pair_MX", eps), &eps, |b, _| {
            b.iter(|| black_box(pair.query(black_box(&attrs))))
        });
        group.bench_with_input(BenchmarkId::new("tuple_sorted", eps), &eps, |b, _| {
            b.iter(|| black_box(tuple.query_sorted(black_box(&attrs))))
        });
        let mut scratch = CollisionScratch::new();
        group.bench_with_input(BenchmarkId::new("tuple_hashed", eps), &eps, |b, _| {
            b.iter(|| black_box(tuple.query_with(black_box(&attrs), &mut scratch)))
        });
    }
    group.finish();
}

fn bench_builds(c: &mut Criterion) {
    let ds = covtype_small();
    let params = FilterParams::new(0.001);
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    group.bench_function("pair_filter", |b| {
        b.iter(|| black_box(PairSampleFilter::build(&ds, params, 2)))
    });
    group.bench_function("tuple_filter", |b| {
        b.iter(|| black_box(TupleSampleFilter::build(&ds, params, 2)))
    });
    group.bench_function("nonsep_sketch", |b| {
        b.iter(|| {
            black_box(NonSeparationSketch::build(
                &ds,
                SketchParams::new(0.1, 0.1, 4),
                2,
            ))
        })
    });
    group.finish();
}

fn bench_refinement(c: &mut Criterion) {
    let ds = covtype_small();
    let sample = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let rows = qid_sampling::swor::sample_indices(&mut rng, ds.n_rows(), 2_000);
        ds.gather(&rows)
    };
    let idx = PartitionIndex::build(&sample);
    let all: Vec<u32> = (0..sample.n_rows() as u32).collect();
    let mut group = c.benchmark_group("refinement");
    group.bench_function("partition_index_build", |b| {
        b.iter(|| black_box(PartitionIndex::build(black_box(&sample))))
    });
    group.bench_function("split_sizes_one_attr", |b| {
        let mut refiner = Refiner::new(&idx);
        b.iter(|| {
            black_box(
                refiner
                    .split_sizes(&idx, AttrId::new(0), black_box(&all))
                    .len(),
            )
        })
    });
    group.bench_function("greedy_refine_full", |b| {
        b.iter(|| black_box(GreedyRefineMinKey::run_on_sample(black_box(&sample))))
    });
    group.finish();
}

/// `SourceStamp::capture` — the whole-content hash every cold build,
/// append check and disk restore pays — over a generated 16 MB CSV in
/// the page cache, reported as MB/s.
fn bench_source_stamp(_: &mut Criterion) {
    let path = std::env::temp_dir().join(format!("qid-micro-stamp-{}.csv", std::process::id()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    writeln!(out, "id,zip,age,sex").unwrap();
    for i in 0u64..900_000 {
        writeln!(out, "{i},{},{},{}", 90_000 + i % 997, 18 + i % 71, i % 2).unwrap();
    }
    out.flush().unwrap();
    drop(out);
    let path_str = path.to_str().unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len();
    black_box(SourceStamp::capture(path_str).unwrap()); // warm the page cache
    let reps = 10;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(SourceStamp::capture(black_box(path_str)).unwrap());
    }
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "bench {:<44} {:>12.0} MB/s ({reps} captures of {:.1} MB)",
        "source_stamp/capture",
        (reps * bytes) as f64 / 1e6 / secs,
        bytes as f64 / 1e6
    );
    let _ = std::fs::remove_file(&path);
}

/// The CSV framer's own throughput: a frame-only `scan_rows` (framer
/// thread plus the row stage's blank-line and arity checks, no typing)
/// and the inline `next_row`, over two generated files of 400,000
/// records. In `quoted_1pct` one record in a hundred quotes a field
/// (with a delimiter inside); `quoted_all` quotes every field, as many
/// exports do.
fn bench_csv_scan(_: &mut Criterion) {
    for (file, quote_all) in [("quoted_1pct", false), ("quoted_all", true)] {
        let path =
            std::env::temp_dir().join(format!("qid-micro-csv-{file}-{}.csv", std::process::id()));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        writeln!(out, "id,zip,age,sex,city,income").unwrap();
        for i in 0u64..400_000 {
            let city = if i % 100 == 0 {
                format!("\"city{}, north\"", i % 31)
            } else {
                format!("city{}", i % 31)
            };
            let fields = [
                i.to_string(),
                (90_000 + i % 997).to_string(),
                (18 + i % 71).to_string(),
                (i % 2).to_string(),
                city,
                format!("{i}.5"),
            ];
            let record: Vec<String> = if quote_all {
                fields
                    .into_iter()
                    .map(|f| format!("\"{}\"", f.trim_matches('"')))
                    .collect()
            } else {
                fields.into()
            };
            writeln!(out, "{}", record.join(",")).unwrap();
        }
        out.flush().unwrap();
        drop(out);
        let bytes = std::fs::metadata(&path).unwrap().len();
        let opts = CsvOptions::default();
        let frame_only = || {
            let mut rows = 0usize;
            CsvTupleSource::open(&path, &opts)
                .unwrap()
                .scan_rows(SCAN_BATCH_BYTES, |_| rows += 1)
                .unwrap();
            rows
        };
        let inline = || {
            let mut src = CsvTupleSource::open(&path, &opts).unwrap();
            let mut rows = 0usize;
            while let Some(row) = src.next_row().unwrap() {
                black_box(&row);
                rows += 1;
            }
            rows
        };
        black_box(frame_only()); // warm the page cache
        let reps = 5;
        for (name, scan) in [
            ("scan_rows_frame_only", &frame_only as &dyn Fn() -> usize),
            ("next_row", &inline),
        ] {
            let start = Instant::now();
            for _ in 0..reps {
                assert_eq!(black_box(scan()), 400_000);
            }
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "bench {:<44} {:>12.0} MB/s ({reps} scans of {:.1} MB)",
                format!("csv_scan/{file}/{name}"),
                (reps * bytes) as f64 / 1e6 / secs,
                bytes as f64 / 1e6
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

criterion_group!(
    benches,
    bench_filter_queries,
    bench_builds,
    bench_refinement,
    bench_source_stamp,
    bench_csv_scan
);
criterion_main!(benches);
