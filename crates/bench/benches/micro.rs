//! **E6 — Criterion micro-benchmarks** for the paper's cost claims:
//! filter query time (`O(|A|·m/ε)` vs `O(|A|·(m/√ε)·log(m/ε))`),
//! sketch construction, partition refinement, and the greedy cover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use qid_core::filter::{
    CollisionScratch, FilterParams, PairSampleFilter, SeparationFilter, TupleSampleFilter,
};
use qid_core::minkey::GreedyRefineMinKey;
use qid_core::separation::{PartitionIndex, Refiner};
use qid_core::sketch::{NonSeparationSketch, SketchParams};
use qid_dataset::generator::covtype_like_scaled;
use qid_dataset::AttrId;

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

criterion_group!(
    benches,
    bench_filter_queries,
    bench_builds,
    bench_refinement
);
criterion_main!(benches);
