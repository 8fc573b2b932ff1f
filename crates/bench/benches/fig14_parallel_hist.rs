//! Figures 14/15: parallel computation of conditional and unconditional
//! histograms over a catalog of timestep files, swept over node counts.
//! The speedup series of Figure 15 is the same measurement normalised to the
//! single-node time (reported by the `figures` binary).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbit::{ExecStrategy, QueryExpr, ValueRange};
use pipeline::{HistogramStage, NodePool};
use vdx_bench::catalog_workload;

fn bench_parallel_hist(c: &mut Criterion) {
    let (catalog, _dir) = catalog_workload("bench_fig14", 10_000, 6);
    let pairs = vec![("x", "px"), ("y", "py"), ("px", "py")];
    let condition = QueryExpr::pred("px", ValueRange::gt(5e10));
    let mut group = c.benchmark_group("fig14_parallel_hist");
    group.sample_size(10);
    for nodes in [1usize, 2] {
        let pool = NodePool::new(nodes);
        group.bench_with_input(
            BenchmarkId::new("fastbit_uncond", nodes),
            &pool,
            |b, pool| {
                b.iter(|| {
                    HistogramStage::new(pairs.clone(), 256)
                        .with_engine(ExecStrategy::Auto)
                        .run(&catalog, pool)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("custom_uncond", nodes),
            &pool,
            |b, pool| {
                b.iter(|| {
                    HistogramStage::new(pairs.clone(), 256)
                        .with_engine(ExecStrategy::ScanOnly)
                        .run(&catalog, pool)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("fastbit_cond", nodes), &pool, |b, pool| {
            b.iter(|| {
                HistogramStage::new(pairs.clone(), 256)
                    .with_engine(ExecStrategy::Auto)
                    .with_condition(condition.clone())
                    .run(&catalog, pool)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("custom_cond", nodes), &pool, |b, pool| {
            b.iter(|| {
                HistogramStage::new(pairs.clone(), 256)
                    .with_engine(ExecStrategy::ScanOnly)
                    .with_condition(condition.clone())
                    .run(&catalog, pool)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(2000))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parallel_hist
}
criterion_main!(benches);
