//! Figures 16/17: parallel particle tracking over every timestep of a
//! catalog, swept over node counts, for the identifier-index (FastBit) and
//! full-scan (Custom) engines. The Figure 17 speedup series is the same
//! measurement normalised to the single-node time.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbit::ExecStrategy;
use pipeline::{NodePool, Tracker};
use vdx_bench::catalog_workload;

fn tracked_ids(catalog: &datastore::Catalog, count: usize) -> Vec<u64> {
    let last = *catalog.steps().last().unwrap();
    let ds = catalog.load(last, Some(&["px", "id"]), false).unwrap();
    let px = ds.table().float_column("px").unwrap();
    let ids = ds.table().id_column("id").unwrap();
    let mut order: Vec<usize> = (0..px.len()).collect();
    order.sort_by(|&a, &b| px[b].partial_cmp(&px[a]).unwrap());
    order.iter().take(count).map(|&r| ids[r]).collect()
}

fn bench_parallel_tracking(c: &mut Criterion) {
    let (catalog, _dir) = catalog_workload("bench_fig16", 10_000, 6);
    let ids = tracked_ids(&catalog, 500);
    let mut group = c.benchmark_group("fig16_parallel_tracking");
    for nodes in [1usize, 2] {
        let pool = NodePool::new(nodes);
        group.bench_with_input(BenchmarkId::new("fastbit", nodes), &pool, |b, pool| {
            b.iter(|| {
                Tracker::new(ExecStrategy::Auto)
                    .track(&catalog, &ids, pool)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("custom", nodes), &pool, |b, pool| {
            b.iter(|| {
                Tracker::new(ExecStrategy::ScanOnly)
                    .track(&catalog, &ids, pool)
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
    targets = bench_parallel_tracking
}
criterion_main!(benches);
