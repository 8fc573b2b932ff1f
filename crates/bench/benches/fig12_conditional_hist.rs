//! Figure 12: serial computation of conditional 2D histograms (1024×1024
//! bins) as a function of the number of hits. FastBit evaluates the condition
//! through the bitmap index and bins only the hits; Custom scans every record.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbit::{BinSpec, ExecStrategy, HistogramEngine, QueryExpr, ValueRange};
use vdx_bench::{serial_dataset, threshold_for_hits};

fn bench_conditional(c: &mut Criterion) {
    let dataset = serial_dataset(60_000);
    let engine = HistogramEngine::new(&dataset);
    let bins = 1024usize;
    let mut group = c.benchmark_group("fig12_conditional_hist2d");
    for target_hits in [100usize, 5_000, 30_000] {
        let threshold = threshold_for_hits(&dataset, target_hits);
        let cond = QueryExpr::pred("px", ValueRange::gt(threshold));
        let hits = engine
            .evaluate_condition(&cond, ExecStrategy::Auto)
            .unwrap()
            .count();
        group.bench_with_input(BenchmarkId::new("fastbit", hits), &cond, |b, cond| {
            b.iter(|| {
                engine
                    .hist2d(
                        "x",
                        "px",
                        &BinSpec::Uniform(bins),
                        &BinSpec::Uniform(bins),
                        Some(cond),
                        ExecStrategy::Auto,
                    )
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("custom", hits), &cond, |b, cond| {
            b.iter(|| {
                engine
                    .hist2d(
                        "x",
                        "px",
                        &BinSpec::Uniform(bins),
                        &BinSpec::Uniform(bins),
                        Some(cond),
                        ExecStrategy::ScanOnly,
                    )
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
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_conditional
}
criterion_main!(benches);
