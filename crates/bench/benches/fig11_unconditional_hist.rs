//! Figure 11: serial computation of unconditional 2D histograms as a function
//! of the number of bins, comparing the index-backed (FastBit) path — uniform
//! and adaptive — against the scanning Custom baseline.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fastbit::{BinSpec, ExecStrategy, HistogramEngine};
use vdx_bench::serial_dataset;

fn bench_unconditional(c: &mut Criterion) {
    let dataset = serial_dataset(60_000);
    let engine = HistogramEngine::new(&dataset);
    let mut group = c.benchmark_group("fig11_unconditional_hist2d");
    for bins in [64usize, 256, 1024] {
        group.bench_with_input(
            BenchmarkId::new("fastbit_regular", bins),
            &bins,
            |b, &bins| {
                b.iter(|| {
                    engine
                        .hist2d(
                            "x",
                            "px",
                            &BinSpec::Uniform(bins),
                            &BinSpec::Uniform(bins),
                            None,
                            ExecStrategy::Auto,
                        )
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fastbit_adaptive", bins),
            &bins,
            |b, &bins| {
                b.iter(|| {
                    engine
                        .hist2d(
                            "x",
                            "px",
                            &BinSpec::Adaptive(bins),
                            &BinSpec::Adaptive(bins),
                            None,
                            ExecStrategy::Auto,
                        )
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("custom_regular", bins),
            &bins,
            |b, &bins| {
                b.iter(|| {
                    engine
                        .hist2d(
                            "x",
                            "px",
                            &BinSpec::Uniform(bins),
                            &BinSpec::Uniform(bins),
                            None,
                            ExecStrategy::ScanOnly,
                        )
                        .unwrap()
                })
            },
        );
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
    targets = bench_unconditional
}
criterion_main!(benches);
