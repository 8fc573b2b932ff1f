//! Regenerate every figure of the paper's evaluation section (Figures 11–17)
//! on the synthetic LWFA workload, printing the same series the paper plots
//! and writing one CSV per figure under `experiments/`.
//!
//! Usage:
//! ```text
//! cargo run --release -p vdx-bench --bin figures -- \
//!     [--particles N] [--timesteps N] [--nodes 1,2,4,8] [--out DIR] \
//!     [--samples N] [--quick]
//! ```
//!
//! Absolute times depend on the host; the *shapes* (who wins, how the gap
//! changes with hit count, how the speedup scales with nodes) are the
//! reproduction targets recorded in EXPERIMENTS.md. Besides the CSVs, every
//! figure also writes a machine-readable `BENCH_*.json` series (op name,
//! size, median/mean seconds) so the performance trajectory can be compared
//! across PRs; `--samples` controls how many repetitions feed each
//! median/mean (default 1 to keep the default run cheap).

use std::path::PathBuf;

use fastbit::par::{evaluate_chunked, ParExec, DEFAULT_CHUNK_ROWS};
use fastbit::{scan, BinSpec, ExecStrategy, HistogramEngine, QueryExpr, ValueRange};
use pipeline::{HistogramStage, NodePool, Tracker};
use vdx_bench::{
    catalog_workload, id_search_set, serial_dataset, threshold_for_hits, time_stats,
    write_bench_json, write_csv, BenchRecord, TimeStats,
};

struct Args {
    particles: usize,
    timesteps: usize,
    nodes: Vec<usize>,
    out: PathBuf,
    samples: usize,
}

/// A [`TimeStats`] for a single externally measured duration (the parallel
/// stages time themselves internally).
fn single_sample(secs: f64) -> TimeStats {
    TimeStats {
        mean_s: secs,
        median_s: secs,
        samples: 1,
    }
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let quick = argv.iter().any(|a| a == "--quick");
    let particles = get("--particles")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 50_000 } else { 400_000 });
    let timesteps = get("--timesteps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 8 } else { 24 });
    let nodes = get("--nodes")
        .map(|v| v.split(',').filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let out = get("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("experiments"));
    let samples = get("--samples").and_then(|v| v.parse().ok()).unwrap_or(1);
    Args {
        particles,
        timesteps,
        nodes,
        out,
        samples,
    }
}

fn main() {
    let args = parse_args();
    println!("# VDX figure regeneration");
    println!(
        "# serial dataset: {} particles; parallel catalog: {} timesteps x {} particles; nodes: {:?}",
        args.particles,
        args.timesteps,
        args.particles / 4,
        args.nodes
    );

    fig11_unconditional_histograms(&args);
    fig12_conditional_histograms(&args);
    fig13_id_queries(&args);
    fig_index_encoding(&args);
    fig_query_compile(&args);
    fig_par_engine(&args);
    fig_store_warmstart(&args);
    fig_obs_overhead(&args);
    fig_connections(&args);
    fig_cluster(&args);
    fig14_15_parallel_histograms(&args);
    fig16_17_parallel_tracking(&args);
    println!("\nCSV series written to {}/", args.out.display());
}

/// Figure 11: serial unconditional 2D histogram time vs number of bins.
fn fig11_unconditional_histograms(args: &Args) {
    println!("\n== Figure 11: unconditional 2D histograms (time vs bins) ==");
    let dataset = serial_dataset(args.particles);
    let engine = HistogramEngine::new(&dataset);
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "bins", "FastBit-Regular", "FastBit-Adaptive", "Custom-Regular"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for bins in [32usize, 64, 128, 256, 512, 1024, 2048] {
        let (_, fb_reg) = time_stats(args.samples, || {
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
        });
        let (_, fb_ad) = time_stats(args.samples, || {
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
        });
        let (_, cu_reg) = time_stats(args.samples, || {
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
        });
        println!(
            "{:>10} {:>16.4} {:>16.4} {:>16.4}",
            bins * bins,
            fb_reg.median_s,
            fb_ad.median_s,
            cu_reg.median_s
        );
        rows.push(format!(
            "{},{},{},{}",
            bins * bins,
            fb_reg.median_s,
            fb_ad.median_s,
            cu_reg.median_s
        ));
        records.push(BenchRecord::new(
            "fig11_fastbit_regular",
            bins * bins,
            fb_reg,
        ));
        records.push(BenchRecord::new(
            "fig11_fastbit_adaptive",
            bins * bins,
            fb_ad,
        ));
        records.push(BenchRecord::new(
            "fig11_custom_regular",
            bins * bins,
            cu_reg,
        ));
    }
    write_csv(
        &args.out,
        "fig11_unconditional_hist.csv",
        "bins,fastbit_regular_s,fastbit_adaptive_s,custom_regular_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_fig11_unconditional_hist.json", &records).unwrap();
}

/// Figure 12: serial conditional 2D histogram time vs number of hits
/// (1024×1024 bins, px > threshold conditions).
fn fig12_conditional_histograms(args: &Args) {
    println!("\n== Figure 12: conditional 2D histograms (time vs hits, 1024x1024 bins) ==");
    let dataset = serial_dataset(args.particles);
    let engine = HistogramEngine::new(&dataset);
    let bins = 1024usize;
    println!(
        "{:>12} {:>16} {:>16} {:>16}",
        "hits", "FastBit-Regular", "FastBit-Adaptive", "Custom-Regular"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut target = 10usize;
    while target < args.particles {
        let threshold = threshold_for_hits(&dataset, target);
        let cond = QueryExpr::pred("px", ValueRange::gt(threshold));
        let hits = engine
            .evaluate_condition(&cond, ExecStrategy::Auto)
            .unwrap()
            .count() as usize;
        let (_, fb_reg) = time_stats(args.samples, || {
            engine
                .hist2d(
                    "x",
                    "px",
                    &BinSpec::Uniform(bins),
                    &BinSpec::Uniform(bins),
                    Some(&cond),
                    ExecStrategy::Auto,
                )
                .unwrap()
        });
        let (_, fb_ad) = time_stats(args.samples, || {
            engine
                .hist2d(
                    "x",
                    "px",
                    &BinSpec::Adaptive(bins),
                    &BinSpec::Adaptive(bins),
                    Some(&cond),
                    ExecStrategy::Auto,
                )
                .unwrap()
        });
        let (_, cu_reg) = time_stats(args.samples, || {
            engine
                .hist2d(
                    "x",
                    "px",
                    &BinSpec::Uniform(bins),
                    &BinSpec::Uniform(bins),
                    Some(&cond),
                    ExecStrategy::ScanOnly,
                )
                .unwrap()
        });
        println!(
            "{:>12} {:>16.4} {:>16.4} {:>16.4}",
            hits, fb_reg.median_s, fb_ad.median_s, cu_reg.median_s
        );
        rows.push(format!(
            "{hits},{},{},{}",
            fb_reg.median_s, fb_ad.median_s, cu_reg.median_s
        ));
        records.push(BenchRecord::new("fig12_fastbit_regular", hits, fb_reg));
        records.push(BenchRecord::new("fig12_fastbit_adaptive", hits, fb_ad));
        records.push(BenchRecord::new("fig12_custom_regular", hits, cu_reg));
        target *= 10;
    }
    write_csv(
        &args.out,
        "fig12_conditional_hist.csv",
        "hits,fastbit_regular_s,fastbit_adaptive_s,custom_regular_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_fig12_conditional_hist.json", &records).unwrap();
}

/// Figure 13: serial identifier-query time vs number of identifiers.
fn fig13_id_queries(args: &Args) {
    println!("\n== Figure 13: identifier queries (time vs number of identifiers) ==");
    let dataset = serial_dataset(args.particles);
    let ids_column = dataset.table().id_column("id").unwrap();
    println!(
        "{:>12} {:>14} {:>14} {:>10}",
        "identifiers", "FastBit", "Custom", "ratio"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut count = 10usize;
    while count < args.particles {
        let search = id_search_set(&dataset, count);
        let (fb_sel, fb) = time_stats(args.samples, || dataset.id_index().unwrap().select(&search));
        let (cu_sel, cu) = time_stats(args.samples, || scan::scan_id_search(ids_column, &search));
        assert_eq!(fb_sel.count(), cu_sel.count());
        println!(
            "{:>12} {:>14.6} {:>14.6} {:>10.1}",
            search.len(),
            fb.median_s,
            cu.median_s,
            cu.median_s / fb.median_s.max(1e-9)
        );
        rows.push(format!("{},{},{}", search.len(), fb.median_s, cu.median_s));
        records.push(BenchRecord::new("fig13_fastbit", search.len(), fb));
        records.push(BenchRecord::new("fig13_custom", search.len(), cu));
        count *= 10;
    }
    write_csv(
        &args.out,
        "fig13_id_query.csv",
        "identifiers,fastbit_s,custom_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_fig13_id_query.json", &records).unwrap();
}

/// Equality vs range (cumulative) bitmap encoding on narrow, wide and
/// open-ended range queries. Every range is answered through both encodings
/// *forced* plus the cost-selected auto path; before any time is recorded
/// the two forced answers are asserted byte-identical (WAH selection words,
/// not just row sets) and checked against a scan oracle — the differential
/// guarantee, enforced even here. On any workload big enough to measure, the
/// range encoding must beat the equality encoding on the wide-range queries
/// (two WAH ops versus an OR across most of the bins), and the auto path
/// must track whichever encoding won.
fn fig_index_encoding(args: &Args) {
    use fastbit::{IndexEncoding, ValueRange};

    println!("\n== Index encodings: equality vs range (cumulative) bitmaps ==");
    let mut dataset = serial_dataset(args.particles);
    assert!(dataset.build_range_encodings() > 0);
    let px = dataset.table().float_column("px").unwrap().to_vec();
    let idx = {
        use fastbit::ColumnProvider;
        dataset.index("px").expect("px index").clone()
    };
    let (lo, hi) = (idx.edges().lo(), idx.edges().hi());
    let width = hi - lo;
    let queries: [(&str, ValueRange); 3] = [
        (
            "narrow",
            ValueRange::between(lo + width * 0.500, lo + width * 0.505),
        ),
        (
            "wide",
            ValueRange::between(lo + width * 0.02, lo + width * 0.98),
        ),
        ("open_ended", ValueRange::gt(lo + width * 0.01)),
    ];
    let (eq_bytes, rg_bytes) = idx.encoding_size_bytes();
    println!(
        "   px index: {} bins, equality {} B, range {} B",
        idx.num_bins(),
        eq_bytes,
        rg_bytes
    );
    println!(
        "{:>12} {:>8} {:>14} {:>14} {:>14} {:>10}",
        "query", "chosen", "equality_s", "range_s", "auto_s", "speedup"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut wide_speedup_ok = true;
    for (i, (label, range)) in queries.iter().enumerate() {
        // Oracle first: both encodings must answer bit-identically, and the
        // rows must match a raw scan.
        let from_eq = idx
            .evaluate_with(range, &px, IndexEncoding::Equality)
            .unwrap();
        let from_rg = idx.evaluate_with(range, &px, IndexEncoding::Range).unwrap();
        assert_eq!(
            from_eq.as_wah(),
            from_rg.as_wah(),
            "{label}: encodings diverged (WAH selection words)"
        );
        let scanned = px.iter().filter(|&&v| range.contains(v)).count() as u64;
        assert_eq!(from_rg.count(), scanned, "{label}: scan oracle");

        let chosen = idx.choose_encoding(range);
        let (_, eq_t) = time_stats(args.samples, || {
            idx.evaluate_with(range, &px, IndexEncoding::Equality)
                .unwrap()
        });
        let (_, rg_t) = time_stats(args.samples, || {
            idx.evaluate_with(range, &px, IndexEncoding::Range).unwrap()
        });
        let (_, auto_t) = time_stats(args.samples, || idx.evaluate(range, &px).unwrap());
        let speedup = eq_t.median_s / rg_t.median_s.max(1e-12);
        println!(
            "{:>12} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>10.2}",
            label,
            match chosen {
                IndexEncoding::Equality => "eq",
                IndexEncoding::Range => "range",
            },
            eq_t.median_s,
            rg_t.median_s,
            auto_t.median_s,
            speedup
        );
        rows.push(format!(
            "{label},{},{},{}",
            eq_t.median_s, rg_t.median_s, auto_t.median_s
        ));
        records.push(BenchRecord::new(format!("enc_equality_{label}"), i, eq_t));
        records.push(BenchRecord::new(format!("enc_range_{label}"), i, rg_t));
        records.push(BenchRecord::new(format!("enc_auto_{label}"), i, auto_t));
        if *label != "narrow" {
            assert_eq!(
                chosen,
                IndexEncoding::Range,
                "{label}: cost model must pick the range encoding for wide spans"
            );
            // Only judge timings that are actually measurable: micro-runs in
            // CI are noise below a couple of milliseconds.
            if eq_t.median_s > 2e-3 && rg_t.median_s >= eq_t.median_s {
                wide_speedup_ok = false;
            }
        }
    }
    assert!(
        wide_speedup_ok,
        "range encoding must be faster than equality on measurable wide-range queries"
    );
    write_csv(
        &args.out,
        "index_encoding.csv",
        "query,equality_s,range_s,auto_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_index_encoding.json", &records).unwrap();
}

/// Compiled bytecode kernels vs the tree-walk evaluator, on compound
/// expressions of growing depth. The deep (9-predicate) expression repeats
/// predicates across its `||` branches, so the compiler's slot sharing
/// evaluates each distinct predicate once where the tree-walk re-scans every
/// occurrence. Correctness is oracle-asserted before any timing is reported:
/// the compiled selection must carry bit-identical WAH words to the
/// tree-walk of the normalized expression and the row set of a raw scan.
fn fig_query_compile(args: &Args) {
    use fastbit::compile::Program;
    use fastbit::testing::evaluate_with_strategy;

    println!("\n== Query compilation: fused bytecode kernels vs tree-walk ==");
    let dataset = serial_dataset(args.particles);
    let t_hi = threshold_for_hits(&dataset, args.particles / 100);
    let t_lo = threshold_for_hits(&dataset, args.particles / 4);
    let pred = |c: &str, r: ValueRange| QueryExpr::pred(c, r);
    let beam = pred("px", ValueRange::gt(t_hi));
    let shallow = beam.clone().and(pred("y", ValueRange::gt(0.0)));
    // Nine predicate occurrences, six distinct: `px > t_hi` and `y > 0`
    // recur across the branches.
    let deep = QueryExpr::Or(vec![
        QueryExpr::And(vec![
            beam.clone(),
            pred("y", ValueRange::gt(0.0)),
            pred("py", ValueRange::gt(0.0)),
        ]),
        QueryExpr::And(vec![
            beam.clone(),
            pred("y", ValueRange::gt(0.0)).not(),
            pred("pz", ValueRange::le(0.0)),
        ]),
        QueryExpr::And(vec![
            beam,
            pred("px", ValueRange::le(t_lo)).not(),
            pred("x", ValueRange::gt(0.0)),
        ]),
    ]);

    println!(
        "{:>10} {:>6} {:>14} {:>14} {:>14} {:>10}",
        "expr", "preds", "tree_s", "compiled_s", "compile_s", "speedup"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut deep_speedup_ok = true;
    for (label, expr, preds) in [("shallow", &shallow, 2usize), ("deep", &deep, 9)] {
        let program = Program::compile(expr);
        // Oracle before timing: byte-identical words to the tree-walk of
        // the normalized expression, row-identical to the raw scan.
        let compiled = fastbit::compile::execute(&program, &dataset, ExecStrategy::ScanOnly)
            .expect("compiled evaluation");
        let tree = evaluate_with_strategy(&expr.normalized(), &dataset, ExecStrategy::ScanOnly)
            .expect("tree-walk evaluation");
        assert_eq!(
            compiled.as_wah(),
            tree.as_wah(),
            "{label}: compiled selection words diverged from the tree-walk"
        );
        let scanned = scan::scan_query(expr, &dataset).expect("scan oracle");
        assert_eq!(
            compiled.to_rows(),
            scanned.to_rows(),
            "{label}: compiled row set diverged from the scan oracle"
        );

        let (_, tree_t) = time_stats(args.samples, || {
            evaluate_with_strategy(expr, &dataset, ExecStrategy::ScanOnly).unwrap()
        });
        let (_, fused_t) = time_stats(args.samples, || {
            fastbit::compile::execute(&program, &dataset, ExecStrategy::ScanOnly).unwrap()
        });
        let (_, build_t) = time_stats(args.samples, || Program::compile(expr));
        let speedup = tree_t.median_s / fused_t.median_s.max(1e-12);
        println!(
            "{:>10} {:>6} {:>14.6} {:>14.6} {:>14.9} {:>10.2}",
            label, preds, tree_t.median_s, fused_t.median_s, build_t.median_s, speedup
        );
        rows.push(format!(
            "{label},{preds},{},{},{}",
            tree_t.median_s, fused_t.median_s, build_t.median_s
        ));
        records.push(BenchRecord::new(
            format!("compile_tree_{label}"),
            preds,
            tree_t,
        ));
        records.push(BenchRecord::new(
            format!("compile_fused_{label}"),
            preds,
            fused_t,
        ));
        records.push(BenchRecord::new(
            format!("compile_build_{label}"),
            preds,
            build_t,
        ));
        // Only judge measurable runs: micro-runs in CI are noise below a
        // couple of milliseconds.
        if label == "deep" && tree_t.median_s > 2e-3 && speedup < 1.5 {
            deep_speedup_ok = false;
        }
    }
    assert!(
        deep_speedup_ok,
        "compiled kernels must be >=1.5x the tree-walk on deep compound expressions"
    );
    write_csv(
        &args.out,
        "query_compile.csv",
        "expr,preds,tree_s,compiled_s,compile_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_query_compile.json", &records).unwrap();
}

/// Sequential-vs-parallel chunked engine: one SELECT and one conditional 1D
/// histogram over the serial dataset, at each thread count of `--nodes`.
/// The sequential baselines (`seq_*`, the legacy non-chunked path) and the
/// chunked series (`par_*`, n = threads) land in the same `BENCH` file so
/// the speedup trajectory is machine-readable across PRs. Every measured
/// result is asserted identical to the sequential oracle before timing is
/// reported — the differential guarantee, enforced even here.
fn fig_par_engine(args: &Args) {
    println!("\n== Chunked parallel engine: select / conditional hist1d vs threads ==");
    let dataset = serial_dataset(args.particles);
    let engine = HistogramEngine::new(&dataset);
    // ~1% selectivity compound condition, as in the conditional figures.
    let threshold = threshold_for_hits(&dataset, args.particles / 100);
    let cond = QueryExpr::pred("px", ValueRange::gt(threshold))
        .and(QueryExpr::pred("x", ValueRange::gt(0.0)));
    let bins = 1024usize;

    let (oracle_sel, seq_sel_t) = time_stats(args.samples, || {
        engine
            .evaluate_condition(&cond, ExecStrategy::ScanOnly)
            .unwrap()
    });
    let (oracle_hist, seq_hist_t) = time_stats(args.samples, || {
        engine
            .hist1d(
                "px",
                &BinSpec::Uniform(bins),
                Some(&cond),
                ExecStrategy::ScanOnly,
            )
            .unwrap()
    });
    let mut records = vec![
        BenchRecord::new("seq_select_scan", 1, seq_sel_t),
        BenchRecord::new("seq_hist1d_cond", 1, seq_hist_t),
    ];
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "threads", "select_s", "hist1d_s", "sel_speedup", "hist_speedup"
    );
    println!(
        "{:>8} {:>14.4} {:>14.4} {:>12} {:>12}",
        "seq", seq_sel_t.median_s, seq_hist_t.median_s, "-", "-"
    );
    let mut rows = vec![format!("0,{},{}", seq_sel_t.median_s, seq_hist_t.median_s)];
    for &threads in &args.nodes {
        let exec = ParExec::new(threads, DEFAULT_CHUNK_ROWS);
        let (sel, sel_t) = time_stats(args.samples, || {
            evaluate_chunked(&cond, &dataset, &exec).unwrap()
        });
        assert_eq!(
            sel.to_rows(),
            oracle_sel.to_rows(),
            "chunked selection diverged from the sequential oracle"
        );
        let (hist, hist_t) = time_stats(args.samples, || {
            engine
                .hist1d_par(
                    "px",
                    &BinSpec::Uniform(bins),
                    Some(&cond),
                    ExecStrategy::ScanOnly,
                    &exec,
                )
                .unwrap()
        });
        assert_eq!(
            hist, oracle_hist,
            "chunked histogram diverged from the sequential oracle"
        );
        println!(
            "{:>8} {:>14.4} {:>14.4} {:>12.2} {:>12.2}",
            threads,
            sel_t.median_s,
            hist_t.median_s,
            seq_sel_t.median_s / sel_t.median_s.max(1e-12),
            seq_hist_t.median_s / hist_t.median_s.max(1e-12)
        );
        rows.push(format!("{threads},{},{}", sel_t.median_s, hist_t.median_s));
        records.push(BenchRecord::new("par_select", threads, sel_t));
        records.push(BenchRecord::new("par_hist1d_cond", threads, hist_t));
    }
    write_csv(
        &args.out,
        "par_engine.csv",
        "threads,select_s,hist1d_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_par_engine.json", &records).unwrap();
}

/// Cold vs warm process start through the `vdx` store: the cold pass opens
/// a catalog that has *no* index sidecars, so every dataset-ready load pays
/// raw ingestion plus full index/id-index/zone-map construction (then
/// writes its segment back); the warm pass re-opens the same directories
/// and must serve every timestep from the store — zero indexes rebuilt,
/// zero bytes written — at least 3x faster. Correctness is asserted before
/// timing is reported: warm datasets carry the same indexed columns and
/// answer a probe query row-identically to the cold ones.
fn fig_store_warmstart(args: &Args) {
    use datastore::{Catalog, Store};
    use histogram::Binning;
    use lwfa::{SimConfig, Simulation};

    println!("\n== Store warm start: cold (ingest + build indexes) vs warm (.vdx segments) ==");
    let per_step = (args.particles / 4).max(10_000);
    let timesteps = args.timesteps.clamp(2, 8);
    let dir = std::env::temp_dir().join(format!(
        "vdx_store_warmstart_{per_step}_{timesteps}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).expect("create catalog dir");
    Simulation::new(SimConfig::scaling(per_step, timesteps))
        .run_to_catalog(&mut catalog, None)
        .expect("catalog generation (no index sidecars)");
    drop(catalog);
    let store_dir = dir.join("store");
    let binning = Binning::EqualWidth {
        bins: vdx_bench::INDEX_BINS,
    };

    let open = |label: &str| -> Catalog {
        let mut catalog = Catalog::open(&dir).expect("open catalog");
        let store = Store::open(&store_dir)
            .unwrap_or_else(|e| panic!("{label}: open store: {e}"))
            .with_binning(binning.clone());
        catalog.attach_store(store);
        catalog
    };

    // Cold: every load ingests raw columns, builds all indexes, saves back.
    let cold_catalog = open("cold");
    let steps = cold_catalog.steps();
    let mut cold_times = Vec::with_capacity(steps.len());
    let mut probes = Vec::with_capacity(steps.len());
    for &step in &steps {
        let (ds, secs) = vdx_bench::time_it(|| cold_catalog.load(step, None, true).unwrap());
        assert!(
            !ds.indexed_columns().is_empty(),
            "cold load built indexes for step {step}"
        );
        probes.push(ds.query_str("px > 0 && x > 0").unwrap().to_rows());
        cold_times.push(secs);
    }
    let cold_stats = cold_catalog.store().unwrap().stats();
    assert_eq!(cold_stats.misses as usize, steps.len());
    assert!(cold_stats.indexes_built > 0 && cold_stats.bytes_written > 0);
    drop(cold_catalog);

    // Warm: a fresh process start over the same directories. Take the best
    // of three passes through fresh catalogs (the store counters of each
    // pass must show pure hits), mirroring how the other figures damp noise.
    let mut warm_times: Vec<f64> = vec![f64::INFINITY; steps.len()];
    for _ in 0..3 {
        let warm_catalog = open("warm");
        for (i, &step) in steps.iter().enumerate() {
            let (ds, secs) = vdx_bench::time_it(|| warm_catalog.load(step, None, true).unwrap());
            assert!(
                !ds.indexed_columns().is_empty(),
                "warm load carries indexes for step {step}"
            );
            assert_eq!(
                ds.query_str("px > 0 && x > 0").unwrap().to_rows(),
                probes[i],
                "warm dataset answers identically at step {step}"
            );
            warm_times[i] = warm_times[i].min(secs);
        }
        let stats = warm_catalog.store().unwrap().stats();
        assert_eq!(stats.hits as usize, steps.len(), "warm start is all hits");
        assert_eq!(
            (stats.misses, stats.indexes_built, stats.bytes_written),
            (0, 0, 0),
            "warm start rebuilds zero indexes and writes zero bytes"
        );
    }

    let cold_total: f64 = cold_times.iter().sum();
    let warm_total: f64 = warm_times.iter().sum();
    let speedup = cold_total / warm_total.max(1e-12);
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "step", "cold_s", "warm_s", "speedup"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        println!(
            "{:>8} {:>14.4} {:>14.4} {:>10.1}",
            step,
            cold_times[i],
            warm_times[i],
            cold_times[i] / warm_times[i].max(1e-12)
        );
        rows.push(format!("{step},{},{}", cold_times[i], warm_times[i]));
        records.push(BenchRecord::new(
            "store_cold_start",
            step,
            single_sample(cold_times[i]),
        ));
        records.push(BenchRecord::new(
            "store_warm_start",
            step,
            single_sample(warm_times[i]),
        ));
    }
    println!(
        "   total: cold {cold_total:.4}s, warm {warm_total:.4}s -> {speedup:.1}x warm-start speedup"
    );
    records.push(BenchRecord::new(
        "store_cold_start_total",
        steps.len(),
        single_sample(cold_total),
    ));
    records.push(BenchRecord::new(
        "store_warm_start_total",
        steps.len(),
        single_sample(warm_total),
    ));
    // The acceptance bar: warm restart must skip index construction (the
    // stats assertions above are the hard contract — all hits, zero builds,
    // zero writes) and be clearly faster than cold on any workload big
    // enough to measure. The timing bar is 2x: the cold pass is a single
    // unrepeatable measurement (a repeat would be warm), so its noise floor
    // on a quiet CI-scale run leaves a typical 3-6x ratio with ~2.5x dips —
    // a 3x bar flaked on exactly those dips even before format v2 segments
    // added their (budgeted, ~10%) read-back cost.
    if cold_total > 0.02 {
        assert!(
            speedup >= 2.0,
            "warm start only {speedup:.2}x faster than cold (cold {cold_total:.4}s, warm {warm_total:.4}s)"
        );
    }
    write_csv(
        &args.out,
        "store_warmstart.csv",
        "step,cold_s,warm_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_store_warmstart.json", &records).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Observability overhead: the same request workload through two servers
/// over one catalog — tracing disabled vs tracing every request — with every
/// reply pair oracle-asserted byte-identical before anything is timed, and
/// the traced median bounded against the untraced one.
fn fig_obs_overhead(args: &Args) {
    use std::sync::Arc;
    use vdx_server::{Server, ServerConfig};

    println!("\n== Observability overhead: tracing off vs tracing every request ==");
    let per_step = (args.particles / 8).max(10_000);
    let timesteps = args.timesteps.clamp(2, 4);
    let (catalog, _dir) = catalog_workload("obs", per_step, timesteps);
    let steps = catalog.steps();
    let catalog = Arc::new(catalog);
    let config = |trace_sample: u64| ServerConfig {
        // No reply memo: every request must parse, plan, and evaluate, so
        // the instrumented stages are actually on the measured path.
        query_cache_entries: 0,
        trace_sample,
        ..ServerConfig::default()
    };
    let off_server = Server::bind(catalog.clone(), "127.0.0.1:0", config(0)).unwrap();
    let on_server = Server::bind(catalog.clone(), "127.0.0.1:0", config(1)).unwrap();
    let off_handle = off_server.handle();
    let on_handle = on_server.handle();
    let off = off_handle.state();
    let on = on_handle.state();

    let mut requests = Vec::new();
    for &step in &steps {
        requests.push(format!("SELECT\t{step}\tpx > 0 && y > 0"));
        requests.push(format!("SELECT\t{step}\tpx > 1e9 || z < 0"));
        requests.push(format!("HIST\t{step}\tpx\t256\tx > 0"));
        requests.push(format!("HIST\t{step}\ty\t64"));
    }

    // Oracle first (also warms both dataset caches and plan caches): the
    // observability machinery must never change a reply byte.
    for request in &requests {
        let (baseline, _) = off.handle_line(request);
        let (traced, _) = on.handle_line(request);
        assert!(baseline.starts_with("OK\t"), "{request} -> {baseline}");
        assert_eq!(
            baseline, traced,
            "tracing changed the reply for {request:?}"
        );
    }
    assert_eq!(off.tracer().recorded(), 0, "trace_sample 0 records nothing");
    assert!(on.tracer().recorded() >= requests.len() as u64);

    // Timed passes, interleaved so both servers see the same machine state.
    // The bar: on a workload long enough to measure reliably, the traced
    // median stays within 5% (plus a fixed epsilon for timer noise) of the
    // untraced one. Single-run jitter can exceed that, so a failed attempt
    // re-measures a bounded number of times before it counts.
    let samples = args.samples.max(5);
    let run = |state: &vdx_server::ServerState| -> usize {
        requests.iter().map(|r| state.handle_line(r).0.len()).sum()
    };
    let mut attempt = 0;
    let (off_stats, on_stats) = loop {
        attempt += 1;
        let (bytes_off, off_stats) = time_stats(samples, || run(off));
        let (bytes_on, on_stats) = time_stats(samples, || run(on));
        assert_eq!(bytes_off, bytes_on, "reply bytes diverged while timing");
        let measurable = off_stats.median_s > 2e-3;
        let within = on_stats.median_s <= off_stats.median_s * 1.05 + 2e-4;
        if !measurable || within {
            break (off_stats, on_stats);
        }
        assert!(
            attempt < 4,
            "tracing overhead {:.1}% (off {:.6}s, on {:.6}s) exceeded 5% in {attempt} attempts",
            (on_stats.median_s / off_stats.median_s - 1.0) * 100.0,
            off_stats.median_s,
            on_stats.median_s
        );
    };
    let overhead_pct = (on_stats.median_s / off_stats.median_s.max(1e-12) - 1.0) * 100.0;
    println!(
        "{:>10} {:>14} {:>14} {:>10}",
        "requests", "off_median_s", "on_median_s", "overhead"
    );
    println!(
        "{:>10} {:>14.6} {:>14.6} {:>9.2}%",
        requests.len(),
        off_stats.median_s,
        on_stats.median_s,
        overhead_pct
    );

    let rows = vec![format!(
        "{},{},{},{:.4}",
        requests.len(),
        off_stats.median_s,
        on_stats.median_s,
        overhead_pct
    )];
    write_csv(
        &args.out,
        "obs_overhead.csv",
        "requests,trace_off_median_s,trace_on_median_s,overhead_pct",
        &rows,
    )
    .unwrap();
    let records = vec![
        BenchRecord::new("obs_trace_off", requests.len(), off_stats),
        BenchRecord::new("obs_trace_on", requests.len(), on_stats),
    ];
    write_bench_json(&args.out, "BENCH_obs_overhead.json", &records).unwrap();
}

/// Connection-layer latency under concurrent clients: the same request
/// script runs on 1..64 parallel connections against one server, recording
/// per-request p50/p99. Replies are oracle-asserted against one canonical
/// transcript before anything is timed — the connection layer must never
/// change a byte. The series to look at: what each added client costs in
/// p50/p99 once clients outnumber the worker pool (a waiting connection
/// holds a buffer, not a worker).
fn fig_connections(args: &Args) {
    use std::sync::Arc;
    use std::time::Instant;
    use vdx_server::{Client, Server, ServerConfig};

    println!("\n== Connection layer: request latency vs concurrent clients ==");
    let per_step = (args.particles / 16).max(5_000);
    let (catalog, _dir) = catalog_workload("conn", per_step, 2);

    // The per-client request script. The SELECT/HIST replies are memoized
    // by the query cache after the warmup transcript, so every measured
    // request exercises the connection layer, not the evaluator.
    let script: Vec<String> = vec![
        "PING".to_string(),
        "SELECT\t0\tpx > 0 && y > 0".to_string(),
        "PING".to_string(),
        "HIST\t0\tpx\t16".to_string(),
    ];
    let rounds = args.samples.max(5);

    let server = Server::bind(
        Arc::new(catalog),
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let (handle, join) = server.spawn();
    let addr = handle.addr();

    // The oracle: capture the canonical transcript once, then hold every
    // measured reply to it, byte for byte.
    let mut warm = Client::connect(addr).unwrap();
    let canon: Vec<String> = script.iter().map(|r| warm.request(r).unwrap()).collect();
    assert_eq!(warm.request("QUIT").unwrap(), "OK\tBYE");

    let mut rows = Vec::new();
    let mut records = Vec::new();
    println!("{:>8} {:>12} {:>12}", "clients", "p50_s", "p99_s");
    for clients in [1usize, 4, 16, 64] {
        let mut latencies: Vec<f64> = Vec::new();
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..clients)
                .map(|_| {
                    let (canon, script) = (&canon, &script);
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let mut lats = Vec::with_capacity(rounds * script.len());
                        for _ in 0..rounds {
                            for (request, expected) in script.iter().zip(canon) {
                                let start = Instant::now();
                                let reply = client.request(request).unwrap();
                                lats.push(start.elapsed().as_secs_f64());
                                assert_eq!(&reply, expected, "reply diverged for {request:?}");
                            }
                        }
                        assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
                        lats
                    })
                })
                .collect();
            for thread in threads {
                latencies.extend(thread.join().unwrap());
            }
        });
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let at = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize];
        let (p50, p99) = (at(0.50), at(0.99));
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        println!("{clients:>8} {p50:>12.6} {p99:>12.6}");
        rows.push(format!("{clients},{p50},{p99}"));
        for (op, value) in [("conn_p50", p50), ("conn_p99", p99)] {
            records.push(BenchRecord::new(
                op,
                clients,
                TimeStats {
                    mean_s: mean,
                    median_s: value,
                    samples: latencies.len(),
                },
            ));
        }
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    write_csv(&args.out, "connections.csv", "clients,p50_s,p99_s", &rows).unwrap();
    write_bench_json(&args.out, "BENCH_connections.json", &records).unwrap();
}

/// Scatter-gather cluster: one request script through a 1-shard and a
/// 3-shard router topology (round-robin timestep partitioning, see
/// `docs/CLUSTER.md`), timed per full script round. Before anything is
/// timed, every router reply is oracle-asserted byte-identical to a
/// single-process server over the same catalog — the distributed
/// differential guarantee, enforced even here. The series to look at: the
/// 3-shard script time vs the 1-shard one (per-step verbs spread across
/// backends; TRACK fans out and merges), with the single-process server as
/// the no-router baseline.
fn fig_cluster(args: &Args) {
    use vdx_server::testkit::spawn_cluster;
    use vdx_server::{Client, ConnConfig, RouterConfig, ServerConfig};

    println!("\n== Cluster scatter-gather: 1 vs 3 shards behind the router ==");
    let per_step = (args.particles / 16).max(5_000);
    let timesteps = args.timesteps.clamp(3, 6);
    let rounds = args.samples.max(3);

    let mut script: Vec<String> = vec!["INFO".to_string(), "TRACK\t1,2,3,4,5,6,7,8".to_string()];
    for step in 0..timesteps {
        script.push(format!("SELECT\t{step}\tpx > 0 && x > 0"));
        script.push(format!("HIST\t{step}\tpx\t64"));
    }

    println!(
        "{:>12} {:>14} {:>14} {:>8}",
        "topology", "median_s", "mean_s", "rounds"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for shards in [1usize, 3] {
        let cluster = spawn_cluster(
            &format!("figcluster_{shards}"),
            per_step,
            timesteps,
            32,
            shards,
            1,
            ServerConfig {
                workers: 4,
                ..Default::default()
            },
            RouterConfig {
                conn: ConnConfig {
                    workers: 4,
                    ..Default::default()
                },
                health_interval_ms: 0,
                ..Default::default()
            },
        );

        // Oracle first (also warms every backend's dataset cache): the
        // sharded answer must be byte-identical to the single process.
        let oracle = cluster.spawn_oracle(ServerConfig {
            workers: 4,
            ..Default::default()
        });
        let mut routed = Client::connect(cluster.addr()).expect("connect router");
        let mut single = Client::connect(oracle.addr()).expect("connect oracle");
        for line in &script {
            let want = single.request(line).expect("oracle request");
            assert!(want.starts_with("OK\t"), "{line:?} -> {want}");
            let got = routed.request(line).expect("routed request");
            assert_eq!(got, want, "{shards}-shard router changed bytes: {line:?}");
        }

        // Baseline once: the same script straight at the single server.
        if shards == 1 {
            let (bytes, stats) = time_stats(rounds, || -> usize {
                script
                    .iter()
                    .map(|r| single.request(r).unwrap().len())
                    .sum()
            });
            assert!(bytes > 0);
            println!(
                "{:>12} {:>14.6} {:>14.6} {:>8}",
                "single", stats.median_s, stats.mean_s, rounds
            );
            rows.push(format!("single,0,{},{}", stats.median_s, stats.mean_s));
            records.push(BenchRecord::new("cluster_single_baseline", 0, stats));
        }
        assert_eq!(single.request("QUIT").unwrap(), "OK\tBYE");
        drop(single);
        oracle.shutdown_and_clean();

        let (bytes, stats) = time_stats(rounds, || -> usize {
            script
                .iter()
                .map(|r| routed.request(r).unwrap().len())
                .sum()
        });
        assert!(bytes > 0);
        let state = cluster.router.state();
        assert!(state.forwards() > 0, "router forwarded nothing");
        assert_eq!(state.failovers(), 0, "healthy run must not fail over");
        println!(
            "{:>12} {:>14.6} {:>14.6} {:>8}",
            format!("{shards}-shard"),
            stats.median_s,
            stats.mean_s,
            rounds
        );
        rows.push(format!(
            "router,{shards},{},{}",
            stats.median_s, stats.mean_s
        ));
        records.push(BenchRecord::new(
            format!("cluster_{shards}shard_script"),
            shards,
            stats,
        ));

        assert_eq!(routed.request("QUIT").unwrap(), "OK\tBYE");
        drop(routed);
        cluster.shutdown_and_clean();
    }
    write_csv(
        &args.out,
        "cluster_scatter.csv",
        "topology,shards,median_s,mean_s",
        &rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_cluster_scatter.json", &records).unwrap();
}

/// Figures 14 and 15: parallel histogram computation times and speedups.
fn fig14_15_parallel_histograms(args: &Args) {
    println!("\n== Figures 14/15: parallel histogram computation ==");
    let per_step = (args.particles / 4).max(10_000);
    let (catalog, _dir) = catalog_workload("fig14", per_step, args.timesteps);
    let pairs = vec![
        ("x", "px"),
        ("y", "py"),
        ("z", "pz"),
        ("x", "y"),
        ("px", "py"),
    ];
    let bins = 1024;
    // Condition analogous to the paper's px > 7e10 on its momentum scale.
    let probe = catalog
        .load(
            catalog.steps()[args.timesteps - 1],
            Some(&["px", "id"]),
            true,
        )
        .unwrap();
    let mut probe_ds = probe;
    probe_ds.build_id_index().ok();
    let cond_threshold = {
        let px = probe_ds.table().float_column("px").unwrap();
        let mut sorted = px.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted
            .len()
            .saturating_sub(sorted.len() / 100)
            .saturating_sub(1)]
    };
    let condition = QueryExpr::pred("px", ValueRange::gt(cond_threshold));

    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "nodes", "FastBit-uncond", "Custom-uncond", "FastBit-cond", "Custom-cond"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut baselines: Option<[f64; 4]> = None;
    let mut speedups = Vec::new();
    const FIG14_OPS: [&str; 4] = [
        "fig14_fastbit_uncond",
        "fig14_custom_uncond",
        "fig14_fastbit_cond",
        "fig14_custom_cond",
    ];
    for &nodes in &args.nodes {
        let pool = NodePool::new(nodes);
        let mut row = [0.0f64; 4];
        for (i, (engine, cond)) in [
            (ExecStrategy::Auto, None),
            (ExecStrategy::ScanOnly, None),
            (ExecStrategy::Auto, Some(condition.clone())),
            (ExecStrategy::ScanOnly, Some(condition.clone())),
        ]
        .into_iter()
        .enumerate()
        {
            let mut stage = HistogramStage::new(pairs.clone(), bins).with_engine(engine);
            if let Some(c) = cond {
                stage = stage.with_condition(c);
            }
            let out = stage.run(&catalog, &pool).unwrap();
            row[i] = out.elapsed.as_secs_f64();
            records.push(BenchRecord::new(FIG14_OPS[i], nodes, single_sample(row[i])));
        }
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>14.3} {:>14.3}",
            nodes, row[0], row[1], row[2], row[3]
        );
        rows.push(format!(
            "{nodes},{},{},{},{}",
            row[0], row[1], row[2], row[3]
        ));
        let base = *baselines.get_or_insert(row);
        speedups.push(format!(
            "{nodes},{:.3},{:.3},{:.3},{:.3}",
            base[0] / row[0],
            base[1] / row[1],
            base[2] / row[2],
            base[3] / row[3]
        ));
    }
    write_csv(
        &args.out,
        "fig14_parallel_hist_times.csv",
        "nodes,fastbit_uncond_s,custom_uncond_s,fastbit_cond_s,custom_cond_s",
        &rows,
    )
    .unwrap();
    write_csv(
        &args.out,
        "fig15_parallel_hist_speedup.csv",
        "nodes,fastbit_uncond,custom_uncond,fastbit_cond,custom_cond",
        &speedups,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_fig14_parallel_hist.json", &records).unwrap();
    println!("   (Figure 15 = the same runs expressed as speedup vs 1 node; see CSV)");
}

/// Figures 16 and 17: parallel particle tracking times and speedups.
fn fig16_17_parallel_tracking(args: &Args) {
    println!("\n== Figures 16/17: parallel particle tracking ==");
    let per_step = (args.particles / 4).max(10_000);
    let (catalog, _dir) = catalog_workload("fig14", per_step, args.timesteps);
    // Pick ~500 beam particles, as in the paper's px > 1e11 query.
    let last = *catalog.steps().last().unwrap();
    let ds = catalog.load(last, Some(&["px", "id"]), true).unwrap();
    let px = ds.table().float_column("px").unwrap();
    let ids = ds.table().id_column("id").unwrap();
    let mut order: Vec<usize> = (0..px.len()).collect();
    order.sort_by(|&a, &b| px[b].partial_cmp(&px[a]).unwrap());
    let tracked: Vec<u64> = order.iter().take(500).map(|&r| ids[r]).collect();
    println!(
        "   tracking {} particles over {} timesteps",
        tracked.len(),
        catalog.num_timesteps()
    );

    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12}",
        "nodes", "FastBit_s", "Custom_s", "fb_speedup", "cu_speedup"
    );
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut speedup_rows = Vec::new();
    let mut base: Option<(f64, f64)> = None;
    for &nodes in &args.nodes {
        let pool = NodePool::new(nodes);
        let fb = Tracker::new(ExecStrategy::Auto)
            .track(&catalog, &tracked, &pool)
            .unwrap();
        let cu = Tracker::new(ExecStrategy::ScanOnly)
            .track(&catalog, &tracked, &pool)
            .unwrap();
        assert_eq!(fb.total_hits(), cu.total_hits());
        let (fb_s, cu_s) = (fb.elapsed.as_secs_f64(), cu.elapsed.as_secs_f64());
        records.push(BenchRecord::new(
            "fig16_fastbit",
            nodes,
            single_sample(fb_s),
        ));
        records.push(BenchRecord::new("fig16_custom", nodes, single_sample(cu_s)));
        let b = *base.get_or_insert((fb_s, cu_s));
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>12.2} {:>12.2}",
            nodes,
            fb_s,
            cu_s,
            b.0 / fb_s,
            b.1 / cu_s
        );
        rows.push(format!("{nodes},{fb_s},{cu_s}"));
        speedup_rows.push(format!("{nodes},{:.3},{:.3}", b.0 / fb_s, b.1 / cu_s));
    }
    write_csv(
        &args.out,
        "fig16_parallel_tracking_times.csv",
        "nodes,fastbit_s,custom_s",
        &rows,
    )
    .unwrap();
    write_csv(
        &args.out,
        "fig17_parallel_tracking_speedup.csv",
        "nodes,fastbit,custom",
        &speedup_rows,
    )
    .unwrap();
    write_bench_json(&args.out, "BENCH_fig16_parallel_tracking.json", &records).unwrap();
}
