//! Cross-crate integration tests: data generation → storage → indexing →
//! query → histogram → pipeline → rendering, exercised through the public
//! API only.

use vdx_core::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vdx_integration_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn build_explorer(tag: &str, particles: usize, steps: usize) -> (DataExplorer, std::path::PathBuf) {
    let dir = temp_dir(tag);
    let mut sim = SimConfig::tiny();
    sim.particles_per_step = particles;
    sim.num_timesteps = steps;
    let config = ExplorerConfig {
        index_binning: Binning::EqualWidth { bins: 64 },
        ..Default::default()
    };
    let explorer = DataExplorer::generate(&dir, sim, config).unwrap();
    (explorer, dir)
}

#[test]
fn end_to_end_generation_storage_and_reopen() {
    let (explorer, dir) = build_explorer("reopen", 1200, 12);
    let steps = explorer.steps();
    assert_eq!(steps.len(), 12);
    let size = explorer.catalog().total_size_bytes().unwrap();
    assert!(size > 0);

    // Every timestep carries the standard columns, bitmap indexes and an
    // identifier index after the preprocessing step.
    for &step in &steps {
        let ds = explorer.catalog().load(step, None, true).unwrap();
        for col in datastore::STANDARD_COLUMNS {
            assert!(
                ds.table().column(col).is_some(),
                "missing column {col} at step {step}"
            );
        }
        assert!(
            !ds.indexed_columns().is_empty(),
            "missing indexes at step {step}"
        );
        assert!(ds.id_index().is_some(), "missing id index at step {step}");
    }

    // Reopen from disk and compare a query result.
    let q = "px > 1e10 && y > 0";
    let before = explorer.select(11, q).unwrap();
    drop(explorer);
    let reopened = DataExplorer::open(&dir, ExplorerConfig::default()).unwrap();
    let after = reopened.select(11, q).unwrap();
    assert_eq!(before.ids, after.ids);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn indexed_and_scanned_queries_agree_across_the_whole_catalog() {
    let (explorer, dir) = build_explorer("engines", 900, 10);
    let queries = [
        "px > 5e9",
        "px > 1e10 && y > 0",
        "px > 2e10 || py < -1e8",
        "xrel > -5e-5 && px > 1e9",
        "!(px <= 1e10)",
    ];
    for &step in &explorer.steps() {
        let ds = explorer.catalog().load(step, None, true).unwrap();
        for q in &queries {
            let expr = parse_query(q).unwrap();
            let indexed =
                fastbit::testing::evaluate_with_strategy(&expr, &ds, fastbit::ExecStrategy::Auto)
                    .unwrap();
            let scanned = fastbit::testing::evaluate_with_strategy(
                &expr,
                &ds,
                fastbit::ExecStrategy::ScanOnly,
            )
            .unwrap();
            assert_eq!(
                indexed.to_rows(),
                scanned.to_rows(),
                "engines disagree for `{q}` at step {step}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn conditional_histograms_match_between_engines_and_respect_hits() {
    let (explorer, dir) = build_explorer("hists", 1500, 8);
    let condition = "px > 8e9";
    for engine in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
        let stage = HistogramStage::new(vec![("x", "px"), ("y", "py")], 128)
            .with_engine(engine)
            .with_condition(parse_query(condition).unwrap());
        let out = stage.run(explorer.catalog(), 3).unwrap();
        for t in &out.per_timestep {
            let hits = t.hits.unwrap();
            assert_eq!(t.hists[0].total(), hits);
            assert_eq!(t.hists[1].total(), hits);
        }
    }
    // The two engines agree on total hit counts.
    let fast = HistogramStage::new(vec![("x", "px")], 64)
        .with_engine(ExecStrategy::Auto)
        .with_condition(parse_query(condition).unwrap())
        .run(explorer.catalog(), 2)
        .unwrap();
    let custom = HistogramStage::new(vec![("x", "px")], 64)
        .with_engine(ExecStrategy::ScanOnly)
        .with_condition(parse_query(condition).unwrap())
        .run(explorer.catalog(), 2)
        .unwrap();
    assert_eq!(fast.total_hits(), custom.total_hits());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracking_agrees_between_engines_and_node_counts() {
    let (explorer, dir) = build_explorer("tracking", 800, 18);
    let beam = explorer.select(17, "px > 1e10").unwrap();
    assert!(!beam.ids.is_empty());

    let reference = Tracker::new(ExecStrategy::Auto)
        .track(explorer.catalog(), &beam.ids, 1)
        .unwrap();
    for engine in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
        for nodes in [2usize, 5] {
            let out = Tracker::new(engine)
                .track(explorer.catalog(), &beam.ids, nodes)
                .unwrap();
            assert_eq!(out.total_hits(), reference.total_hits());
            assert_eq!(out.traces.len(), reference.traces.len());
            for (a, b) in out.traces.iter().zip(reference.traces.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.points.len(), b.points.len());
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rendering_cost_is_driven_by_bins_not_records() {
    let (explorer, dir) = build_explorer("render", 2500, 6);
    let axes = ["x", "px", "y", "py"];
    // Two renderings of the same data at different bin counts must both
    // produce content; the low-resolution one aggregates into fewer, denser
    // quads.
    let hi = explorer
        .render_focus_context(5, &axes, 256, None, 1.0)
        .unwrap();
    let lo = explorer
        .render_focus_context(5, &axes, 16, None, 1.0)
        .unwrap();
    assert!(hi.coverage(Rgba::BLACK) > 0.01);
    assert!(lo.coverage(Rgba::BLACK) > 0.01);

    // The number of quads (non-empty bins) is bounded by bins^2 regardless of
    // the record count.
    let hists = explorer.axis_histograms(5, &axes, 16, None, false).unwrap();
    for h in &hists {
        assert!(h.non_empty_count() <= 16 * 16);
        assert_eq!(
            h.total(),
            explorer
                .catalog()
                .load(5, None, false)
                .unwrap()
                .num_particles() as u64
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_files_are_smaller_than_data_and_answer_queries_alone() {
    let (explorer, dir) = build_explorer("indexsize", 2000, 4);
    for step in explorer.catalog().steps() {
        let ds = explorer.catalog().load(step, None, true).unwrap();
        let (data, index) = (ds.table().byte_len(), ds.index_size_bytes());
        // WAH-compressed bitmap indexes stay well below the raw column data
        // (the paper reports roughly 2 GB of index for 5 GB of data).
        assert!(
            index < data * 2,
            "index unexpectedly large: {index} bytes vs {data} bytes of data"
        );
    }
    // A query whose bounds line up with index bin boundaries is answered
    // exactly from the index without touching the raw column.
    let ds = explorer.catalog().load(0, Some(&["px"]), true).unwrap();
    let idx = fastbit::ColumnProvider::index(&ds, "px").unwrap();
    let lo = idx.edges().boundaries()[idx.num_bins() / 2];
    let range = ValueRange::ge(lo);
    assert!(idx.answers_exactly(&range));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn selection_extraction_round_trips_through_tables() {
    let (explorer, dir) = build_explorer("extract", 700, 5);
    let ds = explorer.catalog().load(4, None, true).unwrap();
    let sel = ds.query_str("px > 5e9 && y > 0").unwrap();
    let extracted = ds.extract(&sel);
    assert_eq!(extracted.num_rows() as u64, sel.count());
    let px = extracted.float_column("px").unwrap();
    let y = extracted.float_column("y").unwrap();
    assert!(px.iter().all(|&v| v > 5e9));
    assert!(y.iter().all(|&v| v > 0.0));
    // The extracted subset can be encoded and decoded as its own table.
    let subset = datastore::Dataset::from_table(extracted.clone(), 4);
    let bytes = datastore::store::encode_segment(&subset);
    let back = datastore::store::decode_segment(&bytes).unwrap();
    let back = back.table();
    assert_eq!(back.num_rows(), extracted.num_rows());
    assert_eq!(back.float_column("px").unwrap(), px);
    std::fs::remove_dir_all(&dir).ok();
}
