//! A laptop-scale rerun of the paper's Section V-C scalability study
//! (Figures 14–17): parallel histogram computation and parallel particle
//! tracking over a catalog of timestep files, swept over worker ("node")
//! counts, for both the FastBit (indexed) and Custom (scanning) engines.
//!
//! Run with:
//! ```text
//! cargo run --release --example scaling_study [-- <particles_per_step> <timesteps>]
//! ```

use std::time::Instant;

use vdx_core::prelude::*;

fn main() -> vdx_core::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let particles: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(50_000);
    let timesteps: usize = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(24);
    if particles == 0 || timesteps == 0 {
        eprintln!("scaling_study: {particles} particles x {timesteps} timesteps is empty");
        std::process::exit(2);
    }

    let out_dir = std::env::temp_dir().join("vdx-scaling-study");
    // Start from an empty directory: files an earlier build left there
    // would otherwise sit beside the new ones.
    std::fs::remove_dir_all(&out_dir).ok();
    println!("== generating scaling catalog: {timesteps} timesteps x {particles} particles ==");
    let sim = SimConfig::scaling(particles, timesteps);
    let gen_start = Instant::now();
    let explorer = DataExplorer::generate(&out_dir, sim.clone(), ExplorerConfig::default())?;
    println!(
        "   generated + indexed in {:.1} s, {:.1} MB on disk",
        gen_start.elapsed().as_secs_f64(),
        explorer.catalog().total_size_bytes()? as f64 / 1e6
    );

    // The paper computes five histogram pairs of the position and momentum
    // fields at 1024x1024 bins with a px > 7e10 condition, and tracks ~500
    // particles selected with px > 1e11.
    let pairs = vec![
        ("x", "px"),
        ("y", "py"),
        ("z", "pz"),
        ("x", "y"),
        ("px", "py"),
    ];
    let bins = 1024;
    let cond_threshold = lwfa::physics::suggested_beam_threshold(&sim, timesteps - 1);
    let condition = QueryExpr::pred("px", ValueRange::gt(cond_threshold));
    let last = timesteps - 1;
    let mut track_sel = explorer.select(last, &format!("px > {:e}", cond_threshold * 1.2))?;
    if track_sel.ids.is_empty() {
        // A short run ends before a beam is injected: track the fastest
        // particles of the last timestep instead, the top px bins holding
        // at least 500 of them.
        let hist = explorer.histogram1d(last, "px", 1024, None)?;
        let mut held = 0;
        let top = (0..hist.num_bins())
            .rev()
            .find(|&i| {
                held += hist.count(i);
                held >= 500
            })
            .unwrap_or(0);
        let floor = hist.edges().bin_range(top).0;
        track_sel = explorer.select(last, &format!("px >= {floor:e}"))?;
    }
    if track_sel.ids.is_empty() {
        eprintln!(
            "scaling_study: no particle to track at {particles} particles x {timesteps} timesteps"
        );
        std::process::exit(1);
    }
    println!("   tracking set: {} particles", track_sel.ids.len());

    let node_counts = [1usize, 2, 4, 8];
    println!("\n-- Figures 14/15: parallel histogram computation ({bins}x{bins} bins, 5 pairs) --");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "nodes", "fb_uncond", "cu_uncond", "fb_cond", "cu_cond"
    );
    let mut rows = Vec::with_capacity(node_counts.len());
    for &nodes in &node_counts {
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
            let out = stage.run(explorer.catalog(), nodes)?;
            row[i] = out.elapsed.as_secs_f64();
        }
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            nodes, row[0], row[1], row[2], row[3]
        );
        rows.push(row);
    }
    println!("   Figure 15 speedup over 1 node (ideal = number of nodes):");
    let base = rows[0];
    for (&nodes, row) in node_counts.iter().zip(&rows) {
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            nodes,
            base[0] / row[0],
            base[1] / row[1],
            base[2] / row[2],
            base[3] / row[3]
        );
    }

    println!(
        "\n-- Figures 16/17: parallel particle tracking ({} ids) --",
        track_sel.ids.len()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "nodes", "fastbit_s", "custom_s", "speedup_fb"
    );
    let mut fb_one = None;
    for &nodes in &node_counts {
        let fb =
            Tracker::new(ExecStrategy::Auto).track(explorer.catalog(), &track_sel.ids, nodes)?;
        let cu = Tracker::new(ExecStrategy::ScanOnly).track(
            explorer.catalog(),
            &track_sel.ids,
            nodes,
        )?;
        let fb_s = fb.elapsed.as_secs_f64();
        if fb_one.is_none() {
            fb_one = Some(fb_s);
        }
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>10.2}",
            nodes,
            fb_s,
            cu.elapsed.as_secs_f64(),
            fb_one.unwrap() / fb_s
        );
    }
    println!("\ndone");
    Ok(())
}
