//! The paper's Section IV use case, end to end.
//!
//! Reproduces the analysis workflow on the synthetic 2D dataset (or the 3D
//! preset with `--3d`):
//!
//! 1. **Beam selection** (Fig. 5): threshold `px` at the final timestep.
//! 2. **Beam assessment** (Fig. 5): compare momentum at the dephasing time
//!    versus the final time, showing that the first beam outruns the wave and
//!    decelerates.
//! 3. **Beam formation** (Figs. 6–7): trace the beam back to its injection
//!    timesteps.
//! 4. **Beam refinement** (Fig. 8): apply an additional `x` threshold at the
//!    injection time to isolate the first wake period, and compare the
//!    refined traces with the full beam.
//! 5. **Beam evolution** (Fig. 9): temporal parallel coordinates of the beam
//!    over the injection-to-acceleration timesteps.
//!
//! Run with:
//! ```text
//! cargo run --release --example beam_analysis [-- --3d] [-- --particles N]
//! ```

use vdx_core::prelude::*;

fn main() -> vdx_core::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let three_d = args.iter().any(|a| a == "--3d");
    let particles = args
        .iter()
        .position(|a| a == "--particles")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(40_000);

    let (sim, tag) = if three_d {
        (SimConfig::paper_3d(particles), "3d")
    } else {
        (SimConfig::paper_2d(particles), "2d")
    };
    let out_dir = std::env::temp_dir().join(format!("vdx-beam-analysis-{tag}"));
    // Start from an empty directory: files an earlier build left there
    // would otherwise sit beside the new ones.
    std::fs::remove_dir_all(&out_dir).ok();
    let image_dir = std::path::PathBuf::from("target/vdx-examples");
    std::fs::create_dir_all(&image_dir)?;

    println!("== generating {tag} dataset ({particles} particles/step) ==");
    let explorer = DataExplorer::generate(&out_dir, sim.clone(), ExplorerConfig::default())?;
    let steps = explorer.steps();
    let last = *steps.last().expect("catalog not empty");

    // --- 1. Beam selection --------------------------------------------------
    let threshold = lwfa::physics::suggested_beam_threshold(&sim, last);
    let selection_query = format!("px > {threshold:e}");
    let beam = explorer.select(last, &selection_query)?;
    println!(
        "beam selection at t={last}: `{selection_query}` -> {} particles",
        beam.ids.len()
    );
    let axes: Vec<&str> = if three_d {
        vec!["x", "y", "z", "px", "py", "pz", "xrel"]
    } else {
        vec!["x", "y", "px", "py", "xrel"]
    };
    let img = explorer.render_focus_context(last, &axes, 256, Some(&selection_query), 0.8)?;
    explorer.save_image(&img, &image_dir.join(format!("beam_selection_{tag}.ppm")))?;

    // --- 2. Beam assessment: acceleration then dephasing ---------------------
    let stats = explorer.beam_statistics(&beam.ids)?;
    let peak = stats
        .iter()
        .max_by(|a, b| a.mean_px.partial_cmp(&b.mean_px).unwrap())
        .expect("non-empty statistics");
    let final_stat = stats.last().expect("non-empty statistics");
    println!(
        "beam assessment: peak mean px {:.3e} at t={}, final mean px {:.3e} at t={}",
        peak.mean_px, peak.step, final_stat.mean_px, final_stat.step
    );
    if peak.step < final_stat.step {
        println!(
            "  -> the beam outran the wave and decelerated after t={}",
            peak.step
        );
    }

    // --- 3. Beam formation: trace back to injection ---------------------------
    let tracks = explorer.track(&beam.ids)?;
    let first_seen: Vec<usize> = tracks
        .traces
        .iter()
        .filter_map(|t| t.first_step())
        .collect();
    let injection = first_seen.iter().copied().min().unwrap_or(0);
    println!(
        "beam formation: traced {} particles; earliest appearance at t={injection}",
        tracks.traces.len()
    );

    // --- 4. Beam refinement ---------------------------------------------------
    let refine_step = sim.beam1_injection_step + 1;
    let (bucket1_lo, _) = sim.bucket_range(refine_step, 1);
    let refine_query = format!("x > {bucket1_lo:e}");
    let refined = explorer.refine(&beam, refine_step, &refine_query)?;
    println!(
        "beam refinement at t={refine_step}: `{refine_query}` keeps {}/{} particles (first wake period)",
        refined.ids.len(),
        beam.ids.len()
    );
    let refined_stats = explorer.beam_statistics(&refined.ids)?;
    if let (Some(all_last), Some(ref_last)) = (stats.last(), refined_stats.last()) {
        println!(
            "  transverse spread at t={}: full beam {:.3e}, refined subset {:.3e}",
            all_last.step, all_last.y_spread, ref_last.y_spread
        );
    }

    // --- 5. Beam evolution: temporal parallel coordinates ---------------------
    let evo_start = sim.beam2_injection_step.min(sim.beam1_injection_step);
    let evo_steps: Vec<usize> = (evo_start..(evo_start + 9).min(steps.len())).collect();
    let temporal =
        explorer.render_temporal(&beam.ids, &evo_steps, &["x", "xrel", "px", "py"], 128, 0.9)?;
    explorer.save_image(
        &temporal,
        &image_dir.join(format!("beam_evolution_{tag}.ppm")),
    )?;
    println!(
        "beam evolution: temporal parallel coordinates over t={}..{} written to target/vdx-examples/",
        evo_steps.first().unwrap(),
        evo_steps.last().unwrap()
    );

    println!("done; images are in target/vdx-examples/");
    Ok(())
}
