//! Quickstart: generate a small synthetic LWFA dataset, build indexes, make a
//! beam selection with a compound range query, trace the selected particles
//! through time and render a focus+context parallel-coordinates plot.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use vdx_core::prelude::*;

fn main() -> vdx_core::Result<()> {
    let out_dir = std::env::temp_dir().join("vdx-quickstart");
    // Start from an empty directory: files an earlier build left there
    // would otherwise sit beside the new ones.
    std::fs::remove_dir_all(&out_dir).ok();
    let image_dir = std::path::PathBuf::from("target/vdx-examples");
    std::fs::create_dir_all(&image_dir)?;

    // 1. Generate a tiny 2D laser-wakefield dataset (the paper's data is
    //    400k–177M particles per timestep; `tiny()` keeps the quickstart
    //    runnable in seconds) and build WAH bitmap indexes as the one-time
    //    preprocessing step.
    println!("generating synthetic LWFA dataset in {}", out_dir.display());
    let sim = SimConfig::tiny();
    let explorer = DataExplorer::generate(&out_dir, sim.clone(), ExplorerConfig::default())?;
    println!(
        "  {} timesteps, {:.1} MB on disk (data + indexes)",
        explorer.steps().len(),
        explorer.catalog().total_size_bytes()? as f64 / 1e6
    );

    // 2. Beam selection at the final timestep via a momentum threshold, the
    //    same kind of query the paper issues from the parallel-coordinates
    //    sliders (Figure 5: px > 8.872e10 on the full-scale data).
    let last = *explorer.steps().last().expect("non-empty catalog");
    let threshold = lwfa::physics::suggested_beam_threshold(&sim, last);
    let query = format!("px > {threshold:e}");
    let beam = explorer.select(last, &query)?;
    println!(
        "  query `{query}` at t={last} selected {} particles",
        beam.ids.len()
    );

    // 3. Particle tracking: trace the selected identifiers across every
    //    timestep (the operation that used to take hours with scripts and
    //    takes seconds with the identifier index).
    let start = std::time::Instant::now();
    let tracks = explorer.track(&beam.ids)?;
    println!(
        "  traced {} particles over {} timesteps in {:.3} s ({} matches)",
        tracks.traces.len(),
        explorer.steps().len(),
        start.elapsed().as_secs_f64(),
        tracks.total_hits()
    );

    // 4. Render a histogram-based focus+context parallel coordinates plot.
    let axes = ["x", "y", "px", "py", "xrel"];
    let image = explorer.render_focus_context(last, &axes, 256, Some(&query), 0.8)?;
    let path = image_dir.join("quickstart_focus_context.ppm");
    explorer.save_image(&image, &path)?;
    println!("  wrote {}", path.display());

    // 5. A quick look at how the beam evolved.
    let stats = explorer.beam_statistics(&beam.ids)?;
    println!("  step   count   mean px       px spread");
    for s in stats
        .iter()
        .filter(|s| s.step % 5 == 0 || s.step + 1 == explorer.steps().len())
    {
        println!(
            "  {:>4}  {:>6}  {:>12.4e}  {:>12.4e}",
            s.step, s.count, s.mean_px, s.px_spread
        );
    }
    Ok(())
}
