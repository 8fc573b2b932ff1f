//! Rendering comparisons from Figures 2, 3 and 4:
//!
//! * traditional polyline parallel coordinates vs histogram-based rendering,
//! * the effect of the gamma (brightness) control,
//! * high-resolution (700 bins) vs low-resolution (80 bins) histograms,
//! * uniform vs adaptive (equal-weight) 32×32 binning.
//!
//! All renderings are written as PPM images under `target/vdx-examples/`.
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_binning
//! ```

use vdx_core::prelude::*;

fn main() -> vdx_core::Result<()> {
    let out_dir = std::env::temp_dir().join("vdx-adaptive-binning");
    // Start from an empty directory: files an earlier build left there
    // would otherwise sit beside the new ones.
    std::fs::remove_dir_all(&out_dir).ok();
    let image_dir = std::path::PathBuf::from("target/vdx-examples");
    std::fs::create_dir_all(&image_dir)?;

    // Figure 2 uses a subset of ~256k records with 7 dimensions; scale to
    // taste via the first CLI argument.
    let particles = std::env::args()
        .nth(1)
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(60_000);
    let sim = SimConfig::paper_2d(particles);
    let explorer = DataExplorer::generate(&out_dir, sim.clone(), ExplorerConfig::default())?;
    let step = sim.beam1_dephasing_step; // a timestep with interesting structure
    let axes = ["x", "y", "px", "py", "xrel"];

    let save = |image: &Framebuffer, name: &str| -> vdx_core::Result<()> {
        let path = image_dir.join(name);
        image.save_ppm(&path)?;
        println!(
            "  wrote {} ({:.1}% of pixels lit)",
            path.display(),
            image.coverage(Rgba::BLACK) * 100.0
        );
        Ok(())
    };

    // (a) Traditional line-based parallel coordinates.
    println!("Figure 2a: polyline rendering of {particles} records");
    let start = std::time::Instant::now();
    let polylines = explorer.render_polylines(step, &axes, None)?;
    println!(
        "  rendered in {:.3} s (cost grows with record count)",
        start.elapsed().as_secs_f64()
    );
    save(&polylines, "fig2a_polylines.ppm")?;

    // (b) Histogram-based rendering, 700 bins per dimension.
    println!("Figure 2b: histogram-based rendering, 700 bins");
    let start = std::time::Instant::now();
    let hist_700 = explorer.render_focus_context(step, &axes, 700, None, 1.0)?;
    println!(
        "  rendered in {:.3} s (cost depends on bins, not records)",
        start.elapsed().as_secs_f64()
    );
    save(&hist_700, "fig2b_hist700.ppm")?;

    // (c) Same rendering with a lower gamma: sparse bins fade out.
    println!("Figure 2c: lower gamma removes sparse bins");
    let hist_dim = explorer.render_focus_context(step, &axes, 700, None, 0.3)?;
    save(&hist_dim, "fig2c_hist700_lowgamma.ppm")?;
    println!(
        "  mean luminance {:.4} (gamma 1.0) vs {:.4} (gamma 0.3)",
        hist_700.mean_luminance(),
        hist_dim.mean_luminance()
    );

    // (d) 80 bins per dimension: a coarser level of detail.
    println!("Figure 2d: histogram-based rendering, 80 bins");
    let hist_80 = explorer.render_focus_context(step, &axes, 80, None, 1.0)?;
    save(&hist_80, "fig2d_hist80.ppm")?;

    // Figures 3 & 4: uniform vs adaptive 32×32 binning, with a focus layer.
    println!("Figures 3-4: uniform vs adaptive 32x32 binning");
    let threshold = lwfa::physics::suggested_beam_threshold(&sim, step);
    let focus_query = format!("px > {threshold:e}");
    let plot = explorer.plot_for(step, &axes, PlotConfig::default())?;

    let uniform_ctx = explorer.axis_histograms(step, &axes, 32, None, false)?;
    let uniform_focus = explorer.axis_histograms(step, &axes, 32, Some(&focus_query), false)?;
    let uniform = plot.render(&[
        Layer::histograms(uniform_ctx, Rgba::CONTEXT_GRAY),
        Layer::histograms(uniform_focus, Rgba::FOCUS_RED),
    ]);
    save(&uniform, "fig4_uniform32.ppm")?;

    let adaptive_ctx = explorer.axis_histograms(step, &axes, 32, None, true)?;
    let adaptive_focus = explorer.axis_histograms(step, &axes, 32, Some(&focus_query), true)?;
    let adaptive = plot.render(&[
        Layer::histograms(adaptive_ctx, Rgba::CONTEXT_GRAY),
        Layer::histograms(adaptive_focus, Rgba::FOCUS_RED),
    ]);
    save(&adaptive, "fig4_adaptive32.ppm")?;

    println!("done; compare the images under target/vdx-examples/");
    Ok(())
}
