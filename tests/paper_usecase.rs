//! Reproduction of the paper's Section IV use case as an executable test:
//! the qualitative findings of Figures 5–9 must hold on the synthetic 2D
//! dataset.

use vdx_core::prelude::*;

struct UseCase {
    explorer: DataExplorer,
    sim: SimConfig,
    dir: std::path::PathBuf,
}

fn setup() -> UseCase {
    let dir = std::env::temp_dir().join(format!("vdx_paper_usecase_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // The full 38-timestep 2D schedule at reduced particle count.
    let sim = SimConfig::paper_2d(4_000);
    let explorer = DataExplorer::generate(
        &dir,
        sim.clone(),
        ExplorerConfig {
            index_binning: Binning::EqualWidth { bins: 64 },
            ..Default::default()
        },
    )
    .unwrap();
    UseCase { explorer, sim, dir }
}

#[test]
fn paper_use_case_sections_a_through_e() {
    let uc = setup();
    let explorer = &uc.explorer;
    let sim = &uc.sim;
    let last = 37usize;

    // --- IV-A Beam selection: a px threshold at t=37 finds the accelerated
    // particles, and they form two clusters (beams) in x.
    let threshold = lwfa::physics::suggested_beam_threshold(sim, last);
    let beam = explorer
        .select(last, &format!("px > {threshold:e}"))
        .unwrap();
    assert!(
        beam.ids.len() > 10,
        "beam selection must find the trapped particles"
    );

    let ds = explorer.catalog().load(last, None, true).unwrap();
    let sel = ds.select_ids(&beam.ids).unwrap();
    let xs = sel.gather(ds.table().float_column("x").unwrap());
    let (b1_lo, b1_hi) = sim.bucket_range(last, 1);
    let (b2_lo, _b2_hi) = sim.bucket_range(last, 2);
    let in_bucket1 = xs.iter().filter(|&&x| x >= b1_lo && x < b1_hi).count();
    let in_bucket2 = xs.iter().filter(|&&x| x >= b2_lo && x < b1_lo).count();
    assert!(
        in_bucket1 > 0 && in_bucket2 > 0,
        "two separate beams in x (Figure 5c)"
    );

    // --- IV-B Beam assessment: the first beam peaks before the end of the
    // run and has lower momentum than the second beam at t=37 (it outran the
    // wave and decelerated).
    let ids_b1: Vec<u64> = {
        let ids = ds.table().id_column("id").unwrap();
        sel.iter_rows()
            .filter(|&r| {
                let x = ds.table().float_column("x").unwrap()[r];
                x >= b1_lo && x < b1_hi
            })
            .map(|r| ids[r])
            .collect()
    };
    let ids_b2: Vec<u64> = {
        let ids = ds.table().id_column("id").unwrap();
        sel.iter_rows()
            .filter(|&r| {
                let x = ds.table().float_column("x").unwrap()[r];
                x >= b2_lo && x < b1_lo
            })
            .map(|r| ids[r])
            .collect()
    };
    let stats_b1 = explorer.beam_statistics(&ids_b1).unwrap();
    let stats_b2 = explorer.beam_statistics(&ids_b2).unwrap();
    let b1_peak = stats_b1
        .iter()
        .max_by(|a, b| a.mean_px.partial_cmp(&b.mean_px).unwrap())
        .unwrap();
    let b1_final = stats_b1.last().unwrap();
    let b2_final = stats_b2.last().unwrap();
    assert!(
        b1_peak.step < b1_final.step,
        "beam 1 reaches peak momentum before the final timestep (dephasing)"
    );
    assert!(
        b1_final.mean_px < b1_peak.mean_px,
        "beam 1 decelerates after outrunning the wave"
    );
    assert!(
        b2_final.mean_px >= b1_final.mean_px,
        "beam 2 shows equal or higher momentum at the last timestep"
    );

    // --- IV-C Beam formation: tracing the beam backwards finds the injection
    // timesteps (t = 14 and t = 15 in the preset).
    let tracks = explorer.track(&beam.ids).unwrap();
    let earliest = tracks
        .traces
        .iter()
        .filter_map(|t| t.first_step())
        .min()
        .unwrap();
    assert!(
        earliest <= sim.beam2_injection_step,
        "beam particles exist at (or before) the injection timesteps"
    );

    // --- IV-D Beam refinement: an additional x threshold at the injection
    // time isolates a subset of the beam that is a strict subset of the
    // original selection and is more tightly focused at later times.
    let refine_step = sim.beam1_injection_step + 1;
    let (bucket1_lo, _) = sim.bucket_range(refine_step, 1);
    let refined = explorer
        .refine(&beam, refine_step, &format!("x > {bucket1_lo:e}"))
        .unwrap();
    assert!(!refined.ids.is_empty());
    assert!(refined.ids.len() < beam.ids.len());
    assert!(refined.ids.iter().all(|id| beam.ids.contains(id)));

    // --- IV-E Beam evolution: temporal parallel coordinates over the
    // injection-to-acceleration phase render successfully and the underlying
    // per-timestep histograms show increasing px.
    let steps: Vec<usize> = (sim.beam2_injection_step..sim.beam2_injection_step + 9).collect();
    let temporal = explorer
        .temporal_histograms(&beam.ids, &steps, vec![("x", "px")], 64)
        .unwrap();
    assert_eq!(temporal.per_timestep.len(), steps.len());
    // Mean px bin index of the selection should drift upward over time.
    let mean_bin = |h: &Hist2D| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for b in h.iter_non_empty() {
            num += b.iy as f64 * b.count as f64;
            den += b.count as f64;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    };
    let first = mean_bin(&temporal.per_timestep.first().unwrap().1[0]);
    let last_mean = mean_bin(&temporal.per_timestep.last().unwrap().1[0]);
    assert!(
        last_mean > first,
        "the beam's px distribution moves to higher bins over time ({first:.2} -> {last_mean:.2})"
    );

    let image = explorer
        .render_temporal(&beam.ids, &steps, &["x", "xrel", "px"], 64, 0.9)
        .unwrap();
    assert!(image.coverage(Rgba::BLACK) > 0.001);

    std::fs::remove_dir_all(&uc.dir).ok();
}

#[test]
fn paper_use_case_3d_selection_and_tracing() {
    let dir = std::env::temp_dir().join(format!("vdx_paper_usecase3d_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sim = SimConfig::paper_3d(3_000);
    let explorer = DataExplorer::generate(
        &dir,
        sim.clone(),
        ExplorerConfig {
            index_binning: Binning::EqualWidth { bins: 64 },
            ..Default::default()
        },
    )
    .unwrap();

    // Section IV-F: remove the background with a low px threshold, then
    // select the first bunch with a compound momentum + position condition.
    let step = 12usize;
    let background_cut = 4.0 * sim.thermal_momentum;
    let beam_cut = lwfa::physics::suggested_beam_threshold(&sim, step);
    let (bucket1_lo, _) = sim.bucket_range(step, 1);
    let query = format!("px > {beam_cut:e} && x > {bucket1_lo:e}");
    let context = explorer
        .select(step, &format!("px > {background_cut:e}"))
        .unwrap();
    let focus = explorer.select(step, &query).unwrap();
    assert!(!focus.ids.is_empty());
    assert!(focus.ids.len() < context.ids.len());

    // Trace back to injection (t=9) and forward to t=14; momenta increase.
    let tracks = explorer.track(&focus.ids).unwrap();
    assert!(!tracks.traces.is_empty());
    let accelerated = tracks
        .traces
        .iter()
        .filter(|t| {
            let in_range: Vec<_> = t
                .points
                .iter()
                .filter(|p| p.step >= 9 && p.step <= 14)
                .collect();
            in_range.len() >= 2 && in_range.last().unwrap().px > in_range.first().unwrap().px
        })
        .count();
    assert!(
        accelerated * 10 >= tracks.traces.len() * 7,
        "selected 3D particles are constantly accelerated between t=9 and t=14"
    );
    // z and pz are genuinely three-dimensional.
    let ds = explorer.catalog().load(step, None, false).unwrap();
    assert!(ds
        .table()
        .float_column("z")
        .unwrap()
        .iter()
        .any(|&z| z != 0.0));
    std::fs::remove_dir_all(&dir).ok();
}
