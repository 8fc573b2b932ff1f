//! The beam-analysis workflow of Section IV.
//!
//! The paper's use case proceeds in stages: select the beam with a momentum
//! threshold at a late timestep, trace the selected particles backwards (and
//! forwards) in time, refine the selection with additional thresholds at an
//! earlier timestep, and study beam evolution with per-timestep statistics
//! and temporal parallel coordinates. Selection, refinement and tracking are
//! [`DataExplorer::select`], [`DataExplorer::refine`] and
//! [`DataExplorer::track`]; this module adds the two evolution views on top
//! of them, [`DataExplorer::beam_statistics`] and
//! [`DataExplorer::temporal_histograms`].

use std::collections::BTreeMap;

use fastbit::{BinSpec, EvaluatedCondition, ParExec};
use histogram::{BinEdges, Hist2D};

use crate::error::Result;
use crate::explorer::DataExplorer;

/// Summary statistics of the beam at one timestep.
#[derive(Debug, Clone)]
pub struct BeamStatistics {
    /// Timestep number.
    pub step: usize,
    /// Number of beam particles found in this timestep.
    pub count: usize,
    /// Mean longitudinal momentum of the beam particles.
    pub mean_px: f64,
    /// Standard deviation of the longitudinal momentum (the "energy spread"
    /// the paper discusses).
    pub px_spread: f64,
    /// Mean longitudinal position.
    pub mean_x: f64,
    /// Standard deviation of the transverse position (beam focus).
    pub y_spread: f64,
}

/// Histogram stacks for a temporal parallel-coordinates plot: one set of
/// per-axis-pair histograms per timestep, all sharing the same bin edges so
/// the layers are directly comparable.
#[derive(Debug, Clone)]
pub struct TemporalHistograms {
    /// `(timestep, histograms per axis pair)` in ascending timestep order.
    pub per_timestep: Vec<(usize, Vec<Hist2D>)>,
    /// The axis pairs, in the order the histograms are stored.
    pub pairs: Vec<(String, String)>,
}

impl DataExplorer {
    /// Per-timestep beam statistics for a particle set (used to verify the
    /// acceleration/dephasing story of Figures 5 and 9 quantitatively).
    pub fn beam_statistics(&self, ids: &[u64]) -> Result<Vec<BeamStatistics>> {
        let tracking = self.track(ids)?;
        let mut per_step: BTreeMap<usize, Vec<(f64, f64, f64)>> = BTreeMap::new();
        for trace in &tracking.traces {
            for p in &trace.points {
                per_step.entry(p.step).or_default().push((p.px, p.x, p.y));
            }
        }
        Ok(per_step
            .into_iter()
            .map(|(step, values)| {
                let n = values.len() as f64;
                let mean_px = values.iter().map(|v| v.0).sum::<f64>() / n;
                let px_var = values.iter().map(|v| (v.0 - mean_px).powi(2)).sum::<f64>() / n;
                let mean_x = values.iter().map(|v| v.1).sum::<f64>() / n;
                let mean_y = values.iter().map(|v| v.2).sum::<f64>() / n;
                let y_var = values.iter().map(|v| (v.2 - mean_y).powi(2)).sum::<f64>() / n;
                BeamStatistics {
                    step,
                    count: values.len(),
                    mean_px,
                    px_spread: px_var.sqrt(),
                    mean_x,
                    y_spread: y_var.sqrt(),
                }
            })
            .collect())
    }

    /// Build the per-timestep histogram stack for a temporal parallel
    /// coordinates plot of the particle set `ids` over `steps`, with shared
    /// bin edges across timesteps.
    pub fn temporal_histograms(
        &self,
        ids: &[u64],
        steps: &[usize],
        pairs: Vec<(&str, &str)>,
        bins: usize,
    ) -> Result<TemporalHistograms> {
        let pair_names: Vec<(String, String)> = pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();

        // First pass: global value ranges of every involved column over the
        // selected particles, so every timestep layer uses identical edges.
        let tracking = self.track(ids)?;
        let mut ranges: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        let mut update = |name: &'static str, value: f64| {
            let e = ranges
                .entry(name)
                .or_insert((f64::INFINITY, f64::NEG_INFINITY));
            e.0 = e.0.min(value);
            e.1 = e.1.max(value);
        };
        for trace in &tracking.traces {
            for p in &trace.points {
                update("x", p.x);
                update("y", p.y);
                update("z", p.z);
                update("px", p.px);
                update("py", p.py);
                update("pz", p.pz);
                update("xrel", 0.0);
            }
        }

        let edges_for = |name: &str| -> Result<BinEdges> {
            let (lo, hi) = ranges.get(name).copied().unwrap_or((0.0, 1.0));
            let (lo, hi) = if lo < hi {
                (lo, hi)
            } else {
                (lo - 1.0, hi + 1.0)
            };
            Ok(BinEdges::uniform(lo, hi, bins)?)
        };

        // The steps and the pairs run one after the other, on this thread.
        let exec = ParExec::sequential();
        let mut per_timestep = Vec::with_capacity(steps.len());
        for &step in steps {
            let dataset = self.load_step(step)?;
            let cond = EvaluatedCondition::from_selection(dataset.select_ids(ids)?, &exec);
            let engine = dataset.hist_engine();
            let mut hists = Vec::with_capacity(pair_names.len());
            for (a, b) in &pair_names {
                // xrel is not covered by traces; derive its edges from the
                // dataset when needed.
                let ex = if a == "xrel" {
                    BinSpec::Uniform(bins)
                } else {
                    BinSpec::Edges(edges_for(a)?)
                };
                let ey = if b == "xrel" {
                    BinSpec::Uniform(bins)
                } else {
                    BinSpec::Edges(edges_for(b)?)
                };
                hists.push(engine.hist2d_with_condition_par(
                    a,
                    b,
                    &ex,
                    &ey,
                    Some(&cond),
                    self.config().engine,
                    &exec,
                )?);
            }
            per_timestep.push((step, hists));
        }
        Ok(TemporalHistograms {
            per_timestep,
            pairs: pair_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use fastbit::ExecStrategy;
    use histogram::Binning;
    use lwfa::physics::suggested_beam_threshold;
    use lwfa::SimConfig;

    use crate::{BeamSelection, ExplorerConfig};

    use super::*;

    fn test_explorer(tag: &str) -> (DataExplorer, PathBuf, SimConfig) {
        let dir =
            std::env::temp_dir().join(format!("vdx_core_analysis_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sim = SimConfig::tiny();
        sim.particles_per_step = 800;
        sim.num_timesteps = 24;
        let config = ExplorerConfig {
            index_binning: Binning::EqualWidth { bins: 32 },
            ..Default::default()
        };
        let explorer = DataExplorer::generate(&dir, sim.clone(), config).unwrap();
        (explorer, dir, sim)
    }

    /// The beam at the last timestep: `px` above the suggested threshold.
    fn select_beam(explorer: &DataExplorer, sim: &SimConfig) -> BeamSelection {
        let last = sim.num_timesteps - 1;
        let threshold = suggested_beam_threshold(sim, last);
        explorer
            .select(last, &format!("px > {threshold:e}"))
            .unwrap()
    }

    #[test]
    fn beam_selection_and_tracking_workflow() {
        let (explorer, dir, sim) = test_explorer("workflow");
        let beam = select_beam(&explorer, &sim);
        assert!(!beam.ids.is_empty());
        let raw = explorer.catalog().load(beam.step, None, true).unwrap();
        assert_eq!(
            beam.ids.len() as u64,
            raw.query(&beam.query).unwrap().count()
        );

        let tracking = explorer.track(&beam.ids).unwrap();
        assert_eq!(tracking.traces.len(), beam.ids.len());
        // Every trace ends at (or after) the selection timestep and the
        // particles were accelerated over time.
        let accelerated = tracking
            .traces
            .iter()
            .filter(|t| t.points.last().unwrap().px > t.points.first().unwrap().px)
            .count();
        assert!(
            accelerated * 10 >= tracking.traces.len() * 8,
            "most traces show acceleration"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refinement_is_a_subset_of_the_original_selection() {
        let (explorer, dir, sim) = test_explorer("refine");
        let beam = select_beam(&explorer, &sim);
        // Refine at the injection timestep: keep only particles in the first
        // wake bucket (larger x).
        let early = sim.beam1_injection_step + 1;
        let (b1_lo, _) = sim.bucket_range(early, 1);
        let refined = explorer
            .refine(&beam, early, &format!("x > {b1_lo:e}"))
            .unwrap();
        assert!(refined.ids.len() <= beam.ids.len());
        assert!(refined.ids.iter().all(|id| beam.ids.contains(id)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn beam_statistics_show_acceleration_over_time() {
        let (explorer, dir, sim) = test_explorer("stats");
        let beam = select_beam(&explorer, &sim);
        let stats = explorer.beam_statistics(&beam.ids).unwrap();
        assert!(!stats.is_empty());
        let first = stats.iter().find(|s| s.count > 0).unwrap();
        let last_stat = stats.last().unwrap();
        assert!(
            last_stat.mean_px > first.mean_px,
            "beam gains momentum over the run"
        );
        // Beam moves forward with the window.
        assert!(last_stat.mean_x > first.mean_x);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temporal_histograms_share_edges_across_timesteps() {
        let (explorer, dir, sim) = test_explorer("temporal");
        let beam = select_beam(&explorer, &sim);
        let steps: Vec<usize> = (sim.beam2_injection_step..sim.beam2_injection_step + 4).collect();
        let temporal = explorer
            .temporal_histograms(&beam.ids, &steps, vec![("x", "px"), ("px", "y")], 24)
            .unwrap();
        assert_eq!(temporal.per_timestep.len(), 4);
        let reference = &temporal.per_timestep[0].1[0];
        for (_, hists) in &temporal.per_timestep[1..] {
            assert_eq!(hists[0].x_edges(), reference.x_edges());
            assert_eq!(hists[0].y_edges(), reference.y_edges());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_engine_produces_identical_selections() {
        let (fast, dir, sim) = test_explorer("custom");
        let custom = DataExplorer::from_catalog(
            fast.catalog_arc(),
            ExplorerConfig {
                engine: ExecStrategy::ScanOnly,
                ..Default::default()
            },
        );
        let step = sim.num_timesteps - 2;
        let a = fast.select(step, "px > 1e10").unwrap();
        let b = custom.select(step, "px > 1e10").unwrap();
        assert_eq!(a.ids, b.ids);
        std::fs::remove_dir_all(&dir).ok();
    }
}
