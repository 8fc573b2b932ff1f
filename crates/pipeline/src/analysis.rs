//! The beam-analysis workflow of Section IV.
//!
//! The paper's use case proceeds in stages: select the beam with a momentum
//! threshold at a late timestep, trace the selected particles backwards (and
//! forwards) in time, refine the selection with additional thresholds at an
//! earlier timestep, and study beam evolution with per-timestep statistics
//! and temporal parallel coordinates. [`BeamAnalyzer`] packages those stages
//! on top of a [`Catalog`].

use datastore::{Catalog, Dataset};
use fastbit::{ExecStrategy, QueryExpr, Selection};
use histogram::Hist2D;

use crate::error::Result;
use crate::executor::NodePool;
use crate::stages::HistogramStage;
use crate::tracker::{Tracker, TrackingOutput};

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

/// High-level driver of the paper's analysis workflow.
#[derive(Debug)]
pub struct BeamAnalyzer<'a> {
    catalog: &'a Catalog,
    pool: NodePool,
    engine: ExecStrategy,
}

impl<'a> BeamAnalyzer<'a> {
    /// Analyse `catalog` with `pool` workers using the index-accelerated
    /// engine.
    pub fn new(catalog: &'a Catalog, pool: NodePool) -> Self {
        Self {
            catalog,
            pool,
            engine: ExecStrategy::Auto,
        }
    }

    /// Choose index (`Auto`, FastBit) or scan (`ScanOnly`, the Custom
    /// baseline) execution.
    pub fn with_engine(mut self, engine: ExecStrategy) -> Self {
        self.engine = engine;
        self
    }

    /// Load one timestep with every standard column and its indexes.
    pub fn load_step(&self, step: usize) -> Result<Dataset> {
        Ok(self
            .catalog
            .load(step, None, self.engine == ExecStrategy::Auto)?)
    }

    /// Select particles at `step` matching `query` (e.g. the beam-selection
    /// threshold `px > 8.872e10` of Figure 5) and return their identifiers
    /// together with the selection.
    pub fn select(&self, step: usize, query: &QueryExpr) -> Result<(Vec<u64>, Selection)> {
        let dataset = self.load_step(step)?;
        let selection = dataset.query(query)?;
        let ids = dataset.ids_of(&selection)?;
        Ok((ids, selection))
    }

    /// Refine an existing particle set: keep only the particles that *also*
    /// satisfy `query` at timestep `step` (Figure 8 applies an extra `x`
    /// threshold at t = 14 to isolate the first wake period).
    pub fn refine(&self, step: usize, ids: &[u64], query: &QueryExpr) -> Result<Vec<u64>> {
        let dataset = self.load_step(step)?;
        let by_id = dataset.select_ids(ids)?;
        let by_query = dataset.query(query)?;
        let both = by_id.and(&by_query)?;
        Ok(dataset.ids_of(&both)?)
    }

    /// Trace a particle set across every timestep of the catalog.
    pub fn track(&self, ids: &[u64]) -> Result<TrackingOutput> {
        Tracker::new(self.engine).track(self.catalog, ids, &self.pool)
    }

    /// Per-timestep beam statistics for a particle set (used to verify the
    /// acceleration/dephasing story of Figures 5 and 9 quantitatively).
    pub fn beam_statistics(&self, ids: &[u64]) -> Result<Vec<BeamStatistics>> {
        let tracking = self.track(ids)?;
        let mut per_step: std::collections::BTreeMap<usize, Vec<(f64, f64, f64)>> =
            std::collections::BTreeMap::new();
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

    /// Conditional histograms of `pairs` over the whole catalog (one entry
    /// per timestep), for the context or focus view of a parallel-coordinates
    /// plot.
    pub fn histograms(
        &self,
        pairs: Vec<(&str, &str)>,
        bins: usize,
        condition: Option<QueryExpr>,
    ) -> Result<crate::stages::StageOutput> {
        let mut stage = HistogramStage::new(pairs, bins).with_engine(self.engine);
        if let Some(c) = condition {
            stage = stage.with_condition(c);
        }
        stage.run(self.catalog, &self.pool)
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
        use fastbit::BinSpec;
        use histogram::BinEdges;

        let pair_names: Vec<(String, String)> = pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();

        // First pass: global value ranges of every involved column over the
        // selected particles, so every timestep layer uses identical edges.
        let tracking = self.track(ids)?;
        let mut ranges: std::collections::BTreeMap<&str, (f64, f64)> =
            std::collections::BTreeMap::new();
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

        let mut per_timestep = Vec::with_capacity(steps.len());
        for &step in steps {
            let dataset = self.load_step(step)?;
            let selection = dataset.select_ids(ids)?;
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
                hists.push(engine.hist2d_with_selection(
                    a,
                    b,
                    &ex,
                    &ey,
                    Some(&selection),
                    self.engine,
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
    use super::*;
    use fastbit::ValueRange;
    use histogram::Binning;
    use lwfa::physics::suggested_beam_threshold;
    use lwfa::{SimConfig, Simulation};
    use std::path::PathBuf;

    fn test_catalog(tag: &str) -> (Catalog, PathBuf, SimConfig) {
        let dir = std::env::temp_dir().join(format!(
            "vdx_pipeline_analysis_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut catalog = Catalog::create(&dir).unwrap();
        let mut config = SimConfig::tiny();
        config.particles_per_step = 800;
        config.num_timesteps = 24;
        Simulation::new(config.clone())
            .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 32 }))
            .unwrap();
        (catalog, dir, config)
    }

    #[test]
    fn beam_selection_and_tracking_workflow() {
        let (catalog, dir, config) = test_catalog("workflow");
        let analyzer = BeamAnalyzer::new(&catalog, NodePool::new(2));
        let last = config.num_timesteps - 1;
        let threshold = suggested_beam_threshold(&config, last);
        let (ids, selection) = analyzer
            .select(last, &QueryExpr::pred("px", ValueRange::gt(threshold)))
            .unwrap();
        assert!(!ids.is_empty());
        assert_eq!(ids.len() as u64, selection.count());

        let tracking = analyzer.track(&ids).unwrap();
        assert_eq!(tracking.traces.len(), ids.len());
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
        let (catalog, dir, config) = test_catalog("refine");
        let analyzer = BeamAnalyzer::new(&catalog, NodePool::new(2));
        let last = config.num_timesteps - 1;
        let threshold = suggested_beam_threshold(&config, last);
        let (ids, _) = analyzer
            .select(last, &QueryExpr::pred("px", ValueRange::gt(threshold)))
            .unwrap();
        // Refine at the injection timestep: keep only particles in the first
        // wake bucket (larger x).
        let early = config.beam1_injection_step + 1;
        let (b1_lo, _) = config.bucket_range(early, 1);
        let refined = analyzer
            .refine(early, &ids, &QueryExpr::pred("x", ValueRange::gt(b1_lo)))
            .unwrap();
        assert!(refined.len() <= ids.len());
        assert!(refined.iter().all(|id| ids.contains(id)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn beam_statistics_show_acceleration_over_time() {
        let (catalog, dir, config) = test_catalog("stats");
        let analyzer = BeamAnalyzer::new(&catalog, NodePool::new(2));
        let last = config.num_timesteps - 1;
        let threshold = suggested_beam_threshold(&config, last);
        let (ids, _) = analyzer
            .select(last, &QueryExpr::pred("px", ValueRange::gt(threshold)))
            .unwrap();
        let stats = analyzer.beam_statistics(&ids).unwrap();
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
        let (catalog, dir, config) = test_catalog("temporal");
        let analyzer = BeamAnalyzer::new(&catalog, NodePool::new(2));
        let last = config.num_timesteps - 1;
        let threshold = suggested_beam_threshold(&config, last);
        let (ids, _) = analyzer
            .select(last, &QueryExpr::pred("px", ValueRange::gt(threshold)))
            .unwrap();
        let steps: Vec<usize> =
            (config.beam2_injection_step..config.beam2_injection_step + 4).collect();
        let temporal = analyzer
            .temporal_histograms(&ids, &steps, vec![("x", "px"), ("px", "y")], 24)
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
        let (catalog, dir, config) = test_catalog("custom");
        let fast = BeamAnalyzer::new(&catalog, NodePool::new(2));
        let custom =
            BeamAnalyzer::new(&catalog, NodePool::new(2)).with_engine(ExecStrategy::ScanOnly);
        let step = config.num_timesteps - 2;
        let q = QueryExpr::pred("px", ValueRange::gt(1e10));
        let (a, _) = fast.select(step, &q).unwrap();
        let (b, _) = custom.select(step, &q).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }
}
