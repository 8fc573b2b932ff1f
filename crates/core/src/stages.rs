//! The reader-level histogram stage.
//!
//! The paper computes 2D histograms *inside the file reader*: each node loads
//! only the contracted columns of its timestep files, evaluates the current
//! condition, computes the requested histogram pairs and throws the raw data
//! away, so only small histograms ever flow downstream. This module is that
//! stage.

use std::time::{Duration, Instant};

use datastore::{Catalog, Contract};
use fastbit::{BinSpec, ExecStrategy, ParExec, QueryExpr};
use histogram::Hist2D;

use crate::error::{Result, VdxError};

/// Configuration of one histogram computation over a whole catalog.
#[derive(Debug, Clone)]
pub struct HistogramStage {
    /// Adjacent axis pairs to histogram, e.g. `[("x","px"), ("y","py")]`.
    pub pairs: Vec<(String, String)>,
    /// Number of bins per variable.
    pub bins: usize,
    /// Use adaptive (equal-weight) instead of uniform bins.
    pub adaptive: bool,
    /// Optional condition restricting the histogrammed records.
    pub condition: Option<QueryExpr>,
    /// Index-accelerated or scan execution.
    pub engine: ExecStrategy,
}

impl HistogramStage {
    /// A stage computing uniform `bins × bins` histograms of `pairs` with the
    /// index-accelerated engine.
    pub fn new(pairs: Vec<(&str, &str)>, bins: usize) -> Self {
        Self {
            pairs: pairs
                .into_iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            bins,
            adaptive: false,
            condition: None,
            engine: ExecStrategy::Auto,
        }
    }

    /// Restrict the histograms to records matching `condition`.
    pub fn with_condition(mut self, condition: QueryExpr) -> Self {
        self.condition = Some(condition);
        self
    }

    /// Choose index (`Auto`, FastBit) or scan (`ScanOnly`, the Custom
    /// baseline) execution.
    pub fn with_engine(mut self, engine: ExecStrategy) -> Self {
        self.engine = engine;
        self
    }

    /// Use adaptive (equal-weight) binning.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// The contract this stage pushes up to the reader.
    pub fn contract(&self) -> Contract {
        let mut c = Contract::new();
        for (a, b) in &self.pairs {
            c.require_column(a.clone());
            c.require_column(b.clone());
        }
        if let Some(cond) = &self.condition {
            c.restrict(cond);
        }
        if self.engine == ExecStrategy::Auto {
            c.with_indexes();
        }
        c
    }

    fn bin_spec(&self) -> BinSpec {
        if self.adaptive {
            BinSpec::Adaptive(self.bins)
        } else {
            BinSpec::Uniform(self.bins)
        }
    }

    /// Compute the histograms of one timestep.
    pub fn run_one(&self, catalog: &Catalog, step: usize) -> Result<TimestepHistograms> {
        if self.pairs.is_empty() {
            return Err(VdxError::Invalid("no axis pairs requested".into()));
        }
        let contract = self.contract();
        let columns = contract.required_columns();
        let dataset = catalog.load(step, Some(&columns), contract.wants_indexes)?;
        let engine = dataset.hist_engine();
        // Timesteps fan out over threads (`run`); each runs at one thread.
        let exec = ParExec::sequential();
        let cond = self
            .condition
            .as_ref()
            .map(|c| engine.evaluate_condition_par(c, self.engine, &exec))
            .transpose()?;
        let spec = self.bin_spec();
        let mut hists = Vec::with_capacity(self.pairs.len());
        for (a, b) in &self.pairs {
            hists.push(engine.hist2d_with_condition_par(
                a,
                b,
                &spec,
                &spec,
                cond.as_ref(),
                self.engine,
                &exec,
            )?);
        }
        Ok(TimestepHistograms {
            step,
            hits: cond.as_ref().map(|c| c.selection.count()),
            num_particles: dataset.num_particles(),
            hists,
        })
    }

    /// Compute the histograms of every timestep in the catalog, fanning
    /// timestep files out over `threads` threads ([`fastbit::par::run`]).
    pub fn run(&self, catalog: &Catalog, threads: usize) -> Result<StageOutput> {
        let steps = catalog.steps();
        let start = Instant::now();
        let per_timestep =
            fastbit::par::run(threads, steps.len(), |i| self.run_one(catalog, steps[i]))?;
        Ok(StageOutput {
            per_timestep,
            elapsed: start.elapsed(),
        })
    }
}

/// The histograms computed for one timestep.
#[derive(Debug, Clone)]
pub struct TimestepHistograms {
    /// Timestep number.
    pub step: usize,
    /// Number of records matching the condition (`None` for unconditional
    /// histograms).
    pub hits: Option<u64>,
    /// Number of particles in the timestep.
    pub num_particles: usize,
    /// One histogram per requested axis pair, in request order.
    pub hists: Vec<Hist2D>,
}

/// Result of running a histogram stage over a catalog.
#[derive(Debug, Clone)]
pub struct StageOutput {
    /// Per-timestep histograms in ascending timestep order.
    pub per_timestep: Vec<TimestepHistograms>,
    /// Wall-clock time of the parallel section.
    pub elapsed: Duration,
}

impl StageOutput {
    /// Total number of records that matched the condition across timesteps.
    pub fn total_hits(&self) -> u64 {
        self.per_timestep.iter().filter_map(|t| t.hits).sum()
    }

    /// Total number of particles examined.
    pub fn total_particles(&self) -> usize {
        self.per_timestep.iter().map(|t| t.num_particles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbit::ValueRange;
    use histogram::Binning;
    use lwfa::{SimConfig, Simulation};
    use std::path::PathBuf;

    fn test_catalog(tag: &str, steps: usize, particles: usize) -> (Catalog, PathBuf) {
        let dir = std::env::temp_dir().join(format!("vdx_core_stage_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut catalog = Catalog::create(&dir).unwrap();
        let mut config = SimConfig::tiny();
        config.particles_per_step = particles;
        config.num_timesteps = steps;
        Simulation::new(config)
            .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 32 }))
            .unwrap();
        (catalog, dir)
    }

    #[test]
    fn unconditional_stage_histograms_every_particle() {
        let (catalog, dir) = test_catalog("uncond", 6, 800);
        let stage = HistogramStage::new(vec![("x", "px"), ("y", "py")], 32);
        let out = stage.run(&catalog, 3).unwrap();
        assert_eq!(out.per_timestep.len(), 6);
        for t in &out.per_timestep {
            assert_eq!(t.hists.len(), 2);
            assert!(t.hits.is_none());
            assert_eq!(t.hists[0].total() as usize, t.num_particles);
        }
        assert!(out.total_particles() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conditional_stage_engines_agree_on_hit_counts() {
        let (catalog, dir) = test_catalog("cond", 5, 600);
        let cond = QueryExpr::pred("px", ValueRange::gt(1e10));
        let fast = HistogramStage::new(vec![("x", "px")], 24)
            .with_condition(cond.clone())
            .with_engine(ExecStrategy::Auto)
            .run(&catalog, 2)
            .unwrap();
        let custom = HistogramStage::new(vec![("x", "px")], 24)
            .with_condition(cond)
            .with_engine(ExecStrategy::ScanOnly)
            .run(&catalog, 2)
            .unwrap();
        assert_eq!(fast.total_hits(), custom.total_hits());
        for (a, b) in fast.per_timestep.iter().zip(custom.per_timestep.iter()) {
            assert_eq!(a.hits, b.hits, "step {}", a.step);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_counts_do_not_change_results() {
        let (catalog, dir) = test_catalog("nodes", 8, 400);
        let stage = HistogramStage::new(vec![("x", "px")], 16)
            .with_condition(QueryExpr::pred("px", ValueRange::gt(5e9)));
        let serial = stage.run(&catalog, 1).unwrap();
        let parallel = stage.run(&catalog, 4).unwrap();
        assert_eq!(serial.per_timestep.len(), parallel.per_timestep.len());
        for (a, b) in serial.per_timestep.iter().zip(parallel.per_timestep.iter()) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.hists[0].counts(), b.hists[0].counts());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_stage_produces_adaptive_edges() {
        let (catalog, dir) = test_catalog("adaptive", 3, 700);
        let out = HistogramStage::new(vec![("x", "px")], 16)
            .with_adaptive(true)
            .run(&catalog, 2)
            .unwrap();
        // px is heavily skewed (thermal background plus a beam tail), so the
        // adaptive y-edges must not be uniform.
        let any_adaptive = out
            .per_timestep
            .iter()
            .any(|t| !t.hists[0].y_edges().is_uniform());
        assert!(
            any_adaptive,
            "adaptive binning should produce non-uniform edges"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_pairs_is_an_error_and_contract_lists_columns() {
        let stage = HistogramStage::new(vec![("x", "px")], 8)
            .with_condition(QueryExpr::pred("py", ValueRange::lt(0.0)));
        let contract = stage.contract();
        assert_eq!(contract.required_columns(), vec!["px", "py", "x"]);
        let (catalog, dir) = test_catalog("empty", 2, 100);
        let bad = HistogramStage {
            pairs: vec![],
            bins: 8,
            adaptive: false,
            condition: None,
            engine: ExecStrategy::Auto,
        };
        assert!(bad.run(&catalog, 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
