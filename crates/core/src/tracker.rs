//! Particle tracking across timesteps.
//!
//! Once an interesting particle subset has been selected (e.g. the beam), the
//! paper traces it through the whole run by issuing `ID IN (id_1 … id_n)`
//! queries against every timestep file. With the FastBit identifier index the
//! per-timestep cost is proportional to the number of particles found; the
//! "Custom" baseline scans every record of every timestep. The tracker
//! fans timestep files out over [`fastbit::par::run`], like the histogram
//! stage (Figures 16 and 17).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datastore::{Catalog, Dataset};
use fastbit::ExecStrategy;

use crate::error::Result;

/// The state of one particle at one timestep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Timestep number.
    pub step: usize,
    /// Longitudinal position.
    pub x: f64,
    /// Transverse position.
    pub y: f64,
    /// Second transverse position (zero in 2D runs).
    pub z: f64,
    /// Longitudinal momentum.
    pub px: f64,
    /// Transverse momentum.
    pub py: f64,
    /// Second transverse momentum.
    pub pz: f64,
}

/// The trajectory of one particle over the timesteps where it exists.
#[derive(Debug, Clone)]
pub struct ParticleTrace {
    /// Particle identifier.
    pub id: u64,
    /// Chronologically ordered trace points.
    pub points: Vec<TracePoint>,
}

impl ParticleTrace {
    /// Maximum longitudinal momentum reached along the trace.
    pub fn peak_px(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.px)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The timestep at which the particle first appears in the window.
    pub fn first_step(&self) -> Option<usize> {
        self.points.first().map(|p| p.step)
    }
}

/// Output of a tracking run.
#[derive(Debug, Clone)]
pub struct TrackingOutput {
    /// One trace per tracked particle, sorted by identifier.
    pub traces: Vec<ParticleTrace>,
    /// Matches found per timestep (ascending step order).
    pub hits_per_step: Vec<(usize, u64)>,
    /// Wall-clock time of the parallel section.
    pub elapsed: Duration,
}

impl TrackingOutput {
    /// Total number of (particle, timestep) matches found.
    pub fn total_hits(&self) -> u64 {
        self.hits_per_step.iter().map(|(_, h)| h).sum()
    }
}

/// Per-timestep raw result collected by the workers before assembly.
#[derive(Debug, Clone)]
struct StepMatches {
    step: usize,
    ids: Vec<u64>,
    points: Vec<TracePoint>,
}

/// Configurable particle tracker.
#[derive(Debug, Clone)]
pub struct Tracker {
    /// Identifier-index accelerated (`Auto`) or full-scan (`ScanOnly`, the
    /// Custom baseline).
    pub engine: ExecStrategy,
    /// Columns extracted for each matched particle.
    columns: Vec<String>,
}

impl Tracker {
    /// A tracker using the identifier index.
    pub fn new(engine: ExecStrategy) -> Self {
        Self {
            engine,
            columns: ["x", "y", "z", "px", "py", "pz"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    fn columns_for_load(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        cols.push("id");
        cols
    }

    /// Track `ids` across every timestep of `catalog` on `threads` threads,
    /// loading each timestep's file (with only the tracked columns) directly
    /// from disk.
    pub fn track(&self, catalog: &Catalog, ids: &[u64], threads: usize) -> Result<TrackingOutput> {
        let steps = catalog.steps();
        let columns = self.columns_for_load();
        // The Custom baseline deliberately ignores the identifier index, as
        // in the paper's comparison.
        let with_indexes = self.engine == ExecStrategy::Auto;
        self.track_with(
            &steps,
            |step| Ok(catalog.load(step, Some(&columns), with_indexes)?),
            ids,
            threads,
        )
    }

    /// Track `ids` across `steps` on `threads` threads, obtaining each
    /// timestep's dataset through `load` — the hook that lets a serving layer
    /// feed resident cached datasets (`Arc<Dataset>`) instead of re-reading
    /// files per request.
    pub fn track_with<D, F>(
        &self,
        steps: &[usize],
        load: F,
        ids: &[u64],
        threads: usize,
    ) -> Result<TrackingOutput>
    where
        D: std::borrow::Borrow<Dataset> + Send,
        F: Fn(usize) -> Result<D> + Sync,
    {
        let start = Instant::now();
        let matches = fastbit::par::run(threads, steps.len(), |i| {
            let dataset = load(steps[i])?;
            self.track_one(dataset.borrow(), steps[i], ids)
        })?;
        let elapsed = start.elapsed();

        let mut per_particle: BTreeMap<u64, Vec<TracePoint>> = BTreeMap::new();
        let mut hits_per_step = Vec::with_capacity(matches.len());
        for m in &matches {
            hits_per_step.push((m.step, m.ids.len() as u64));
            for (id, point) in m.ids.iter().zip(m.points.iter()) {
                per_particle.entry(*id).or_default().push(*point);
            }
        }
        let traces = per_particle
            .into_iter()
            .map(|(id, mut points)| {
                points.sort_by_key(|p| p.step);
                ParticleTrace { id, points }
            })
            .collect();
        Ok(TrackingOutput {
            traces,
            hits_per_step,
            elapsed,
        })
    }

    fn track_one(&self, dataset: &Dataset, step: usize, ids: &[u64]) -> Result<StepMatches> {
        let selection = match self.engine {
            ExecStrategy::Auto => dataset.select_ids(ids)?,
            ExecStrategy::ScanOnly => {
                let id_column = dataset.table().id_column("id")?;
                fastbit::scan::scan_id_search(id_column, ids)
            }
        };
        let rows = selection.to_rows();
        let id_column = dataset.table().id_column("id")?;
        let mut col_refs = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            col_refs.push(dataset.table().float_column(c)?);
        }
        let mut matched_ids = Vec::with_capacity(rows.len());
        let mut points = Vec::with_capacity(rows.len());
        for &r in &rows {
            matched_ids.push(id_column[r]);
            points.push(TracePoint {
                step,
                x: col_refs[0][r],
                y: col_refs[1][r],
                z: col_refs[2][r],
                px: col_refs[3][r],
                py: col_refs[4][r],
                pz: col_refs[5][r],
            });
        }
        Ok(StepMatches {
            step,
            ids: matched_ids,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histogram::Binning;
    use lwfa::{SimConfig, Simulation};
    use std::path::PathBuf;

    fn test_catalog(tag: &str) -> (Catalog, PathBuf, SimConfig) {
        let dir =
            std::env::temp_dir().join(format!("vdx_core_tracker_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut catalog = Catalog::create(&dir).unwrap();
        let mut config = SimConfig::tiny();
        config.particles_per_step = 600;
        config.num_timesteps = 10;
        Simulation::new(config.clone())
            .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 16 }))
            .unwrap();
        (catalog, dir, config)
    }

    #[test]
    fn fastbit_and_custom_tracking_agree() {
        let (catalog, dir, _) = test_catalog("agree");
        // Track a handful of early particles, which exist in every timestep
        // until they leave the window.
        let ids: Vec<u64> = vec![1, 2, 3, 100, 599];
        let fast = Tracker::new(ExecStrategy::Auto)
            .track(&catalog, &ids, 3)
            .unwrap();
        let custom = Tracker::new(ExecStrategy::ScanOnly)
            .track(&catalog, &ids, 3)
            .unwrap();
        assert_eq!(fast.total_hits(), custom.total_hits());
        assert_eq!(fast.traces.len(), custom.traces.len());
        for (a, b) in fast.traces.iter().zip(custom.traces.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.points.len(), b.points.len());
            for (pa, pb) in a.points.iter().zip(b.points.iter()) {
                assert_eq!(pa, pb);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traces_are_chronological_and_complete_at_early_steps() {
        let (catalog, dir, _) = test_catalog("chrono");
        let ids: Vec<u64> = (0..20).collect();
        let out = Tracker::new(ExecStrategy::Auto)
            .track(&catalog, &ids, 2)
            .unwrap();
        assert!(!out.traces.is_empty());
        for trace in &out.traces {
            assert!(trace.points.windows(2).all(|w| w[0].step < w[1].step));
            assert_eq!(trace.first_step(), Some(trace.points[0].step));
            assert!(trace.peak_px().is_finite());
            // Particles present at t=0 are tracked from the first timestep.
            assert_eq!(trace.points[0].step, 0);
        }
        // Every queried id that exists at t=0 has a trace.
        assert_eq!(out.traces.len(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_ids_produce_no_traces() {
        let (catalog, dir, _) = test_catalog("unknown");
        let out = Tracker::new(ExecStrategy::Auto)
            .track(&catalog, &[999_999_999], 2)
            .unwrap();
        assert!(out.traces.is_empty());
        assert_eq!(out.total_hits(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_count_does_not_change_tracking_results() {
        let (catalog, dir, _) = test_catalog("nodes");
        let ids: Vec<u64> = vec![10, 20, 30];
        let serial = Tracker::new(ExecStrategy::Auto)
            .track(&catalog, &ids, 1)
            .unwrap();
        let parallel = Tracker::new(ExecStrategy::Auto)
            .track(&catalog, &ids, 5)
            .unwrap();
        assert_eq!(serial.total_hits(), parallel.total_hits());
        assert_eq!(serial.traces.len(), parallel.traces.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
