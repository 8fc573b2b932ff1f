//! The particle population simulator and dataset writer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use datastore::{Catalog, Column, ParticleTable};
use histogram::Binning;

use crate::config::{Dims, SimConfig};
use crate::physics::{focusing_factor, trapped_px, ParticleState};

/// One macro-particle carried across timesteps.
#[derive(Debug, Clone)]
struct Particle {
    id: u64,
    /// Lab-frame longitudinal position.
    x: f64,
    y: f64,
    z: f64,
    px: f64,
    py: f64,
    pz: f64,
    state: ParticleState,
    /// Momentum the particle had when it was injected (trapped particles).
    px_at_injection: f64,
    /// Transverse position at injection, used for the focusing model.
    y_at_injection: f64,
    z_at_injection: f64,
}

/// Aggregate information about a finished run.
#[derive(Debug, Clone, Default)]
pub struct SimulationSummary {
    /// Particles written per timestep.
    pub particles_per_step: Vec<usize>,
    /// Number of particles ever injected into beam 1.
    pub beam1_count: usize,
    /// Number of particles ever injected into beam 2.
    pub beam2_count: usize,
    /// Total number of distinct particle identifiers generated.
    pub total_ids: u64,
}

/// The synthetic LWFA simulation.
///
/// `Simulation` owns the current particle population; [`Simulation::step`]
/// advances it by one timestep and [`Simulation::snapshot`] produces the
/// columnar table of whatever is currently inside the moving window.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    rng: StdRng,
    particles: Vec<Particle>,
    step: usize,
    next_id: u64,
    summary: SimulationSummary,
}

impl Simulation {
    /// Set up the population of timestep 0.
    pub fn new(config: SimConfig) -> Self {
        let mut sim = Self {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            particles: Vec::new(),
            step: 0,
            next_id: 0,
            summary: SimulationSummary::default(),
        };
        let (lo, hi) = (sim.config.window_lo(0), sim.config.window_hi(0));
        let n = sim.config.particles_per_step;
        for _ in 0..n {
            let p = sim.spawn_background(lo, hi);
            sim.particles.push(p);
        }
        sim
    }

    /// Configuration used by this run.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Summary statistics accumulated so far.
    pub fn summary(&self) -> &SimulationSummary {
        &self.summary
    }

    fn spawn_background(&mut self, x_lo: f64, x_hi: f64) -> Particle {
        let config = &self.config;
        let id = self.next_id;
        self.next_id += 1;
        let transverse = config.transverse_extent;
        let y = self.rng.gen_range(-transverse..transverse);
        let z = match config.dims {
            Dims::TwoD => 0.0,
            Dims::ThreeD => self.rng.gen_range(-transverse..transverse),
        };
        let thermal = config.thermal_momentum;
        let px = self.rng.gen_range(-thermal..thermal).abs();
        let py = self.rng.gen_range(-thermal..thermal) * 0.3;
        let pz = match config.dims {
            Dims::TwoD => 0.0,
            Dims::ThreeD => self.rng.gen_range(-thermal..thermal) * 0.3,
        };
        Particle {
            id,
            x: self.rng.gen_range(x_lo..x_hi),
            y,
            z,
            px,
            py,
            pz,
            state: ParticleState::Background,
            px_at_injection: 0.0,
            y_at_injection: y,
            z_at_injection: z,
        }
    }

    /// Advance the simulation by one timestep: move the window, expire
    /// particles that fell out of it, inject fresh plasma at the leading
    /// edge, trap particles at the configured injection steps, and update
    /// every particle's position and momentum.
    pub fn step(&mut self) {
        let prev_step = self.step;
        self.step += 1;
        let step = self.step;
        let (lo, hi) = (self.config.window_lo(step), self.config.window_hi(step));
        let prev_hi = self.config.window_hi(prev_step);

        // Trapped particles ride with the window; background particles stay
        // (approximately) put in the lab frame and eventually leave through
        // the trailing edge.
        let config = self.config.clone();
        for p in &mut self.particles {
            match p.state {
                ParticleState::Background => {
                    // Small thermal jitter.
                    p.x += p.px.signum() * config.window_speed * 1e-3;
                }
                ParticleState::Trapped {
                    bucket,
                    injected_at,
                } => {
                    let since = step.saturating_sub(injected_at as usize);
                    p.px = trapped_px(&config, bucket, injected_at, step, p.px_at_injection);
                    // Stay inside the bucket, drifting slowly backwards within
                    // it as the paper's xrel traces show.
                    let (b_lo, b_hi) = config.bucket_range(step, bucket as usize);
                    let phase = (p.id % 97) as f64 / 97.0;
                    let drift = (since as f64 * 0.01).min(0.3);
                    p.x = b_lo + (b_hi - b_lo) * ((0.25 + 0.5 * phase) - drift).clamp(0.05, 0.95);
                    let f = focusing_factor(since);
                    p.y = p.y_at_injection * f;
                    p.z = p.z_at_injection * f;
                    p.py = -p.y_at_injection * (1.0 - f) * 1e13;
                    p.pz = -p.z_at_injection * (1.0 - f) * 1e13;
                }
            }
        }

        // Remove particles that left the window.
        self.particles.retain(|p| p.x >= lo && p.x <= hi);

        // Fresh plasma streams in through the leading edge to keep the
        // in-window population roughly constant.
        let deficit = self
            .config
            .particles_per_step
            .saturating_sub(self.particles.len());
        for _ in 0..deficit {
            let p = self.spawn_background(prev_hi.min(hi), hi);
            self.particles.push(p);
        }

        // Injection events: a fraction of the background particles sitting in
        // the target bucket becomes trapped.
        if step == self.config.beam1_injection_step {
            self.inject(1, step);
        }
        if step == self.config.beam2_injection_step {
            self.inject(2, step);
        }
    }

    fn inject(&mut self, bucket: u8, step: usize) {
        let config = self.config.clone();
        let (b_lo, b_hi) = config.bucket_range(step, bucket as usize);
        let want = ((config.particles_per_step as f64) * config.beam_fraction).max(1.0) as usize;
        let mut injected = 0;
        for p in &mut self.particles {
            if injected >= want {
                break;
            }
            if matches!(p.state, ParticleState::Background) && p.x >= b_lo && p.x < b_hi {
                p.state = ParticleState::Trapped {
                    bucket,
                    injected_at: step as u32,
                };
                p.px_at_injection = p.px.abs();
                p.y_at_injection = p.y;
                p.z_at_injection = p.z;
                injected += 1;
            }
        }
        // If the bucket did not contain enough background particles (small
        // test configurations), convert arbitrary background particles and
        // relocate them into the bucket so the beam always exists.
        if injected < want {
            let mut extra = Vec::new();
            for p in &mut self.particles {
                if injected >= want {
                    break;
                }
                if matches!(p.state, ParticleState::Background) {
                    p.state = ParticleState::Trapped {
                        bucket,
                        injected_at: step as u32,
                    };
                    p.x = b_lo + (b_hi - b_lo) * 0.5;
                    p.px_at_injection = p.px.abs();
                    p.y_at_injection = p.y;
                    p.z_at_injection = p.z;
                    injected += 1;
                    extra.push(p.id);
                }
            }
        }
        match bucket {
            1 => self.summary.beam1_count += injected,
            _ => self.summary.beam2_count += injected,
        }
    }

    /// Columnar snapshot of the current population, with the derived `xrel`
    /// column and stable identifiers.
    pub fn snapshot(&self) -> ParticleTable {
        let n = self.particles.len();
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut z = Vec::with_capacity(n);
        let mut px = Vec::with_capacity(n);
        let mut py = Vec::with_capacity(n);
        let mut pz = Vec::with_capacity(n);
        let mut id = Vec::with_capacity(n);
        for p in &self.particles {
            x.push(p.x);
            y.push(p.y);
            z.push(p.z);
            px.push(p.px);
            py.push(p.py);
            pz.push(p.pz);
            id.push(p.id);
        }
        ParticleTable::from_columns(vec![
            Column::float("x", x),
            Column::float("y", y),
            Column::float("z", z),
            Column::float("px", px),
            Column::float("py", py),
            Column::float("pz", pz),
            Column::id("id", id),
        ])
        .expect("columns constructed with equal lengths")
        .with_xrel()
        .expect("x column present")
    }

    /// Run the whole simulation, writing one timestep file per step into
    /// `catalog`. When `index_binning` is provided the per-column bitmap
    /// indexes are built and stored alongside the data (the paper's one-time
    /// preprocessing).
    pub fn run_to_catalog(
        mut self,
        catalog: &mut Catalog,
        index_binning: Option<&Binning>,
    ) -> datastore::Result<SimulationSummary> {
        let steps = self.config.num_timesteps;
        for step in 0..steps {
            if step > 0 {
                self.step();
            }
            let table = self.snapshot();
            self.summary.particles_per_step.push(table.num_rows());
            catalog.write_timestep(step, &table, index_binning)?;
        }
        self.summary.total_ids = self.next_id;
        Ok(self.summary)
    }

    /// Run the whole simulation in memory, returning one table per timestep.
    pub fn run_to_tables(mut self) -> (Vec<ParticleTable>, SimulationSummary) {
        let steps = self.config.num_timesteps;
        let mut tables = Vec::with_capacity(steps);
        for step in 0..steps {
            if step > 0 {
                self.step();
            }
            let table = self.snapshot();
            self.summary.particles_per_step.push(table.num_rows());
            tables.push(table);
        }
        self.summary.total_ids = self.next_id;
        (tables, self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physics::suggested_beam_threshold;
    use std::collections::HashSet;

    fn run_tiny() -> (Vec<ParticleTable>, SimulationSummary, SimConfig) {
        let config = SimConfig::tiny();
        let sim = Simulation::new(config.clone());
        let (tables, summary) = sim.run_to_tables();
        (tables, summary, config)
    }

    #[test]
    fn population_stays_near_target() {
        let (tables, _, config) = run_tiny();
        assert_eq!(tables.len(), config.num_timesteps);
        for t in &tables {
            let n = t.num_rows();
            assert!(
                n >= config.particles_per_step / 2 && n <= config.particles_per_step * 2,
                "population {n} drifted away from target {}",
                config.particles_per_step
            );
        }
    }

    #[test]
    fn snapshots_have_standard_columns() {
        let (tables, _, _) = run_tiny();
        let names = tables[0].column_names();
        for required in datastore::STANDARD_COLUMNS {
            assert!(names.contains(&required), "missing column {required}");
        }
        // xrel is never positive and reaches 0 at the window front.
        let xrel = tables[5].float_column("xrel").unwrap();
        assert!(xrel.iter().all(|&v| v <= 1e-12));
        assert!(xrel.iter().any(|&v| v > -1e-9));
    }

    #[test]
    fn ids_are_unique_within_a_timestep_and_stable_across_time() {
        let (tables, _, config) = run_tiny();
        for t in &tables {
            let ids = t.id_column("id").unwrap();
            let set: HashSet<u64> = ids.iter().copied().collect();
            assert_eq!(set.len(), ids.len(), "duplicate ids in one timestep");
        }
        // A beam particle selected at a late timestep exists at every
        // timestep from injection onward.
        let late = &tables[config.num_timesteps - 1];
        let px = late.float_column("px").unwrap();
        let ids = late.id_column("id").unwrap();
        let threshold = suggested_beam_threshold(&config, config.num_timesteps - 1);
        let beam_ids: HashSet<u64> = ids
            .iter()
            .zip(px.iter())
            .filter(|(_, &p)| p > threshold)
            .map(|(&i, _)| i)
            .collect();
        assert!(
            !beam_ids.is_empty(),
            "no beam particles at the final timestep"
        );
        let at_injection = &tables[config.beam1_injection_step + 1];
        let present: HashSet<u64> = at_injection
            .id_column("id")
            .unwrap()
            .iter()
            .copied()
            .collect();
        let found = beam_ids.iter().filter(|i| present.contains(i)).count();
        assert!(
            found * 2 >= beam_ids.len(),
            "most beam particles should already exist shortly after injection ({found}/{})",
            beam_ids.len()
        );
    }

    #[test]
    fn beams_are_separable_by_momentum_threshold() {
        let (tables, summary, config) = run_tiny();
        assert!(summary.beam1_count > 0 && summary.beam2_count > 0);
        let late_step = config.beam1_dephasing_step.min(config.num_timesteps - 1);
        let late = &tables[late_step];
        let px = late.float_column("px").unwrap();
        let threshold = suggested_beam_threshold(&config, late_step);
        let beam = px.iter().filter(|&&p| p > threshold).count();
        let expected = summary.beam1_count + summary.beam2_count;
        assert!(
            beam >= expected / 2 && beam <= expected * 2,
            "px threshold should isolate roughly the injected beams: got {beam}, injected {expected}"
        );
    }

    #[test]
    fn beam1_peaks_before_the_end_and_beam2_overtakes() {
        let mut config = SimConfig::tiny();
        config.num_timesteps = 38; // full 2D schedule
        let sim = Simulation::new(config.clone());
        let (tables, _) = sim.run_to_tables();
        // Identify bucket-1 and bucket-2 particles by x position at the
        // final step: bucket 1 is the leading bunch.
        let last = &tables[37];
        let x = last.float_column("x").unwrap();
        let px = last.float_column("px").unwrap();
        let threshold = suggested_beam_threshold(&config, 37);
        let (b1_range, b2_range) = (config.bucket_range(37, 1), config.bucket_range(37, 2));
        let mean = |lo: f64, hi: f64| {
            let vals: Vec<f64> = x
                .iter()
                .zip(px.iter())
                .filter(|(&xv, &pv)| pv > threshold && xv >= lo && xv < hi)
                .map(|(_, &pv)| pv)
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        let beam1_final = mean(b1_range.0, b1_range.1);
        let beam2_final = mean(b2_range.0, b2_range.1);
        assert!(
            beam1_final > 0.0 && beam2_final > 0.0,
            "both beams present at t=37"
        );
        assert!(
            beam2_final > beam1_final,
            "after dephasing the second beam has the higher momentum (b1={beam1_final:.3e}, b2={beam2_final:.3e})"
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = Simulation::new(SimConfig::tiny()).run_to_tables().0;
        let b = Simulation::new(SimConfig::tiny()).run_to_tables().0;
        assert_eq!(a.len(), b.len());
        for (ta, tb) in a.iter().zip(b.iter()) {
            assert_eq!(
                ta.float_column("px").unwrap(),
                tb.float_column("px").unwrap()
            );
            assert_eq!(ta.id_column("id").unwrap(), tb.id_column("id").unwrap());
        }
    }

    #[test]
    fn catalog_run_writes_every_timestep() {
        let dir = std::env::temp_dir().join(format!("vdx_lwfa_cat_{}", std::process::id()));
        let mut catalog = Catalog::create(&dir).unwrap();
        let mut config = SimConfig::tiny();
        config.particles_per_step = 500;
        config.num_timesteps = 6;
        let summary = Simulation::new(config)
            .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 16 }))
            .unwrap();
        assert_eq!(catalog.num_timesteps(), 6);
        assert_eq!(summary.particles_per_step.len(), 6);
        let ds = catalog.load(3, None, true).unwrap();
        assert!(!ds.indexed_columns().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
