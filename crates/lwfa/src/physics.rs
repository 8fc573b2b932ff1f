//! Momentum and position evolution of background and trapped particles.
//!
//! The model is deliberately phenomenological: it does not solve Maxwell's
//! equations, it reproduces the *kinematic signatures* the paper's analysis
//! depends on (trapping, acceleration, dephasing, transverse focusing).

use crate::config::SimConfig;

/// Dynamical state of one macro-particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticleState {
    /// Untrapped plasma electron drifting with thermal momentum.
    Background,
    /// Trapped in wake bucket `bucket` (1 = first period behind the pulse)
    /// since timestep `injected_at`.
    Trapped {
        /// Wake period the particle was injected into.
        bucket: u8,
        /// Timestep of injection.
        injected_at: u32,
    },
}

/// Longitudinal momentum of a trapped particle at `step`.
///
/// The particle gains `acceleration_per_step` every step after injection.
/// Particles in bucket 1 outrun the wave at `beam1_dephasing_step` and lose
/// momentum afterwards; bucket 2 keeps accelerating for the whole run, which
/// is why it shows the higher momentum at the final timestep even though
/// bucket 1 reached the higher peak (paper, Section IV-B).
pub fn trapped_px(
    config: &SimConfig,
    bucket: u8,
    injected_at: u32,
    step: usize,
    px_at_injection: f64,
) -> f64 {
    let steps_since = step.saturating_sub(injected_at as usize) as f64;
    if bucket == 1 && step > config.beam1_dephasing_step {
        let accel_steps = (config
            .beam1_dephasing_step
            .saturating_sub(injected_at as usize)) as f64;
        let decel_steps = (step - config.beam1_dephasing_step) as f64;
        px_at_injection + accel_steps * config.acceleration_per_step
            - decel_steps * config.deceleration_per_step
    } else {
        px_at_injection + steps_since * config.acceleration_per_step
    }
}

/// Transverse focusing factor at `steps_since` injection: trapped particles
/// start at the bucket edge and are pulled toward the axis over a few steps
/// (Figure 8's "become strongly focused and define the centre of the beam").
pub fn focusing_factor(steps_since: usize) -> f64 {
    1.0 / (1.0 + 0.6 * steps_since as f64)
}

/// The `px` threshold that separates trapped particles from the thermal
/// background at `step` — a helper used by examples to pick paper-style
/// selection thresholds automatically.
pub fn suggested_beam_threshold(config: &SimConfig, step: usize) -> f64 {
    let earliest = config.beam1_injection_step.min(config.beam2_injection_step) as u32;
    let floor = 10.0 * config.thermal_momentum;
    let beam = 0.25 * trapped_px(config, 2, earliest, step, 0.0);
    beam.max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beam1_accelerates_then_decelerates() {
        let c = SimConfig::paper_2d(1000);
        let injected = c.beam1_injection_step as u32;
        let at_20 = trapped_px(&c, 1, injected, 20, 0.0);
        let at_peak = trapped_px(&c, 1, injected, c.beam1_dephasing_step, 0.0);
        let at_37 = trapped_px(&c, 1, injected, 37, 0.0);
        assert!(at_20 < at_peak);
        assert!(at_37 < at_peak, "beam 1 must decelerate after dephasing");
        assert!(at_37 > 0.0);
    }

    #[test]
    fn beam2_keeps_accelerating_and_overtakes_beam1_at_the_end() {
        let c = SimConfig::paper_2d(1000);
        let b1 = trapped_px(&c, 1, c.beam1_injection_step as u32, 37, 0.0);
        let b2 = trapped_px(&c, 2, c.beam2_injection_step as u32, 37, 0.0);
        assert!(
            b2 >= b1,
            "by the final timestep the second beam shows equal or higher px (paper IV-B): b1={b1} b2={b2}"
        );
        // But at peak time beam 1 is the more energetic one.
        let peak_step = c.beam1_dephasing_step;
        let b1_peak = trapped_px(&c, 1, c.beam1_injection_step as u32, peak_step, 0.0);
        let b2_then = trapped_px(&c, 2, c.beam2_injection_step as u32, peak_step, 0.0);
        assert!(b1_peak >= b2_then * 0.9);
    }

    #[test]
    fn focusing_shrinks_with_time() {
        assert!(focusing_factor(0) > focusing_factor(2));
        assert!(focusing_factor(2) > focusing_factor(10));
        assert!(focusing_factor(10) > 0.0);
    }

    #[test]
    fn suggested_threshold_separates_background() {
        let c = SimConfig::paper_2d(1000);
        let t = suggested_beam_threshold(&c, 37);
        assert!(t > 5.0 * c.thermal_momentum);
        let final_beam2 = trapped_px(&c, 2, c.beam2_injection_step as u32, 37, 0.0);
        assert!(t < final_beam2);
    }
}
