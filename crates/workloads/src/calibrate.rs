//! Calibration of the imbalance spread.
//!
//! For each application we must choose the work-spread `w` so that the
//! generated trace's *measured* baseline barrier imbalance equals the
//! paper's Table 2 value. The mapping `w → imbalance` is monotone (more
//! spread, more stall) and continuous for a fixed random stream, so a
//! simple bisection over `w ∈ [0, 1)` converges quickly. The measurement
//! used during calibration is [`crate::AppTrace::analytic_imbalance`],
//! which matches the full machine simulation to well under a percentage
//! point because barrier entry/exit overheads are microseconds against
//! millisecond intervals.
//!
//! The random stream does not depend on `w`, so a trace is drawn once
//! and every bisection step evaluates that one draw at its spread:
//! arithmetic only, returning exactly the imbalance of the trace the draw
//! builds at that spread. The trace is then built from the same draw.

use crate::spec::AppSpec;
use crate::trace::Draw;
use std::fmt;

/// Upper bound of the spread parameter (exclusive); at `w → 1` every
/// thread's work goes to zero except the stragglers'.
const W_MAX: f64 = 0.999;

/// Bisection iterations; 40 halvings of `[0,1]` reach ~1e-12 resolution.
const ITERATIONS: u32 = 40;

/// A Table 2 imbalance that no spread reaches for this thread count and
/// seed: with few threads even the widest spread leaves too little stall
/// (Volrend's 48.2 % needs more than two threads).
#[derive(Debug, Clone, PartialEq)]
pub struct Unreachable {
    /// The application.
    pub app: String,
    /// Its Table 2 imbalance target, as a fraction.
    pub target: f64,
    /// The imbalance at the widest spread, as a fraction.
    pub max: f64,
    /// Threads the trace was generated for.
    pub threads: usize,
    /// The workload seed.
    pub seed: u64,
}

impl fmt::Display for Unreachable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: its Table 2 imbalance of {:.1}% is unreachable with {} threads at seed {} \
             (at most {:.1}%)",
            self.app,
            self.target * 100.0,
            self.threads,
            self.seed,
            self.max * 100.0
        )
    }
}

impl std::error::Error for Unreachable {}

/// Checks that the widest spread reaches `spec.target_imbalance` with
/// `threads` threads at `seed`. This is the first step of a trace's
/// calibration, and costs one trace draw and no bisection, so a caller can
/// check a whole matrix before running any of it.
pub fn check_reachable(spec: &AppSpec, threads: usize, seed: u64) -> Result<(), Unreachable> {
    reachable(spec, &Draw::new(spec, threads, seed), seed)
}

/// [`check_reachable`] on an existing draw.
fn reachable(spec: &AppSpec, draw: &Draw, seed: u64) -> Result<(), Unreachable> {
    let max = draw.imbalance(W_MAX);
    if max < spec.target_imbalance {
        return Err(Unreachable {
            app: spec.name.clone(),
            target: spec.target_imbalance,
            max,
            threads: draw.threads(),
            seed,
        });
    }
    Ok(())
}

/// Solves the spread `w` at which `draw`, a draw of `spec` from `seed`,
/// builds a trace whose imbalance matches `spec.target_imbalance`, or
/// reports that even the widest spread falls short of it.
pub(crate) fn calibrate_spread(spec: &AppSpec, draw: &Draw, seed: u64) -> Result<f64, Unreachable> {
    reachable(spec, draw, seed)?;
    let target = spec.target_imbalance;
    let (mut lo, mut hi) = (0.0_f64, W_MAX);
    for _ in 0..ITERATIONS {
        let mid = 0.5 * (lo + hi);
        if draw.imbalance(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PhaseSpec, Variability};
    use tb_sim::Cycles;

    fn spec(target: f64) -> AppSpec {
        AppSpec {
            name: "Cal".into(),
            problem_size: "x".into(),
            target_imbalance: target,
            setup_phases: vec![],
            loop_phases: vec![PhaseSpec::new(
                1,
                Cycles::from_micros(1000),
                0,
                Variability::Stable { jitter: 0.0 },
            )],
            iterations: 30,
            skew: 2.0,
        }
    }

    #[test]
    fn hits_low_and_high_targets() {
        for target in [0.01, 0.05, 0.16, 0.30, 0.482] {
            let s = spec(target);
            let t = s.try_generate(64, 11).unwrap();
            let got = t.analytic_imbalance();
            assert!(
                (got - target).abs() < 0.005,
                "target {target}: got {got} at w={}",
                t.spread
            );
        }
    }

    #[test]
    fn spread_grows_with_target() {
        let w_small = spec(0.05).try_generate(32, 3).unwrap().spread;
        let w_large = spec(0.30).try_generate(32, 3).unwrap().spread;
        assert!(w_small < w_large);
    }

    #[test]
    fn calibration_is_thread_count_aware() {
        // The same target should be achievable at different machine sizes.
        for threads in [16, 32, 64] {
            let s = spec(0.20);
            let got = s.try_generate(threads, 5).unwrap().analytic_imbalance();
            assert!((got - 0.20).abs() < 0.01, "threads={threads}: {got}");
        }
    }

    #[test]
    fn unreachable_target_is_a_typed_error() {
        // Two threads stall at most half the interval.
        let err = spec(0.6).try_generate(2, 7).unwrap_err();
        assert_eq!((err.app.as_str(), err.threads, err.seed), ("Cal", 2, 7));
        assert!(err.max < err.target);
        let msg = err.to_string();
        assert!(msg.starts_with("Cal: its Table 2 imbalance of 60.0% is unreachable"));
        assert!(msg.contains("with 2 threads at seed 7"), "{msg}");
    }
}
