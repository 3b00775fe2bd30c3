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

use crate::spec::AppSpec;
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
/// `threads` threads at `seed`. This is the first step of
/// [`calibrate_spread`], and costs one trace draw instead of calibration's
/// forty-one, so a caller can check a whole matrix before running any of it.
pub fn check_reachable(spec: &AppSpec, threads: usize, seed: u64) -> Result<(), Unreachable> {
    let max = spec
        .generate_with_spread(threads, seed, W_MAX)
        .analytic_imbalance();
    if max < spec.target_imbalance {
        return Err(Unreachable {
            app: spec.name.clone(),
            target: spec.target_imbalance,
            max,
            threads,
            seed,
        });
    }
    Ok(())
}

/// Solves the spread `w` for which the generated trace's imbalance matches
/// `spec.target_imbalance`, or reports that even the widest spread falls
/// short of it.
pub fn calibrate_spread(spec: &AppSpec, threads: usize, seed: u64) -> Result<f64, Unreachable> {
    check_reachable(spec, threads, seed)?;
    let imbalance_at = |w: f64| {
        spec.generate_with_spread(threads, seed, w)
            .analytic_imbalance()
    };
    let target = spec.target_imbalance;
    let (mut lo, mut hi) = (0.0_f64, W_MAX);
    for _ in 0..ITERATIONS {
        let mid = 0.5 * (lo + hi);
        if imbalance_at(mid) < target {
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
            let w = calibrate_spread(&s, 64, 11).unwrap();
            let got = s.generate_with_spread(64, 11, w).analytic_imbalance();
            assert!(
                (got - target).abs() < 0.005,
                "target {target}: got {got} at w={w}"
            );
        }
    }

    #[test]
    fn spread_grows_with_target() {
        let w_small = calibrate_spread(&spec(0.05), 32, 3).unwrap();
        let w_large = calibrate_spread(&spec(0.30), 32, 3).unwrap();
        assert!(w_small < w_large);
    }

    #[test]
    fn calibration_is_thread_count_aware() {
        // The same target should be achievable at different machine sizes.
        for threads in [16, 32, 64] {
            let s = spec(0.20);
            let w = calibrate_spread(&s, threads, 5).unwrap();
            let got = s.generate_with_spread(threads, 5, w).analytic_imbalance();
            assert!((got - 0.20).abs() < 0.01, "threads={threads}: {got}");
        }
    }

    #[test]
    fn unreachable_target_is_a_typed_error() {
        let err = calibrate_spread(&spec(0.99), 2, 7).unwrap_err();
        assert_eq!((err.app.as_str(), err.threads, err.seed), ("Cal", 2, 7));
        assert!(err.max < err.target);
        let msg = err.to_string();
        assert!(msg.starts_with("Cal: its Table 2 imbalance of 99.0% is unreachable"));
        assert!(msg.contains("with 2 threads at seed 7"), "{msg}");
    }
}
