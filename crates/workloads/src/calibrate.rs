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
//!
//! # Levels decided in closed form
//!
//! Before rounding, thread `t` of step `s` computes
//! `base_s·((1 − w) + w·x_st)`, and the slowest one
//! `base_s·((1 − w) + w·peak_s)`. Summed over `n` threads and `S` steps,
//! the unrounded trace stalls `w·A` cycles of `B + w·C`, so its imbalance
//! is `w·A / (B + w·C)`, where
//!
//! ```text
//! A = Σ_s base_s·(n·peak_s − Σ_t x_st)
//! B = n·Σ_s base_s
//! C = n·Σ_s base_s·(peak_s − 1)
//! ```
//!
//! The exact trace is below the target `τ` when its gap `stall − τ·total`
//! is negative. A step adds `n·(1 − τ)` times its slowest compute time
//! less the sum of all of them to that gap. Each rounded compute time is
//! within `δ` of its unrounded value: half a cycle of rounding, or one
//! cycle where the one-cycle floor may apply (where the smallest scaled
//! base times `1 − w` is below one cycle). So the exact gap is within
//! `δ·S·(|n·(1 − τ) − 1| + n − 1)` cycles of the unrounded gap
//! `w·A − τ·(B + w·C)`. With `N = n·S` compute times, a slack of
//! `(N + 16)·2^-50·(B + N)` cycles covers every f64 rounding: the compute
//! times' own, the sums of `A`, `B` and `C`, the f64 sums of a total past
//! 2^53, and the division the exact imbalance ends with.
//!
//! A spread where the bound puts the gap wholly below zero, or wholly at
//! or above it, takes that branch without evaluating the draw. The rest
//! are evaluated exactly: about half of the 40 levels, and the widest
//! spread's reachability check only when the bound leaves it open, which
//! it always does for an unreachable target. The levels, and so the
//! spread, are those of a bisection that evaluates every level. A draw
//! with a negative scaled base, or one of 2^52 cycles or more, which could
//! saturate, evaluates every level, as does one with a work share above
//! one.

use crate::spec::AppSpec;
use crate::trace::{Draw, INTEGRAL};
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
/// calibration, and costs one trace draw, at most one evaluation of it and
/// no bisection, so a caller can check a whole matrix before running any
/// of it.
pub fn check_reachable(spec: &AppSpec, threads: usize, seed: u64) -> Result<(), Unreachable> {
    let draw = Draw::new(spec, threads, seed);
    let bound = Bound::new(&draw, spec.target_imbalance);
    reachable(spec, &draw, seed, bound.as_ref(), |w| draw.imbalance(w))
}

/// [`check_reachable`] on an existing draw and its bound, evaluating the
/// draw through `exact` only if the bound leaves the widest spread open.
fn reachable(
    spec: &AppSpec,
    draw: &Draw,
    seed: u64,
    bound: Option<&Bound>,
    exact: impl FnOnce(f64) -> f64,
) -> Result<(), Unreachable> {
    if bound.and_then(|b| b.below(W_MAX)) == Some(false) {
        return Ok(());
    }
    let max = exact(W_MAX);
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
    solve(spec, draw, seed, |w| draw.imbalance(w))
}

/// [`calibrate_spread`], evaluating the draw's imbalance through `exact`
/// only at the spreads the bound leaves open.
fn solve(
    spec: &AppSpec,
    draw: &Draw,
    seed: u64,
    mut exact: impl FnMut(f64) -> f64,
) -> Result<f64, Unreachable> {
    let target = spec.target_imbalance;
    let bound = Bound::new(draw, target);
    reachable(spec, draw, seed, bound.as_ref(), &mut exact)?;
    let (mut lo, mut hi) = (0.0_f64, W_MAX);
    for _ in 0..ITERATIONS {
        let mid = 0.5 * (lo + hi);
        let below = bound
            .as_ref()
            .and_then(|b| b.below(mid))
            .unwrap_or_else(|| exact(mid) < target);
        if below {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// The closed-form imbalance of a draw's unrounded trace, `w·A / (B +
/// w·C)`, with the slack that bounds the exact trace's distance from the
/// target around it (see the module documentation).
struct Bound {
    a: f64,
    b: f64,
    c: f64,
    target: f64,
    /// The smallest scaled base: below one cycle over `1 − w`, some
    /// compute time may sit at the one-cycle floor.
    min_base: f64,
    /// The slack per cycle of error in each compute time.
    per_cycle: f64,
    /// The slack for f64 rounding.
    rounding: f64,
}

impl Bound {
    /// The bound of `draw` for `target`, or `None` when a scaled base is
    /// negative or reaches 2^52 cycles, or a work share exceeds one (a
    /// skew below zero, which only an unvalidated spec can have).
    fn new(draw: &Draw, target: f64) -> Option<Bound> {
        let n = draw.threads() as f64;
        let (mut a, mut bases, mut c, mut steps) = (0.0, 0.0, 0.0, 0.0);
        let mut min_base = f64::INFINITY;
        for (step, shares) in draw.steps() {
            let (base, peak) = (step.base, step.peak);
            if !(0.0..INTEGRAL).contains(&base) || !(0.0..=1.0).contains(&peak) {
                return None;
            }
            a += base * (n * peak - shares.iter().sum::<f64>());
            bases += base;
            c += base * (peak - 1.0);
            min_base = min_base.min(base);
            steps += 1.0;
        }
        let (b, c, values) = (n * bases, n * c, n * steps);
        Some(Bound {
            a,
            b,
            c,
            target,
            min_base,
            per_cycle: steps * ((n * (1.0 - target) - 1.0).abs() + n - 1.0),
            rounding: (values + 16.0) * f64::powi(2.0, -50) * (b + values),
        })
    }

    /// Whether the draw's exact imbalance at `spread` lies below the
    /// target, when the bound decides it.
    fn below(&self, spread: f64) -> Option<bool> {
        let gap = spread * self.a - self.target * (self.b + spread * self.c);
        let max_error = if self.min_base * (1.0 - spread) >= 1.0 {
            0.5
        } else {
            1.0
        };
        let slack = max_error * self.per_cycle + self.rounding;
        if gap + slack < 0.0 {
            Some(true)
        } else if gap - slack >= 0.0 {
            Some(false)
        } else {
            None
        }
    }
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

    /// The paper's seed (`tb_machine::run::PAPER_SEED`).
    const PAPER_SEED: u64 = 0x7B41;

    /// Every Table 2 trace at 8 and 64 threads, as its spec and draw.
    fn table2_draws() -> impl Iterator<Item = (AppSpec, Draw)> {
        AppSpec::splash2().into_iter().flat_map(|app| {
            [8, 64].map(|threads| {
                let draw = Draw::new(&app, threads, PAPER_SEED);
                (app.clone(), draw)
            })
        })
    }

    #[test]
    fn bound_leaves_at_most_24_exact_evaluations_per_table2_trace() {
        for (app, draw) in table2_draws() {
            let mut evaluations = 0;
            let got = solve(&app, &draw, PAPER_SEED, |w| {
                evaluations += 1;
                draw.imbalance(w)
            });
            assert!(
                evaluations <= 24,
                "{} at {} threads: {evaluations} exact evaluations",
                app.name,
                draw.threads()
            );
            assert_eq!(got, calibrate_spread(&app, &draw, PAPER_SEED));
        }
    }

    #[test]
    fn exact_imbalance_agrees_with_every_level_the_bound_decides() {
        for (app, draw) in table2_draws() {
            let target = app.target_imbalance;
            let bound = Bound::new(&draw, target).expect("Table 2 bases are small");
            let mut decided = 0;
            let mut check = |w: f64| {
                let below = draw.imbalance(w) < target;
                if let Some(decision) = bound.below(w) {
                    assert_eq!(decision, below, "{} at w={w}", app.name);
                    decided += 1;
                }
                below
            };
            check(W_MAX);
            let (mut lo, mut hi) = (0.0_f64, W_MAX);
            for _ in 0..ITERATIONS {
                let mid = 0.5 * (lo + hi);
                if check(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            assert!(decided >= 17, "{}: {decided} levels decided", app.name);
        }
    }

    #[test]
    fn bound_allows_a_whole_cycle_at_the_one_cycle_floor() {
        // At the widest spread seven of eight threads compute 0.01 cycles
        // and are floored to one, 0.99 cycles up each. The exact imbalance,
        // 63/80, is below a target of 0.8 that the unrounded one, 69.93/80,
        // exceeds by more than half a cycle per thread could explain.
        let draw = Draw::from_steps(&[(10.0, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])]);
        assert_eq!(draw.imbalance(W_MAX), 63.0 / 80.0);
        assert_eq!(Bound::new(&draw, 0.8).unwrap().below(W_MAX), None);
        assert_eq!(Bound::new(&draw, 0.5).unwrap().below(W_MAX), Some(false));
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
