//! Deterministic trace generation.
//!
//! A trace is the fully materialized list of barrier episodes: for every
//! dynamic barrier instance, the compute duration of each thread in the
//! phase leading to it. Generation is a pure function of (spec, threads,
//! seed), so every experiment in the repository replays exactly.
//!
//! The per-thread work model within one phase instance is
//!
//! ```text
//! T(thread) = base · scale(instance) · ((1 − w) + w · X(thread))
//! ```
//!
//! with `X = U^skew` for `U ~ Uniform[0,1)` drawn independently per
//! (instance, thread) — so the straggler identity shifts across instances,
//! which is precisely why *direct* BST prediction is hard while the
//! interval (`max T`) stays stable (§3.2, Figure 3). The spread `w ∈ [0,1)`
//! is calibrated by [`crate::calibrate`] so the trace's measured imbalance
//! matches Table 2.

use crate::calibrate::{calibrate_spread, Unreachable};
use crate::spec::{AppSpec, PhaseSpec, Variability};
use serde::{Deserialize, Serialize};
use tb_sim::{Cycles, SimRng};

/// One barrier episode: a phase instance and each thread's compute time in
/// it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStep {
    /// The barrier site ending the phase.
    pub pc: u64,
    /// Per-thread compute duration for this interval.
    pub compute: Vec<Cycles>,
    /// Dirty shared lines each thread produced during the phase.
    pub dirty_lines: u32,
}

impl TraceStep {
    /// The phase's interval floor: the slowest thread's compute time (the
    /// true interval also includes barrier entry/exit overheads).
    pub fn max_compute(&self) -> Cycles {
        self.compute.iter().copied().max().unwrap_or(Cycles::ZERO)
    }

    /// A thread's stall in a perfectly-synchronized execution.
    pub fn ideal_stall(&self, thread: usize) -> Cycles {
        self.max_compute() - self.compute[thread]
    }
}

/// A fully materialized application run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppTrace {
    /// The application's name.
    pub app_name: String,
    /// Thread (= processor) count.
    pub threads: usize,
    /// Barrier episodes in execution order.
    pub steps: Vec<TraceStep>,
    /// The calibrated spread `w` that hit the target imbalance.
    pub spread: f64,
}

impl AppTrace {
    /// The barrier imbalance of this trace under ideal (zero-overhead)
    /// barriers: total stall time over total CPU time.
    pub fn analytic_imbalance(&self) -> f64 {
        let mut stall = 0.0;
        let mut total = 0.0;
        for step in &self.steps {
            let max = step.max_compute().as_u64() as f64;
            for c in &step.compute {
                stall += max - c.as_u64() as f64;
                total += max;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            stall / total
        }
    }

    /// Wall-clock time of an ideal execution: the sum of interval floors.
    pub fn ideal_duration(&self) -> Cycles {
        self.steps.iter().map(|s| s.max_compute()).sum()
    }

    /// Returns a copy of the trace with preemption/I-O disturbances
    /// injected (§3.4.2 of the paper): with probability `prob` per episode,
    /// one randomly chosen thread's compute time is extended by `delay`.
    ///
    /// The last thread to arrive then measures an inordinately long BIT,
    /// which the underprediction filter should refuse to install in the
    /// prediction table.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn with_disturbance(&self, seed: u64, prob: f64, delay: Cycles) -> AppTrace {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0,1]");
        let mut rng = SimRng::new(seed).derive("disturbance", 0);
        let mut out = self.clone();
        for step in &mut out.steps {
            if rng.chance(prob) {
                let victim = rng.below(step.compute.len() as u64) as usize;
                step.compute[victim] += delay;
            }
        }
        out
    }

    /// Number of barrier episodes.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the trace has no episodes.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Generates one phase instance's per-thread compute times.
pub(crate) fn instance_compute(
    phase: &PhaseSpec,
    iteration: u32,
    threads: usize,
    spread: f64,
    skew: f64,
    rng: &mut SimRng,
) -> Vec<Cycles> {
    let is_low = match phase.variability {
        Variability::Swing { low_prob, .. } => rng.chance(low_prob),
        _ => false,
    };
    let jitter = phase.variability.jitter();
    let jitter_scale = if jitter > 0.0 {
        (1.0 + rng.normal(0.0, jitter)).max(0.05)
    } else {
        1.0
    };
    let scale = phase.variability.base_scale(iteration, is_low) * jitter_scale;
    let base = phase.base_interval.as_u64() as f64 * scale;
    (0..threads)
        .map(|_| {
            let x = rng.uniform().powf(skew);
            let t = base * ((1.0 - spread) + spread * x);
            Cycles::new(t.max(1.0).round() as u64)
        })
        .collect()
}

impl AppSpec {
    /// Generates the deterministic trace of this application for `threads`
    /// processors from `seed`, calibrating the imbalance spread so the
    /// trace matches the Table 2 target.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`AppSpec::validate`], `threads < 2`, or
    /// the target is [`Unreachable`] (see [`AppSpec::try_generate`]).
    pub fn generate(&self, threads: usize, seed: u64) -> AppTrace {
        self.try_generate(threads, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`AppSpec::generate`], but returns an [`Unreachable`] error
    /// when no spread reaches the Table 2 imbalance with `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`AppSpec::validate`] or `threads < 2`.
    pub fn try_generate(&self, threads: usize, seed: u64) -> Result<AppTrace, Unreachable> {
        self.validate();
        assert!(threads >= 2, "imbalance needs at least two threads");
        let spread = calibrate_spread(self, threads, seed)?;
        Ok(self.generate_with_spread(threads, seed, spread))
    }

    /// Like [`AppSpec::generate`], but returns the trace behind an
    /// [`Arc`](std::sync::Arc) so experiment harnesses can hand one
    /// materialized trace to many concurrent consumers (the full config
    /// matrix, replicated seeds) without cloning the step list.
    pub fn generate_shared(&self, threads: usize, seed: u64) -> std::sync::Arc<AppTrace> {
        std::sync::Arc::new(self.generate(threads, seed))
    }

    /// Generates the trace with an explicit spread (used by calibration
    /// itself and by tests).
    pub fn generate_with_spread(&self, threads: usize, seed: u64, spread: f64) -> AppTrace {
        let root = SimRng::new(seed).derive(&self.name, 0);
        let mut steps = Vec::with_capacity(
            self.setup_phases.len() + self.loop_phases.len() * self.iterations as usize,
        );
        for (i, phase) in self.setup_phases.iter().enumerate() {
            let mut rng = root.derive("setup", i as u64);
            steps.push(TraceStep {
                pc: phase.pc,
                compute: instance_compute(phase, 0, threads, spread, self.skew, &mut rng),
                dirty_lines: phase.dirty_lines,
            });
        }
        for iter in 0..self.iterations {
            for (p, phase) in self.loop_phases.iter().enumerate() {
                let mut rng = root.derive("loop", (iter as u64) << 16 | p as u64);
                steps.push(TraceStep {
                    pc: phase.pc,
                    compute: instance_compute(phase, iter, threads, spread, self.skew, &mut rng),
                    dirty_lines: phase.dirty_lines,
                });
            }
        }
        AppTrace {
            app_name: self.name.clone(),
            threads,
            steps,
            spread,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AppSpec {
        AppSpec {
            name: "T".into(),
            problem_size: "x".into(),
            target_imbalance: 0.16,
            setup_phases: vec![PhaseSpec::new(
                1,
                Cycles::from_micros(300),
                16,
                Variability::Stable { jitter: 0.0 },
            )],
            loop_phases: vec![
                PhaseSpec::new(
                    10,
                    Cycles::from_micros(800),
                    32,
                    Variability::Stable { jitter: 0.02 },
                ),
                PhaseSpec::new(
                    11,
                    Cycles::from_micros(400),
                    32,
                    Variability::Stable { jitter: 0.02 },
                ),
            ],
            iterations: 10,
            skew: 2.0,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec();
        let a = s.generate(16, 7);
        let b = s.generate(16, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn generate_shared_matches_generate() {
        let s = spec();
        let owned = s.generate(8, 7);
        let shared = s.generate_shared(8, 7);
        assert_eq!(*shared, owned);
        // Cloning the handle shares the allocation rather than the steps.
        let other = std::sync::Arc::clone(&shared);
        assert!(std::sync::Arc::ptr_eq(&shared, &other));
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec();
        let a = s.generate(16, 7);
        let b = s.generate(16, 8);
        assert_ne!(a.steps, b.steps);
    }

    #[test]
    fn step_layout_matches_spec() {
        let s = spec();
        let t = s.generate(8, 1);
        assert_eq!(t.len(), 1 + 2 * 10);
        assert_eq!(t.steps[0].pc, 1);
        assert_eq!(t.steps[1].pc, 10);
        assert_eq!(t.steps[2].pc, 11);
        assert_eq!(t.steps[3].pc, 10);
        assert!(t.steps.iter().all(|st| st.compute.len() == 8));
        assert!(!t.is_empty());
    }

    #[test]
    fn calibration_hits_target() {
        let s = spec();
        let t = s.generate(64, 3);
        assert!(
            (t.analytic_imbalance() - 0.16).abs() < 0.015,
            "calibrated imbalance {} vs target 0.16",
            t.analytic_imbalance()
        );
    }

    #[test]
    fn spread_zero_is_perfectly_balanced() {
        let s = spec();
        let t = s.generate_with_spread(8, 1, 0.0);
        assert!(t.analytic_imbalance() < 1e-9);
        for step in &t.steps {
            let first = step.compute[0];
            assert!(step.compute.iter().all(|&c| c == first));
        }
    }

    #[test]
    fn imbalance_monotone_in_spread() {
        let s = spec();
        let low = s.generate_with_spread(32, 1, 0.2).analytic_imbalance();
        let high = s.generate_with_spread(32, 1, 0.8).analytic_imbalance();
        assert!(low < high);
    }

    #[test]
    fn ideal_stall_and_duration() {
        let s = spec();
        let t = s.generate(4, 2);
        let step = &t.steps[0];
        let max = step.max_compute();
        for (i, &c) in step.compute.iter().enumerate() {
            assert_eq!(step.ideal_stall(i), max - c);
        }
        assert_eq!(
            t.ideal_duration(),
            t.steps.iter().map(|s| s.max_compute()).sum::<Cycles>()
        );
    }

    #[test]
    fn pc_indexed_interval_is_stable_but_bst_is_not() {
        // The Figure 3 phenomenon: per-site interval CV is small, while a
        // single thread's stall varies a lot across instances of the site.
        let s = spec();
        let t = s.generate(64, 5);
        let mut intervals = tb_sim::OnlineStats::new();
        let mut stalls = tb_sim::OnlineStats::new();
        for step in t.steps.iter().filter(|st| st.pc == 10) {
            intervals.push(step.max_compute().as_u64() as f64);
            stalls.push(step.ideal_stall(3).as_u64() as f64);
        }
        assert!(
            intervals.cv() < 0.5 * stalls.cv(),
            "interval CV {} should be well below BST CV {}",
            intervals.cv(),
            stalls.cv()
        );
    }

    #[test]
    fn swing_produces_bimodal_intervals() {
        let mut s = spec();
        s.loop_phases = vec![PhaseSpec::new(
            20,
            Cycles::from_micros(1000),
            16,
            Variability::Swing {
                low_scale: 0.1,
                low_prob: 0.5,
                jitter: 0.0,
            },
        )];
        s.iterations = 40;
        let t = s.generate_with_spread(8, 9, 0.3);
        let mut low = 0;
        let mut high = 0;
        for step in &t.steps[1..] {
            if step.max_compute() < Cycles::from_micros(500) {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(low > 5, "short instances occur ({low})");
        assert!(high > 5, "long instances occur ({high})");
    }

    #[test]
    #[should_panic(expected = "at least two threads")]
    fn single_thread_rejected() {
        spec().generate(1, 0);
    }

    #[test]
    fn disturbance_extends_some_episodes() {
        let s = spec();
        let t = s.generate(8, 3);
        let d = t.with_disturbance(7, 0.5, Cycles::from_millis(50));
        assert_eq!(d.len(), t.len());
        let extended = t
            .steps
            .iter()
            .zip(&d.steps)
            .filter(|(a, b)| b.max_compute() > a.max_compute())
            .count();
        assert!(extended > 2, "some episodes disturbed ({extended})");
        assert!(extended < t.len(), "not all episodes disturbed");
        // Undisturbed episodes are bit-identical.
        assert!(t.steps.iter().zip(&d.steps).any(|(a, b)| a == b));
    }

    #[test]
    fn disturbance_probability_zero_is_identity() {
        let t = spec().generate(8, 3);
        assert_eq!(t.with_disturbance(1, 0.0, Cycles::from_millis(1)), t);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn disturbance_rejects_bad_probability() {
        let t = spec().generate(8, 3);
        let _ = t.with_disturbance(1, 1.5, Cycles::ZERO);
    }
}
