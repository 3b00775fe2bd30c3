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
//!
//! # Exact imbalance
//!
//! A trace's imbalance is defined by f64 sums over its cycles, in step
//! and then thread order: `stall += max − c` and `total += max` for each
//! thread's compute time `c`, then `stall / total`. Every compute time is
//! an integer, so while the total stays below 2^53 every partial sum of
//! both is an integer below 2^53, exact in f64, and equal to the integer
//! sum. The imbalance is therefore computed in integers and divided once,
//! which gives the f64 result bit for bit; the Table 2 traces stay below
//! 2·10^11 cycles. A total at or above 2^53 is summed in f64 in the
//! defining order instead.
//!
//! A compute time `t` of at least one cycle is rounded half away from
//! zero. On `[1, 2^52)` that is the floor of `t + 0.5`, which is exact or
//! rounds to a value with the same floor. The floor is read off the bits
//! of `t + 0.5 + 2^52`, the nearest integer to `t + 0.5` (the f64s in
//! `[2^52, 2^53]` are exactly the integers), less one if that integer is
//! above `t + 0.5`. No float-to-integer conversion is needed, so a loop
//! over a draw's threads vectorizes. A draw checks once whether every
//! compute time stays below 2^52 cycles at any spread; if so, its
//! imbalance rounds with that alone. At and above 2^52 every f64 is an
//! integer, so `t as u64` is the rounded value, and `as` saturates at
//! `u64::MAX`.

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
        imbalance(self.steps.iter().map(|step| {
            let max = step.max_compute().as_u64();
            (max, step.compute.iter().map(|c| c.as_u64()))
        }))
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

/// Stall time over CPU time under ideal barriers. `steps` yields each
/// step's slowest compute time and then every thread's, in cycles. The
/// result is that of f64 sums over steps and then over each step's
/// threads (see the module documentation for why integer sums give it).
fn imbalance<S, C>(steps: S) -> f64
where
    S: Iterator<Item = (u64, C)> + Clone,
    C: ExactSizeIterator<Item = u64>,
{
    // A step's compute sum wraps only if the total passes 2^64.
    let (mut total, mut compute) = (0_u128, 0_u128);
    for (max, cycles) in steps.clone() {
        total += cycles.len() as u128 * u128::from(max);
        compute += u128::from(cycles.fold(0, u64::wrapping_add));
    }
    if total == 0 {
        return 0.0;
    }
    if total < 1 << 53 {
        return (total - compute) as f64 / total as f64;
    }
    let (mut stall, mut total) = (0.0, 0.0);
    for (max, cycles) in steps {
        let max = max as f64;
        for c in cycles {
            stall += max - c as f64;
            total += max;
        }
    }
    stall / total
}

/// 2^52: every f64 at or above it is an integer.
pub(crate) const INTEGRAL: f64 = 4_503_599_627_370_496.0;

/// One thread's compute time in cycles before rounding: the step's `base`
/// spread by `spread` around the thread's work share `x`, and at least one
/// cycle. For a spread in `[0, 1]` it never decreases as `x` grows, so a
/// step's largest share gives its slowest thread.
fn unrounded_cycles(base: f64, spread: f64, x: f64) -> f64 {
    (base * ((1.0 - spread) + spread * x)).max(1.0)
}

/// `t ≥ 1` cycles rounded half away from zero, saturating at `u64::MAX`.
fn round_cycles(t: f64) -> u64 {
    if t < INTEGRAL {
        round_below_integral(t)
    } else {
        t as u64
    }
}

/// [`round_cycles`] for `t` in `[1, 2^52)`, without a conversion (see the
/// module documentation).
fn round_below_integral(t: f64) -> u64 {
    let half_up = t + 0.5;
    let nearest = half_up + INTEGRAL;
    (nearest.to_bits() - INTEGRAL.to_bits()) - u64::from(nearest - INTEGRAL > half_up)
}

/// The spread-independent part of one barrier episode.
pub(crate) struct DrawnStep {
    pc: u64,
    dirty_lines: u32,
    /// The phase's base interval, scaled for this instance, in cycles.
    pub(crate) base: f64,
    /// The largest of the step's work shares.
    pub(crate) peak: f64,
}

/// Everything a trace takes from its random stream, before the spread is
/// applied: the swing coin, the jitter and each thread's work share
/// `X = U^skew`. Calibration evaluates one draw at many spreads, and the
/// trace is then built from the same draw, so the stream is drawn once.
pub(crate) struct Draw {
    threads: usize,
    steps: Vec<DrawnStep>,
    /// Work shares, `threads` per step, in step order.
    shares: Vec<f64>,
    /// Whether every compute time stays below 2^52 cycles at any spread
    /// in `[0, 1]`, so [`round_below_integral`] rounds them all.
    below_integral: bool,
}

impl Draw {
    /// Draws the trace of `spec` for `threads` processors from `seed`.
    pub(crate) fn new(spec: &AppSpec, threads: usize, seed: u64) -> Draw {
        let root = SimRng::new(seed).derive(&spec.name, 0);
        let instances = spec.total_instances();
        let mut draw = Draw {
            threads,
            steps: Vec::with_capacity(instances),
            shares: Vec::with_capacity(instances * threads),
            below_integral: false,
        };
        for (i, phase) in spec.setup_phases.iter().enumerate() {
            let rng = &mut root.derive("setup", i as u64);
            draw.push(phase, 0, spec.skew, rng);
        }
        for iter in 0..spec.iterations {
            for (p, phase) in spec.loop_phases.iter().enumerate() {
                let rng = &mut root.derive("loop", (iter as u64) << 16 | p as u64);
                draw.push(phase, iter, spec.skew, rng);
            }
        }
        draw.below_integral = draw.steps_below_integral();
        draw
    }

    /// Whether every step's base is below 2^51 cycles times its largest
    /// share, which spreads to less than 2^52 cycles at any spread in
    /// `[0, 1]`.
    fn steps_below_integral(&self) -> bool {
        self.steps
            .iter()
            .all(|step| step.base * step.peak.max(1.0) < 0.5 * INTEGRAL)
    }

    /// Draws one phase instance.
    fn push(&mut self, phase: &PhaseSpec, iteration: u32, skew: f64, rng: &mut SimRng) {
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
        let start = self.shares.len();
        self.shares
            .extend((0..self.threads).map(|_| rng.uniform().powf(skew)));
        self.steps.push(DrawnStep {
            pc: phase.pc,
            dirty_lines: phase.dirty_lines,
            base: phase.base_interval.as_u64() as f64 * scale,
            peak: self.shares[start..].iter().copied().fold(0.0, f64::max),
        });
    }

    /// The thread count the draw was made for.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Each step with its threads' work shares.
    pub(crate) fn steps(&self) -> impl Iterator<Item = (&DrawnStep, &[f64])> + Clone {
        let n = self.threads;
        self.steps
            .iter()
            .enumerate()
            .map(move |(i, step)| (step, &self.shares[i * n..(i + 1) * n]))
    }

    /// Each step's slowest compute time and then every thread's at
    /// `spread`, rounded by `round`.
    fn cycles<'a>(
        &'a self,
        spread: f64,
        round: impl Fn(f64) -> u64 + Copy + 'a,
    ) -> impl Iterator<Item = (u64, impl ExactSizeIterator<Item = u64> + 'a)> + Clone {
        self.steps().map(move |(step, shares)| {
            let cycles = move |x| round(unrounded_cycles(step.base, spread, x));
            (cycles(step.peak), shares.iter().map(move |&x| cycles(x)))
        })
    }

    /// The [`AppTrace::analytic_imbalance`] of the trace this draw builds
    /// at `spread`, without building it. `spread` must lie in `[0, 1]`.
    pub(crate) fn imbalance(&self, spread: f64) -> f64 {
        if self.below_integral {
            imbalance(self.cycles(spread, round_below_integral))
        } else {
            imbalance(self.cycles(spread, round_cycles))
        }
    }

    /// Builds the trace at `spread`.
    pub(crate) fn build(&self, app_name: &str, spread: f64) -> AppTrace {
        let steps = self
            .steps
            .iter()
            .zip(self.cycles(spread, round_cycles))
            .map(|(step, (_, cycles))| TraceStep {
                pc: step.pc,
                compute: cycles.map(Cycles::new).collect(),
                dirty_lines: step.dirty_lines,
            })
            .collect();
        AppTrace {
            app_name: app_name.to_string(),
            threads: self.threads,
            steps,
            spread,
        }
    }
}

#[cfg(test)]
impl Draw {
    /// A draw of one step per `(base, shares)` pair, for tests of what
    /// evaluates a draw.
    pub(crate) fn from_steps(steps: &[(f64, &[f64])]) -> Draw {
        let mut draw = Draw {
            threads: steps[0].1.len(),
            steps: steps
                .iter()
                .map(|&(base, shares)| DrawnStep {
                    pc: 0,
                    dirty_lines: 0,
                    base,
                    peak: shares.iter().copied().fold(0.0, f64::max),
                })
                .collect(),
            shares: steps
                .iter()
                .flat_map(|&(_, shares)| shares)
                .copied()
                .collect(),
            below_integral: false,
        };
        draw.below_integral = draw.steps_below_integral();
        draw
    }
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
        let draw = Draw::new(self, threads, seed);
        let spread = calibrate_spread(self, &draw, seed)?;
        Ok(draw.build(&self.name, spread))
    }

    /// Generates the trace with an explicit spread instead of the
    /// calibrated one.
    pub fn generate_with_spread(&self, threads: usize, seed: u64, spread: f64) -> AppTrace {
        Draw::new(self, threads, seed).build(&self.name, spread)
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
    fn draw_imbalance_is_the_built_traces_at_clamped_and_saturated_cycles() {
        // One-cycle phases clamp every thread to the one-cycle floor at
        // some spreads; a phase growing elevenfold per iteration passes
        // u64::MAX cycles. The draw's evaluation must still return the
        // built trace's imbalance bit for bit.
        let mut s = spec();
        s.setup_phases = vec![PhaseSpec::new(
            1,
            Cycles::new(1),
            0,
            Variability::Stable { jitter: 0.3 },
        )];
        s.loop_phases = vec![PhaseSpec::new(
            10,
            Cycles::new(1 << 40),
            0,
            Variability::Drift {
                per_iter: 10.0,
                jitter: 0.0,
            },
        )];
        s.iterations = 12;
        let draw = Draw::new(&s, 8, 5);
        let saturated = draw.build(&s.name, 0.5).steps.last().unwrap().max_compute();
        assert_eq!(saturated, Cycles::new(u64::MAX));
        for spread in [0.0, 1e-9, 0.25, 0.5, 0.999, 1.0] {
            let built = draw.build(&s.name, spread).analytic_imbalance();
            assert_eq!(
                draw.imbalance(spread).to_bits(),
                built.to_bits(),
                "{spread}"
            );
        }
    }

    #[test]
    fn rounding_is_f64_round_from_one_cycle_to_saturation() {
        let round = |t: f64| t.round().min(u64::MAX as f64) as u64;
        let mut values = vec![INTEGRAL, 1e300, f64::INFINITY];
        for k in 0..=64 {
            let power = f64::powi(2.0, k);
            for v in [power - 0.5, power, power + 0.5] {
                values.extend([v.next_down(), v, v.next_up()]);
            }
        }
        let mut rng = SimRng::new(1);
        values.extend((0..100_000).map(|_| f64::powf(2.0, 53.0 * rng.uniform())));
        values.extend((0..100_000).map(|_| rng.below(1 << 40) as f64 + 0.5));
        for t in values.into_iter().filter(|&t| t >= 1.0) {
            assert_eq!(round_cycles(t), round(t), "{t}");
            if t < INTEGRAL {
                assert_eq!(round_below_integral(t), round(t), "{t}");
            }
        }
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
