//! Property-based tests of workload generation and calibration.

use proptest::prelude::*;
use tb_sim::Cycles;
use tb_workloads::{AppSpec, AppTrace, PhaseSpec, Variability};

/// A jitter magnitude, exactly zero a quarter of the time (a zero jitter
/// draws no normal variate).
fn arb_jitter() -> impl Strategy<Value = f64> {
    prop_oneof![1 => Just(0.0), 3 => 0.001f64..0.08]
}

fn arb_variability() -> impl Strategy<Value = Variability> {
    prop_oneof![
        arb_jitter().prop_map(|jitter| Variability::Stable { jitter }),
        (0.05f64..0.5, 0.0f64..0.6, arb_jitter()).prop_map(|(low_scale, low_prob, jitter)| {
            Variability::Swing {
                low_scale,
                low_prob,
                jitter,
            }
        }),
        (-0.04f64..0.04, arb_jitter())
            .prop_map(|(per_iter, jitter)| Variability::Drift { per_iter, jitter }),
    ]
}

fn arb_phases(pc: u64, count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<PhaseSpec>> {
    collection::vec((100u64..5_000, 0u32..64, arb_variability()), count).prop_map(move |phases| {
        phases
            .into_iter()
            .enumerate()
            .map(|(i, (base_us, dirty, var))| {
                PhaseSpec::new(pc + i as u64, Cycles::from_micros(base_us), dirty, var)
            })
            .collect()
    })
}

/// Specs with up to two setup phases and one to three loop phases of any
/// variability. Targets reach 0.6, which few threads or a low skew cannot
/// reach, so some specs are [`Unreachable`].
fn arb_spec() -> impl Strategy<Value = AppSpec> {
    (
        arb_phases(0x10, 0..3),
        arb_phases(0x100, 1..4),
        1u32..12,      // iterations
        0.02f64..0.60, // target imbalance
        1.0f64..3.0,   // skew
    )
        .prop_map(
            |(setup_phases, loop_phases, iterations, target, skew)| AppSpec {
                name: "Prop".into(),
                problem_size: "prop".into(),
                target_imbalance: target,
                setup_phases,
                loop_phases,
                iterations,
                skew,
            },
        )
}

/// The calibrated trace of `spec`, rejecting the case when its target is
/// unreachable.
fn reachable(spec: &AppSpec, threads: usize, seed: u64) -> Result<AppTrace, TestCaseError> {
    spec.try_generate(threads, seed)
        .map_err(|e| TestCaseError::reject(e.to_string()))
}

/// Trace generation as it was before calibration drew the random stream
/// once: the bisection regenerates the whole trace at each of its forty
/// spreads, after one more generation at the widest spread to check
/// reachability, and the final trace is a forty-second generation. Kept
/// as the reference the one-draw calibration must match bit for bit.
mod reference {
    use tb_sim::{Cycles, SimRng};
    use tb_workloads::calibrate::Unreachable;
    use tb_workloads::{AppSpec, AppTrace, PhaseSpec, TraceStep, Variability};

    const W_MAX: f64 = 0.999;
    const ITERATIONS: u32 = 40;

    fn instance_compute(
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

    pub fn generate_with_spread(
        spec: &AppSpec,
        threads: usize,
        seed: u64,
        spread: f64,
    ) -> AppTrace {
        let root = SimRng::new(seed).derive(&spec.name, 0);
        let mut steps = Vec::new();
        for (i, phase) in spec.setup_phases.iter().enumerate() {
            let mut rng = root.derive("setup", i as u64);
            steps.push(TraceStep {
                pc: phase.pc,
                compute: instance_compute(phase, 0, threads, spread, spec.skew, &mut rng),
                dirty_lines: phase.dirty_lines,
            });
        }
        for iter in 0..spec.iterations {
            for (p, phase) in spec.loop_phases.iter().enumerate() {
                let mut rng = root.derive("loop", (iter as u64) << 16 | p as u64);
                steps.push(TraceStep {
                    pc: phase.pc,
                    compute: instance_compute(phase, iter, threads, spread, spec.skew, &mut rng),
                    dirty_lines: phase.dirty_lines,
                });
            }
        }
        AppTrace {
            app_name: spec.name.clone(),
            threads,
            steps,
            spread,
        }
    }

    pub fn analytic_imbalance(trace: &AppTrace) -> f64 {
        let mut stall = 0.0;
        let mut total = 0.0;
        for step in &trace.steps {
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

    pub fn try_generate(
        spec: &AppSpec,
        threads: usize,
        seed: u64,
    ) -> Result<AppTrace, Unreachable> {
        let imbalance_at =
            |w: f64| analytic_imbalance(&generate_with_spread(spec, threads, seed, w));
        let max = imbalance_at(W_MAX);
        if max < spec.target_imbalance {
            return Err(Unreachable {
                app: spec.name.clone(),
                target: spec.target_imbalance,
                max,
                threads,
                seed,
            });
        }
        let (mut lo, mut hi) = (0.0_f64, W_MAX);
        for _ in 0..ITERATIONS {
            let mid = 0.5 * (lo + hi);
            if imbalance_at(mid) < spec.target_imbalance {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(generate_with_spread(spec, threads, seed, 0.5 * (lo + hi)))
    }
}

/// Calibrating `spec` over one draw gives the trace, spread bits included,
/// that the forty-two-generation reference gives, and the same
/// `Unreachable` error, `max` bits included, when no spread reaches the
/// target.
fn matches_reference(spec: &AppSpec, threads: usize, seed: u64) -> Result<(), TestCaseError> {
    let got = spec.try_generate(threads, seed);
    let want = reference::try_generate(spec, threads, seed);
    match (&got, &want) {
        (Ok(g), Ok(w)) => prop_assert_eq!(g.spread.to_bits(), w.spread.to_bits()),
        (Err(g), Err(w)) => prop_assert_eq!(g.max.to_bits(), w.max.to_bits()),
        _ => {}
    }
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// [`matches_reference`] at 128 cases.
    #[test]
    fn one_draw_calibration_matches_reference(
        spec in arb_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
    ) {
        matches_reference(&spec, threads, seed)?;
    }

    /// At any explicit spread, generation matches the reference trace and
    /// its imbalance bit for bit.
    #[test]
    fn generation_at_any_spread_matches_reference(
        spec in arb_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
        spread in 0.0f64..0.999,
    ) {
        let got = spec.generate_with_spread(threads, seed, spread);
        let want = reference::generate_with_spread(&spec, threads, seed, spread);
        prop_assert_eq!(
            got.analytic_imbalance().to_bits(),
            reference::analytic_imbalance(&want).to_bits()
        );
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// [`one_draw_calibration_matches_reference`] at 20,000 cases, for a
    /// release build:
    /// `cargo test --release -p tb-workloads --test props -- --ignored`.
    #[test]
    #[ignore]
    fn one_draw_calibration_matches_reference_at_20k_cases(
        spec in arb_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
    ) {
        matches_reference(&spec, threads, seed)?;
    }
}

/// A spec of a one-cycle setup phase and one loop phase of `base` cycles
/// with `variability`.
fn spec_of(base: u64, variability: Variability, iterations: u32, target: f64) -> AppSpec {
    AppSpec {
        name: "Edge".into(),
        problem_size: "edge".into(),
        target_imbalance: target,
        setup_phases: vec![PhaseSpec::new(
            1,
            Cycles::new(1),
            0,
            Variability::Stable { jitter: 0.3 },
        )],
        loop_phases: vec![PhaseSpec::new(10, Cycles::new(base), 0, variability)],
        iterations,
        skew: 2.0,
    }
}

/// Calibration matches the reference where no closed-form bound applies:
/// a phase growing elevenfold per iteration past `u64::MAX` cycles.
#[test]
fn saturating_spec_calibrates_to_reference_spread() {
    let drift = Variability::Drift {
        per_iter: 10.0,
        jitter: 0.0,
    };
    let spec = spec_of(1 << 40, drift, 12, 0.16);
    let got = spec.try_generate(8, 5).unwrap();
    let want = reference::try_generate(&spec, 8, 5).unwrap();
    assert_eq!(got.spread.to_bits(), want.spread.to_bits());
    assert_eq!(got, want);
}

/// Calibration matches the reference when many compute times sit at the
/// one-cycle floor, where a rounded time is up to a cycle from its
/// unrounded one.
#[test]
fn one_cycle_floor_spec_calibrates_to_reference_spread() {
    for (base, threads, seed) in [(2, 8, 1), (3, 16, 2), (4, 64, 3)] {
        let spec = spec_of(base, Variability::Stable { jitter: 0.3 }, 40, 0.2);
        let got = spec.try_generate(threads, seed).unwrap();
        let want = reference::try_generate(&spec, threads, seed).unwrap();
        assert_eq!(got.spread.to_bits(), want.spread.to_bits(), "{base}");
        assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generation is a pure function of (spec, threads, seed), unreachable
    /// targets included.
    #[test]
    fn generation_deterministic(
        spec in arb_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
    ) {
        prop_assert_eq!(spec.try_generate(threads, seed), spec.try_generate(threads, seed));
    }

    /// The trace layout always matches the spec: episode count, per-step
    /// thread count, positive compute times, the setup sites once each and
    /// then PCs cycling through the loop phases.
    #[test]
    fn trace_layout_matches_spec(
        spec in arb_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
    ) {
        let t = reachable(&spec, threads, seed)?;
        prop_assert_eq!(t.len(), spec.total_instances());
        let loops = spec.loop_phases.iter().cycle();
        for (step, phase) in t.steps.iter().zip(spec.setup_phases.iter().chain(loops)) {
            prop_assert_eq!(step.compute.len(), threads);
            prop_assert!(step.compute.iter().all(|&c| c > Cycles::ZERO));
            prop_assert_eq!(step.pc, phase.pc);
            prop_assert_eq!(step.dirty_lines, phase.dirty_lines);
        }
    }

    /// Calibration hits the requested Table-2-style imbalance within one
    /// percentage point for any reachable spec.
    #[test]
    fn calibration_converges(
        spec in arb_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
    ) {
        let t = reachable(&spec, threads, seed)?;
        prop_assert!(
            (t.analytic_imbalance() - spec.target_imbalance).abs() < 0.01,
            "target {} got {}",
            spec.target_imbalance,
            t.analytic_imbalance()
        );
        prop_assert!((0.0..1.0).contains(&t.spread));
    }

    /// Imbalance is monotone in the spread knob.
    #[test]
    fn imbalance_monotone_in_spread(
        spec in arb_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
        w1 in 0.0f64..0.99,
        w2 in 0.0f64..0.99,
    ) {
        let (lo, hi) = (w1.min(w2), w1.max(w2));
        prop_assume!(hi - lo > 0.05);
        let a = spec.generate_with_spread(threads, seed, lo).analytic_imbalance();
        let b = spec.generate_with_spread(threads, seed, hi).analytic_imbalance();
        prop_assert!(a <= b + 1e-9, "imbalance({lo})={a} > imbalance({hi})={b}");
    }

    /// Per-step stall identities: `ideal_stall(t) = max_compute − compute[t]`
    /// and the slowest thread has zero stall.
    #[test]
    fn stall_identities(spec in arb_spec(), threads in 2usize..=64, seed in any::<u64>()) {
        let t = reachable(&spec, threads, seed)?;
        for step in &t.steps {
            let max = step.max_compute();
            let mut any_zero = false;
            for (i, &c) in step.compute.iter().enumerate() {
                prop_assert_eq!(step.ideal_stall(i), max - c);
                any_zero |= step.ideal_stall(i) == Cycles::ZERO;
            }
            prop_assert!(any_zero, "the slowest thread stalls zero");
        }
    }

    /// Disturbances only ever lengthen compute times, never shorten them.
    #[test]
    fn disturbance_monotone(spec in arb_spec(), seed in any::<u64>(), prob in 0.0f64..1.0) {
        let t = reachable(&spec, 8, seed)?;
        let d = t.with_disturbance(seed ^ 1, prob, Cycles::from_millis(10));
        for (a, b) in t.steps.iter().zip(&d.steps) {
            for (ca, cb) in a.compute.iter().zip(&b.compute) {
                prop_assert!(cb >= ca);
            }
        }
    }
}
