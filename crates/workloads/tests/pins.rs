//! Byte-identity pins for trace generation: every `AppSpec::splash2()`
//! trace at 8 and 64 nodes, for seeds 0–4 and the paper seed, digested
//! with FNV-1a and compared to a committed fixture. A digest covers every
//! step's `pc`, `dirty_lines` and per-thread `compute`, then the bits of the
//! calibrated `spread`, so a change to one cycle of one thread, or to the
//! last bit of the calibration, moves it. Volrend's unreachable 2-node
//! target is pinned too, `max` bits included.

use tb_sim::digest::fnv1a64_hex;
use tb_workloads::calibrate::Unreachable;
use tb_workloads::{AppSpec, AppTrace};

/// The CLI's default seed (`tb_machine::run::PAPER_SEED`).
const PAPER_SEED: u64 = 0x7B41;
const SEEDS: [u64; 6] = [0, 1, 2, 3, 4, PAPER_SEED];

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn digest(trace: &AppTrace) -> String {
    let mut bytes = Vec::new();
    for step in &trace.steps {
        bytes.extend_from_slice(&step.pc.to_le_bytes());
        bytes.extend_from_slice(&step.dirty_lines.to_le_bytes());
        for c in &step.compute {
            bytes.extend_from_slice(&c.as_u64().to_le_bytes());
        }
    }
    bytes.extend_from_slice(&trace.spread.to_bits().to_le_bytes());
    fnv1a64_hex(&bytes)
}

fn unreachable_line(e: &Unreachable) -> String {
    format!(
        "{} n{} seed={:#x} target={:016x} max={:016x} | {e}",
        e.app,
        e.threads,
        e.seed,
        e.target.to_bits(),
        e.max.to_bits()
    )
}

/// One line per (app, nodes, seed) trace, then one per Volrend 2-node seed.
fn render() -> String {
    let mut out = String::new();
    for app in AppSpec::splash2() {
        for nodes in [8, 64] {
            for seed in SEEDS {
                let t = app.generate(nodes, seed);
                out.push_str(&format!(
                    "{} n{nodes} seed={seed:#x} spread={:016x} {}\n",
                    app.name,
                    t.spread.to_bits(),
                    digest(&t)
                ));
            }
        }
    }
    let volrend = AppSpec::volrend();
    for seed in SEEDS {
        let err = volrend.try_generate(2, seed).unwrap_err();
        out.push_str(&unreachable_line(&err));
        out.push('\n');
    }
    out
}

#[test]
fn splash2_traces_match_fixture() {
    let got = render();
    let want = fixture("splash2_traces.txt");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "trace drifted from tests/golden/splash2_traces.txt");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "pin count changed"
    );
}
