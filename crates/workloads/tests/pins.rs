//! Byte-identity pins for trace generation: every `AppSpec::splash2()`
//! trace at 8 and 64 nodes, for seeds 0–4 and the paper seed, digested
//! with FNV-1a and compared to a committed fixture. A digest covers every
//! step's `pc`, `dirty_lines` and per-thread `compute`, then the bits of the
//! calibrated `spread`, so a change to one cycle of one thread, or to the
//! last bit of the calibration, moves it. Volrend's unreachable 2-node
//! target is pinned too, `max` bits included. A second fixture pins every
//! other node count, 2, 4, 16 and 32, for those seeds and the benchmark's
//! next two, as a trace or as its `Unreachable` error.

use tb_sim::digest::fnv1a64_hex;
use tb_workloads::calibrate::Unreachable;
use tb_workloads::{AppSpec, AppTrace};

/// The CLI's default seed (`tb_machine::run::PAPER_SEED`).
const PAPER_SEED: u64 = 0x7B41;
const SEEDS: [u64; 6] = [0, 1, 2, 3, 4, PAPER_SEED];
/// The benchmark's seeds after the paper seed.
const BENCHMARK_SEEDS: [u64; 2] = [PAPER_SEED + 1, PAPER_SEED + 2];

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

fn trace_line(app: &AppSpec, nodes: usize, seed: u64, t: &AppTrace) -> String {
    format!(
        "{} n{nodes} seed={seed:#x} spread={:016x} {}",
        app.name,
        t.spread.to_bits(),
        digest(t)
    )
}

/// One line per (app, nodes, seed) trace, then one per Volrend 2-node seed.
fn render() -> String {
    let mut out = String::new();
    for app in AppSpec::splash2() {
        for nodes in [8, 64] {
            for seed in SEEDS {
                out.push_str(&trace_line(&app, nodes, seed, &app.generate(nodes, seed)));
                out.push('\n');
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

/// One line per (app, nodes, seed) at the node counts `render` leaves
/// out: the trace, or its error where the target is unreachable.
fn render_more_nodes() -> String {
    let mut out = String::new();
    for app in AppSpec::splash2() {
        for nodes in [2, 4, 16, 32] {
            for seed in SEEDS.into_iter().chain(BENCHMARK_SEEDS) {
                out.push_str(&match app.try_generate(nodes, seed) {
                    Ok(t) => trace_line(&app, nodes, seed, &t),
                    Err(e) => unreachable_line(&e),
                });
                out.push('\n');
            }
        }
    }
    out
}

fn assert_matches_fixture(got: &str, name: &str) {
    let want = fixture(name);
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "trace drifted from tests/golden/{name}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "pin count changed"
    );
}

#[test]
fn splash2_traces_match_fixture() {
    assert_matches_fixture(&render(), "splash2_traces.txt");
}

#[test]
fn splash2_traces_at_more_node_counts_match_fixture() {
    assert_matches_fixture(&render_more_nodes(), "splash2_traces_more_nodes.txt");
}
