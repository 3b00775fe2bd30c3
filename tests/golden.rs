//! Golden-output tests: the simulator's observable behavior is pinned by
//! committed fixtures, so performance work on the substrates (event queue,
//! directory, caches, flush path) can be proven byte-neutral. Any
//! intentional behavior change must regenerate the fixtures (see
//! EXPERIMENTS.md, "Performance methodology") in the same commit.

use std::process::Command;
use tb_sim::digest::fnv1a64_hex;

fn bin(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_thrifty-barrier"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The 8-node sweep table must be byte-identical to the fixture at every
/// worker-pool size: results are emitted in matrix order regardless of
/// completion order, so parallelism may never change output.
#[test]
fn sweep_n8_text_matches_fixture_at_every_jobs_level() {
    let want = fixture("sweep_n8.txt");
    for jobs in ["1", "2", "4"] {
        let got = bin(&["sweep", "--nodes", "8", "--jobs", jobs]);
        assert_eq!(
            got, want,
            "sweep --nodes 8 --jobs {jobs} drifted from tests/golden/sweep_n8.txt"
        );
    }
}

/// Single-app run output is pinned too (per-report rendering, not just the
/// sweep table).
#[test]
fn run_ocean_n8_matches_fixture() {
    let got = bin(&["run", "Ocean", "--nodes", "8"]);
    assert_eq!(
        got,
        fixture("run_ocean_n8.txt"),
        "run Ocean --nodes 8 drifted from tests/golden/run_ocean_n8.txt"
    );
}

/// The full machine-readable report stream is pinned by digest; the CI
/// `checks` job runs this test, so CI and local tests gate on the same
/// fixture.
#[test]
fn sweep_n8_json_digest_matches_fixture() {
    let json = bin(&["sweep", "--nodes", "8", "--json"]);
    // The CLI prints the JSON with a trailing newline; the digest covers
    // the document itself.
    let trimmed = json.strip_suffix(b"\n").unwrap_or(&json);
    let want = fixture("sweep_n8_json.digest");
    let want = String::from_utf8(want).expect("digest fixture is ASCII hex");
    assert_eq!(
        fnv1a64_hex(trimmed),
        want.trim(),
        "sweep --nodes 8 --json digest drifted from tests/golden/sweep_n8_json.digest"
    );
}

/// Fault plumbing must be provably zero-cost when disabled: `sweep
/// --faults none` routes every cell through the fault-aware, panic-isolated
/// path with a disabled plan, and its bytes must equal the plain sweep
/// fixture at every worker-pool size — table and JSON alike.
#[test]
fn sweep_faults_none_is_byte_identical_to_clean_sweep() {
    let want = fixture("sweep_n8.txt");
    for jobs in ["1", "2", "4"] {
        let got = bin(&["sweep", "--nodes", "8", "--jobs", jobs, "--faults", "none"]);
        assert_eq!(
            got, want,
            "sweep --faults none --jobs {jobs} drifted from the clean sweep fixture"
        );
    }
    let json = bin(&["sweep", "--nodes", "8", "--json", "--faults", "none"]);
    let trimmed = json.strip_suffix(b"\n").unwrap_or(&json);
    let want = fixture("sweep_n8_json.digest");
    let want = String::from_utf8(want).expect("digest fixture is ASCII hex");
    assert_eq!(
        fnv1a64_hex(trimmed),
        want.trim(),
        "sweep --faults none --json digest drifted from the clean JSON fixture"
    );
}

/// The fault-matrix sweep under the storm scenario: deterministic fault
/// schedules pin the whole table — injected/recovery/quarantine tallies and
/// the failed-cell column — at every worker-pool size. The trailing
/// "0 failed cells" summary doubles as the CI fault-smoke assertion that
/// every faulted episode terminated.
#[test]
fn fault_sweep_n8_matches_fixture_at_every_jobs_level() {
    let want = fixture("fault_sweep_n8.txt");
    for jobs in ["1", "2", "4"] {
        let got = bin(&["sweep", "--nodes", "8", "--jobs", jobs, "--faults", "storm"]);
        assert_eq!(
            got, want,
            "sweep --faults storm --jobs {jobs} drifted from tests/golden/fault_sweep_n8.txt"
        );
    }
    let text = String::from_utf8(want).expect("fixture is UTF-8");
    assert!(
        text.trim_end().ends_with("0 failed cells"),
        "the pinned fault sweep must report zero failed cells"
    );
    assert!(
        text.contains("faults injected"),
        "the summary line reports injected-fault totals"
    );
}

/// The paper-scale (64-node) sweep table, serial vs. parallel, against its
/// fixture. Slower than the 8-node tests but still the tier-1 gate for the
/// exact workload the performance numbers are quoted on.
#[test]
fn sweep_n64_text_matches_fixture() {
    let want = fixture("sweep_n64.txt");
    let got = bin(&["sweep", "--nodes", "64", "--jobs", "2"]);
    assert_eq!(
        got, want,
        "sweep --nodes 64 --jobs 2 drifted from tests/golden/sweep_n64.txt"
    );
}
