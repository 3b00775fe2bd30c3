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

/// The FNV-1a digest of a command's JSON document (the CLI prints it with a
/// trailing newline; the digest covers the document itself).
fn json_digest(args: &[&str]) -> String {
    let json = bin(args);
    fnv1a64_hex(json.strip_suffix(b"\n").unwrap_or(&json))
}

/// The digest a `tests/golden/*.digest` fixture holds.
fn digest_fixture(name: &str) -> String {
    let want = String::from_utf8(fixture(name)).expect("digest fixture is ASCII hex");
    want.trim().to_string()
}

/// Single-app run output is pinned too (per-report rendering, not just the
/// sweep table): all five configurations, one configuration against its
/// Baseline, the mean ± σ lines of a replicated run, and the JSON reports.
/// `run` shares sweep's executor, so its output is the same at every
/// worker-pool size and on a worker fleet.
#[test]
fn run_ocean_n8_matches_fixture() {
    for (args, name) in [
        ("run Ocean --nodes 8", "run_ocean_n8.txt"),
        ("run Ocean --nodes 8 --jobs 1", "run_ocean_n8.txt"),
        ("run Ocean --nodes 8 --jobs 4", "run_ocean_n8.txt"),
        ("run Ocean --nodes 8 --workers 2", "run_ocean_n8.txt"),
        (
            "run Ocean --nodes 8 --config Thrifty",
            "run_ocean_n8_thrifty.txt",
        ),
        (
            "run Volrend --nodes 8 --seeds 2",
            "run_volrend_n8_seeds2.txt",
        ),
    ] {
        let got = bin(&args.split(' ').collect::<Vec<_>>());
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&fixture(name)),
            "{args} drifted from tests/golden/{name}"
        );
    }
    assert_eq!(
        json_digest(&["run", "Ocean", "--nodes", "8", "--json"]),
        digest_fixture("run_ocean_n8_json.digest"),
        "run Ocean --nodes 8 --json digest drifted from tests/golden/run_ocean_n8_json.digest"
    );
}

/// The full machine-readable report stream is pinned by digest; the CI
/// `checks` job runs this test, so CI and local tests gate on the same
/// fixture.
#[test]
fn sweep_n8_json_digest_matches_fixture() {
    assert_eq!(
        json_digest(&["sweep", "--nodes", "8", "--json"]),
        digest_fixture("sweep_n8_json.digest"),
        "sweep --nodes 8 --json digest drifted from tests/golden/sweep_n8_json.digest"
    );
}

/// The paper-scale (64-node) report stream, pinned by the digest the
/// benchmark's gate checks. The text fixture rounds every figure, so only
/// this catches a small timing drift, such as one in a post-flush refill.
#[test]
fn sweep_n64_json_digest_matches_fixture() {
    assert_eq!(
        json_digest(&["sweep", "--nodes", "64", "--json"]),
        digest_fixture("sweep_n64_json.digest"),
        "sweep --nodes 64 --json digest drifted from tests/golden/sweep_n64_json.digest"
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
    assert_eq!(
        json_digest(&["sweep", "--nodes", "8", "--json", "--faults", "none"]),
        digest_fixture("sweep_n8_json.digest"),
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
    // The AggregateReport stream behind the table, fault tallies included.
    assert_eq!(
        json_digest(&["sweep", "--nodes", "8", "--faults", "storm", "--json"]),
        digest_fixture("fault_sweep_n8_json.digest"),
        "sweep --faults storm --json digest drifted from tests/golden/fault_sweep_n8_json.digest"
    );
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

/// The report streams of the other named fault scenarios, and of `storm`
/// at paper scale, pinned by digest. These are the runs in which late
/// wake-ups trip the §3.3.3 cut-off for every configuration, the oracle's
/// included. Each fixture line is `<nodes> <scenario> <digest>`.
#[test]
fn fault_scenario_json_digests_match_fixture() {
    let table = String::from_utf8(fixture("fault_scenarios_json.digest")).unwrap();
    for line in table.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let [nodes, scenario, digest] = fields[..] else {
            panic!("`<nodes> <scenario> <digest>` lines, got {line:?}");
        };
        assert_eq!(
            json_digest(&["sweep", "--nodes", nodes, "--faults", scenario, "--json"]),
            digest,
            "sweep --nodes {nodes} --faults {scenario} --json digest drifted from \
             tests/golden/fault_scenarios_json.digest"
        );
    }
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

/// Every paper artifact at 8 nodes against its fixture, one fixture per
/// experiment and no stale ones.
#[test]
fn reproduce_n8_matches_fixtures() {
    let experiments = &thrifty_barrier::reproduce::EXPERIMENTS;
    for exp in experiments {
        let name = format!("reproduce/{}_n8.txt", exp.id);
        let got = bin(&["reproduce", exp.id, "--nodes", "8"]);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&fixture(&name)),
            "reproduce {} --nodes 8 drifted from tests/golden/{name}",
            exp.id
        );
    }
    let dir = format!("{}/tests/golden/reproduce", env!("CARGO_MANIFEST_DIR"));
    let fixtures = std::fs::read_dir(dir).expect("fixture directory").count();
    assert_eq!(fixtures, experiments.len(), "one fixture per experiment");
}

/// Variant-heavy experiments (A2: five predictors, one fed by the oracle;
/// X1 and X2: the cluster and the bus, each with its own Baselines) are
/// byte-identical at every worker-pool size and on a worker fleet, where
/// the cells travel as keys.
#[test]
fn reproduce_variants_match_fixtures_at_every_jobs_level_and_on_a_fleet() {
    for id in ["A2", "X1", "X2"] {
        let want = fixture(&format!("reproduce/{id}_n8.txt"));
        for executor in [
            ["--jobs", "1"],
            ["--jobs", "2"],
            ["--jobs", "4"],
            ["--workers", "2"],
        ] {
            let got = bin(&["reproduce", id, "--nodes", "8", executor[0], executor[1]]);
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want),
                "reproduce {id} --nodes 8 {executor:?} drifted from its fixture"
            );
        }
    }
}

/// `trace` is pinned end to end: its stdout (with the `--out` path shown
/// as `<OUT>`) and the FNV-1a digests of the Perfetto and JSONL files it
/// writes, for the default Thrifty configuration and for Oracle-Halt,
/// whose oracle comes from the Baseline run of the same trace.
#[test]
fn trace_ocean_n8_matches_fixtures() {
    let dir = std::env::temp_dir().join(format!("tb-golden-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("trace.out");
    let out = out.to_str().unwrap();
    for (config, name) in [
        (None, "trace_ocean_n8"),
        (Some("Oracle-Halt"), "trace_ocean_n8_oracle_halt"),
    ] {
        let want = String::from_utf8(fixture(&format!("{name}.txt"))).unwrap();
        let digests = String::from_utf8(fixture(&format!("{name}.digest"))).unwrap();
        for line in digests.lines() {
            let (format, digest) = line.split_once(' ').expect("`<format> <digest>` lines");
            let mut args = vec!["trace", "Ocean", "--nodes", "8", "--out", out];
            args.extend(["--format", format]);
            if let Some(config) = config {
                args.extend(["--config", config]);
            }
            let stdout = String::from_utf8(bin(&args)).unwrap();
            assert_eq!(
                stdout.replace(out, "<OUT>"),
                want.replace("(perfetto:", &format!("({format}:")),
                "{args:?} stdout drifted from tests/golden/{name}.txt"
            );
            let file = std::fs::read(out).unwrap();
            assert_eq!(
                fnv1a64_hex(&file),
                digest,
                "{args:?} file drifted from tests/golden/{name}.digest"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The message-passing cluster's reports at paper scale, pinned by digest:
/// the JSON of X1's 14 cells at 64 nodes and the paper seed. X1's text
/// fixture rounds every figure; this holds the exact times, energies and
/// barrier event counts.
#[test]
fn cluster_x1_json_digest_matches_fixture() {
    use thrifty_barrier::machine::{run::PAPER_SEED, Harness, RunReport};
    let x1 = thrifty_barrier::reproduce::by_id("X1").expect("X1 exists");
    let cells = (x1.cells)(64, PAPER_SEED);
    assert_eq!(cells.len(), 14, "7 apps x (Baseline, Thrifty)");
    let reports: Vec<RunReport> = Harness::new(2)
        .run_cells_isolated(&cells)
        .into_iter()
        .map(|outcome| outcome.report.expect("cluster cells complete"))
        .collect();
    assert_eq!(
        fnv1a64_hex(serde::json::to_string(&reports).as_bytes()),
        digest_fixture("cluster_x1_json.digest"),
        "X1's 64-node cluster reports drifted from tests/golden/cluster_x1_json.digest"
    );
}
