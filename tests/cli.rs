//! End-to-end tests of the `thrifty-barrier` binary: flag rejection exit
//! paths and the parallel-harness determinism guarantee.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_thrifty-barrier"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_options_exit_nonzero_with_message() {
    for (args, needle) in [
        (&["sweep", "--nodes", "12"][..], "power of two"),
        (&["sweep", "--jobs", "0"][..], "at least 1"),
        (&["sweep", "--seeds", "0"][..], "at least 1"),
        (
            &["trace", "Ocean", "--format", "csv"][..],
            "perfetto or jsonl",
        ),
        (&["trace", "Ocean", "--ring", "0"][..], "positive"),
        (&["sweep", "--frobnicate"][..], "unknown option"),
        (
            &["run", "NoSuchApp", "--nodes", "8"][..],
            "unknown application",
        ),
        (&["sweep", "--retries", "eleven"][..], "bad retry count"),
        (&["sweep", "--retries", "11"][..], "at most 10"),
        (&["sweep", "--timeout-ms", "soon"][..], "bad timeout"),
        (&["sweep", "--timeout-ms", "0"][..], "positive"),
        (&["sweep", "--retries"][..], "--retries needs a value"),
        (&["sweep", "--journal"][..], "--journal needs a value"),
        (
            &["sweep", "--journal", "a.jsonl", "--resume", "b.jsonl"][..],
            "mutually exclusive",
        ),
        (
            &["sweep", "--resume", "b.jsonl", "--journal", "a.jsonl"][..],
            "mutually exclusive",
        ),
        (&["sweep", "--workers", "0"][..], "at least 1"),
        (&["sweep", "--workers", "65"][..], "at most 64"),
        (&["sweep", "--workers", "many"][..], "bad worker count"),
        (&["sweep", "--workers"][..], "--workers needs a value"),
        (&["sweep", "--heartbeat-ms", "0"][..], "positive"),
        (
            &["sweep", "--heartbeat-ms", "250"][..],
            "requires --workers",
        ),
        (
            &["sweep", "--poison-strikes", "3"][..],
            "requires --workers",
        ),
        (
            &["sweep", "--workers", "2", "--poison-strikes", "0"][..],
            "at least 1",
        ),
        (
            &["sweep", "--workers", "2", "--poison-strikes", "11"][..],
            "at most 10",
        ),
        (
            &["serve", "--heartbeat-ms", "abc"][..],
            "bad heartbeat period",
        ),
    ] {
        let out = bin(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains(needle),
            "{args:?}: stderr {:?} should mention {needle:?}",
            stderr(&out)
        );
    }
}

#[test]
fn unknown_command_prints_usage() {
    let out = bin(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
}

/// The acceptance bar for the parallel harness: `sweep --jobs 8` must be
/// byte-identical to `--jobs 1`, in both the human table and the
/// `RunReport` JSON.
#[test]
fn sweep_output_is_identical_at_every_jobs_level() {
    let serial = bin(&["sweep", "--nodes", "8", "--jobs", "1"]);
    let parallel = bin(&["sweep", "--nodes", "8", "--jobs", "8"]);
    assert!(serial.status.success() && parallel.status.success());
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "human table must byte-match"
    );

    let serial_json = bin(&["sweep", "--nodes", "8", "--jobs", "1", "--json"]);
    let parallel_json = bin(&["sweep", "--nodes", "8", "--jobs", "8", "--json"]);
    assert!(serial_json.status.success() && parallel_json.status.success());
    assert_eq!(
        serial_json.stdout, parallel_json.stdout,
        "RunReport JSON must byte-match"
    );
    // And the JSON really is the full 10 × 5 matrix of reports.
    let reports: Vec<thrifty_barrier::machine::RunReport> =
        serde::json::from_str(&String::from_utf8_lossy(&serial_json.stdout)).expect("valid JSON");
    assert_eq!(reports.len(), 50);
}

/// A temp directory no other call shares: tests in one binary run in
/// parallel under one pid.
fn tmp_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("tb-cli-{}-{n}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Journal errors surface at runtime (the path is only opened once the
/// sweep starts), with both the flag and the cause in the message.
#[test]
fn resume_of_missing_or_mismatched_journal_fails_cleanly() {
    let dir = tmp_dir("journal");
    let missing = dir.join("no-such.jsonl");
    let out = bin(&[
        "sweep",
        "--nodes",
        "8",
        "--resume",
        missing.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "missing journal must fail");
    assert!(
        stderr(&out).contains("--resume"),
        "stderr names the flag: {:?}",
        stderr(&out)
    );

    // A journal recorded for one sweep shape refuses to resume another.
    let journal = dir.join("n8.jsonl");
    let journal = journal.to_str().unwrap();
    let create = bin(&["sweep", "--nodes", "8", "--journal", journal]);
    assert!(create.status.success(), "{}", stderr(&create));
    let out = bin(&["sweep", "--nodes", "16", "--resume", journal]);
    assert!(!out.status.success(), "params mismatch must fail");
    assert!(
        stderr(&out).contains("params mismatch"),
        "stderr quotes both sides: {:?}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("nodes=8") && stderr(&out).contains("nodes=16"),
        "stderr quotes both sides: {:?}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_with_seeds_reports_aggregates() {
    let out = bin(&[
        "run", "Volrend", "--nodes", "8", "--seeds", "2", "--config", "Thrifty",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("over 2 seeds"), "{stdout}");
    assert!(stdout.contains("±"), "{stdout}");
}

/// Machines smaller than the default observed thread (5) clamp it to the
/// last node, so 4-node runs and sweeps complete.
#[test]
fn four_node_run_and_sweep_complete() {
    for args in [
        &["run", "FMM", "--nodes", "4"][..],
        &["sweep", "--nodes", "4", "--jobs", "2"][..],
    ] {
        let out = bin(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "{args:?}");
    }
}

/// At two nodes Volrend's 48.2% Table 2 imbalance is out of reach. `run`,
/// `sweep` and `serve` say so in one stderr line, exit 2 without a
/// backtrace, and run no cell, in process or on a worker fleet: a sweep's
/// journal holds its header and nothing else.
#[test]
fn unreachable_imbalance_target_exits_2_before_any_cell() {
    let dir = tmp_dir("unreachable");
    let journal = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (in_process, fleet) = (journal("n2.jsonl"), journal("n2-fleet.jsonl"));
    for args in [
        &["sweep", "--nodes", "2", "--journal", &in_process][..],
        &[
            "sweep",
            "--nodes",
            "2",
            "--workers",
            "1",
            "--journal",
            &fleet,
        ][..],
        &["serve", "--nodes", "2"][..],
        &["run", "Volrend", "--nodes", "2"][..],
    ] {
        let out = bin(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(
            err.lines().count(),
            1,
            "{args:?}: one line, no backtrace: {err}"
        );
        for needle in [
            "Volrend",
            "48.2%",
            "at most 36.7%",
            "2 threads",
            "seed 31553",
        ] {
            assert!(
                err.contains(needle),
                "{args:?}: {err:?} should name {needle:?}"
            );
        }
    }
    for journal in [in_process, fleet] {
        let records = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(records.lines().count(), 1, "header only: {records}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
