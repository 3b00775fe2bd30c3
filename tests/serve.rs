//! End-to-end tests of the multi-process sweep service (`--workers`):
//! fleet output must be byte-identical to an in-process sweep, through
//! worker kills, poison quarantine, and coordinator crash + resume.
//!
//! Worker deaths are provoked with the worker's chaos hooks —
//! `TB_SERVE_CHAOS_ABORT_ONCE` (one worker fleet-wide aborts at its next
//! assignment) and `TB_SERVE_CHAOS_POISON` (any worker aborts when its
//! assignment's canonical key contains a substring) — which exercise the
//! same SIGABRT/pipe-EOF death path as an external `kill -9`. The real
//! signal rehearsal lives in CI's chaos-smoke job.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_thrifty-barrier"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn bin_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_thrifty-barrier"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A temp path no other call shares: tests in one binary run in
/// parallel under one pid, and each deletes the files it made.
fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("tb-serve-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{n}-{name}", std::process::id()))
}

/// The headline byte-identity bar: a fleet sweep at every worker count
/// must match the in-process sweep exactly, on stdout, with fleet
/// chatter confined to stderr.
#[test]
fn fleet_sweep_is_byte_identical_to_in_process_at_every_worker_count() {
    let clean = bin(&["sweep", "--nodes", "8"]);
    assert!(clean.status.success(), "{}", stderr(&clean));
    assert!(!clean.stdout.is_empty());
    for workers in ["1", "2", "4"] {
        let fleet = bin(&["sweep", "--nodes", "8", "--workers", workers]);
        assert!(fleet.status.success(), "{}", stderr(&fleet));
        assert_eq!(
            clean.stdout, fleet.stdout,
            "--workers {workers} stdout must byte-match the in-process sweep"
        );
    }
}

/// A worker killed mid-sweep (SIGABRT at its next assignment — the same
/// stdout-EOF the coordinator sees on `kill -9`) must not perturb the
/// report: the lease is reassigned and stdout stays byte-identical.
#[test]
fn worker_death_mid_sweep_leaves_stdout_byte_identical() {
    let clean = bin(&["sweep", "--nodes", "8"]);
    assert!(clean.status.success(), "{}", stderr(&clean));

    let latch = tmp("abort-once.latch");
    std::fs::remove_file(&latch).ok();
    let fleet = bin_env(
        &["sweep", "--nodes", "8", "--workers", "3"],
        &[("TB_SERVE_CHAOS_ABORT_ONCE", latch.to_str().unwrap())],
    );
    assert!(
        latch.exists(),
        "the chaos latch must have fired (no worker picked it up?)"
    );
    std::fs::remove_file(&latch).ok();
    assert!(fleet.status.success(), "{}", stderr(&fleet));
    assert_eq!(
        clean.stdout, fleet.stdout,
        "a worker death must be invisible on stdout"
    );
    let err = stderr(&fleet);
    assert!(
        err.contains("1 worker death(s)"),
        "stderr must report the death: {err:?}"
    );
    assert!(
        err.contains("1 reassigned"),
        "stderr coverage must count the reassignment: {err:?}"
    );
}

/// A cell that kills two workers in a row is quarantined as poison: the
/// sweep still exits 0 (fault scenarios tolerate failed cells) and the
/// stdout coverage line owns up to the quarantined cell.
#[test]
fn poison_cell_is_quarantined_with_exit_zero_and_coverage() {
    // The needle pins exactly one cell: FMM under the plain "Thrifty"
    // config (the trailing `,"nodes"` excludes "Thrifty-Halt").
    let needle = r#""app":"FMM","config":"Thrifty","nodes":8"#;
    let out = bin_env(
        &[
            "sweep",
            "--nodes",
            "8",
            "--faults",
            "storm",
            "--workers",
            "2",
        ],
        &[("TB_SERVE_CHAOS_POISON", needle)],
    );
    assert!(
        out.status.success(),
        "poison must not fail the sweep: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("poisoned"),
        "stdout coverage must report the quarantined cell: {text:?}"
    );
    let err = stderr(&out);
    assert!(
        err.contains("2 worker death(s)"),
        "two strikes means two deaths: {err:?}"
    );
}

/// Coordinator crash rehearsal: truncate a complete journal to a prefix
/// (exactly what an fsync'd journal holds after `kill -9`) and resume
/// with a fleet. The resumed stdout must byte-match the uninterrupted
/// run — including across modes (journal written in-process, resumed
/// multi-process), since `--workers` is excluded from journal params.
#[test]
fn coordinator_crash_and_fleet_resume_is_byte_identical() {
    let journal = tmp("fleet-complete.jsonl");
    let journal_str = journal.to_str().unwrap();
    let clean = bin(&["sweep", "--nodes", "8", "--journal", journal_str]);
    assert!(clean.status.success(), "{}", stderr(&clean));
    let body = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 51, "header + one record per cell");
    std::fs::remove_file(&journal).ok();

    for (cut, workers) in [(21, "2"), (6, "4"), (50, "1")] {
        let truncated = tmp(&format!("fleet-cut{cut}-w{workers}.jsonl"));
        std::fs::write(&truncated, format!("{}\n", lines[..cut].join("\n"))).unwrap();
        let out = bin(&[
            "sweep",
            "--nodes",
            "8",
            "--resume",
            truncated.to_str().unwrap(),
            "--workers",
            workers,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert_eq!(
            clean.stdout,
            out.stdout,
            "resume at record {} with --workers {workers} must byte-match",
            cut - 1
        );
        let resumed = std::fs::read_to_string(&truncated).unwrap();
        assert_eq!(
            resumed.lines().count(),
            51,
            "the resumed journal must be completed in place"
        );
        std::fs::remove_file(&truncated).ok();
    }
}

/// `tb serve` is `sweep` with a default fleet: identical stdout. The
/// fleet tuning flag needs no explicit `--workers` under `serve` (the
/// default fleet is injected before validation).
#[test]
fn serve_subcommand_matches_sweep_stdout() {
    let sweep = bin(&["sweep", "--nodes", "8", "--seeds", "1"]);
    let serve = bin(&[
        "serve",
        "--nodes",
        "8",
        "--seeds",
        "1",
        "--heartbeat-ms",
        "250",
    ]);
    assert!(sweep.status.success() && serve.status.success());
    assert_eq!(sweep.stdout, serve.stdout);
}
