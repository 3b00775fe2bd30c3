//! `execute` runs every cell exactly once across a crash and a resume.
//!
//! A journaled run is cut after any prefix of its records, with or
//! without a torn trailing line (a writer killed mid-append), and then
//! resumed at any parallelism. The resumed outcomes aggregate to the same
//! bytes as an uninterrupted run, the resume appends exactly the records
//! that were missing, and the journal ends with one record per cell.

use proptest::prelude::*;
use serde::json;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tb_core::SystemConfig;
use tb_machine::aggregate;
use tb_machine::harness::{Cell, CellOutcome};
use tb_machine::journal::{CellKey, CellRecord};
use tb_serve::{execute, ExecConfig, JournalMode};
use tb_workloads::AppSpec;

const NODES: u16 = 4;
const PARAMS: &str = "exactly-once FMM+Radiosity nodes=4 seeds=11,12";

/// Two apps × Baseline and Thrifty × two seeds: eight cells.
fn cells() -> Vec<Cell> {
    let apps = ["FMM", "Radiosity"].map(|name| AppSpec::by_name(name).expect("stock workload"));
    let configs = [SystemConfig::Baseline, SystemConfig::Thrifty];
    Cell::matrix(&apps, &configs, NODES, &[11, 12])
}

fn aggregate_bytes(outcomes: &[CellOutcome]) -> String {
    json::to_string(&aggregate(&cells(), outcomes))
}

/// The uninterrupted, unjournaled run.
fn reference() -> &'static str {
    static BYTES: OnceLock<String> = OnceLock::new();
    BYTES.get_or_init(|| {
        aggregate_bytes(&execute(&cells(), &ExecConfig::default()).expect("reachable"))
    })
}

fn tmp_journal() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tb-exactly-once-{}-{n}.jsonl", std::process::id()))
}

fn run(jobs: usize, journal: JournalMode) -> Vec<CellOutcome> {
    let cfg = ExecConfig {
        jobs,
        journal,
        params: PARAMS.to_string(),
        ..ExecConfig::default()
    };
    execute(&cells(), &cfg).expect("reachable targets, writable journal")
}

/// The header line and the record lines of a journal.
fn lines(path: &PathBuf) -> (String, Vec<String>) {
    let text = std::fs::read_to_string(path).expect("journal exists");
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().expect("journal has a header");
    (header, lines.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resume_after_any_cut_runs_each_missing_cell_exactly_once(
        jobs in 1usize..=4,
        cut in 0usize..=8,
        torn in any::<bool>(),
    ) {
        let path = tmp_journal();
        let path_str = path.to_str().expect("UTF-8 temp path").to_string();
        run(jobs, JournalMode::Create(path_str.clone()));
        let (header, records) = lines(&path);
        let n = cells().len();
        prop_assert_eq!(records.len(), n);

        // Keep the header and the first `cut` records; a torn line is half
        // of the next record (or of the first, when none is left).
        let mut kept = format!("{header}\n");
        for record in &records[..cut] {
            kept.push_str(record);
            kept.push('\n');
        }
        if torn {
            let next = &records[cut.min(n - 1)];
            kept.push_str(&next[..next.len() / 2]);
        }
        std::fs::write(&path, kept).unwrap();

        let resumed = run(jobs, JournalMode::Resume(path_str));
        prop_assert_eq!(aggregate_bytes(&resumed), reference());

        let (_, after) = lines(&path);
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&after[..cut], &records[..cut], "the kept prefix is untouched");
        prop_assert_eq!(after.len() - cut, n - cut, "exactly the missing cells were appended");
        let keys: HashSet<String> = after
            .iter()
            .map(|line| json::from_str::<CellRecord>(line).expect("whole record").key.canonical())
            .collect();
        let want: HashSet<String> = cells().iter().map(|c| CellKey::of(c).canonical()).collect();
        prop_assert_eq!(after.len(), keys.len(), "no cell is recorded twice");
        prop_assert_eq!(keys, want, "every cell is recorded");
    }
}
