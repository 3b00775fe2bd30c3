//! [`execute`]: the one executor every command runs its cells through.

use crate::fleet::run_fleet;
use std::collections::HashMap;
use tb_machine::harness::{check_reachable, Cell, CellOutcome, Harness, SupervisionPolicy};
use tb_machine::journal::{CellKey, SweepJournal};
use tb_workloads::calibrate::Unreachable;

/// Whether, and how, [`execute`] checkpoints completed cells.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalMode {
    /// No journal.
    Off,
    /// Create a journal at this path (`--journal`).
    Create(String),
    /// Replay this journal's completed cells and append the rest to it
    /// (`--resume`).
    Resume(String),
}

/// The default fleet heartbeat period, in milliseconds.
pub const DEFAULT_HEARTBEAT_MS: u64 = 500;

/// How [`execute`] runs a list of cells.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// In-process worker threads; `0` means one per hardware thread.
    pub jobs: usize,
    /// Worker processes; `0` runs the cells in process.
    pub workers: usize,
    /// Fleet heartbeat period in milliseconds: a worker silent for three
    /// periods is killed.
    pub heartbeat_ms: u64,
    /// Retries, per-attempt deadline, and the sink for retry, worker and
    /// lease events.
    pub policy: SupervisionPolicy,
    /// The journal, if any.
    pub journal: JournalMode,
    /// Everything that changes the cells or their results: a journal
    /// resumes only under the params it was created with, at any `jobs`,
    /// `workers` or `policy`.
    pub params: String,
    /// Record each cell's trace events into per-thread rings of this many
    /// events ([`CellOutcome::events`]). In process and unjournaled only.
    pub record: Option<usize>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            jobs: 0,
            workers: 0,
            heartbeat_ms: DEFAULT_HEARTBEAT_MS,
            policy: SupervisionPolicy::default(),
            journal: JournalMode::Off,
            params: String::new(),
            record: None,
        }
    }
}

/// Why [`execute`] ran no cell, or could not finish.
#[derive(Debug)]
pub enum ExecError {
    /// A cell's Table 2 imbalance is out of reach; no cell ran.
    Unreachable(Unreachable),
    /// Anything else — the configuration, the journal, the fleet — as a
    /// message for the user.
    Failed(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unreachable(e) => e.fmt(f),
            ExecError::Failed(message) => f.write_str(message),
        }
    }
}

impl From<Unreachable> for ExecError {
    fn from(e: Unreachable) -> Self {
        ExecError::Unreachable(e)
    }
}

impl From<String> for ExecError {
    fn from(message: String) -> Self {
        ExecError::Failed(message)
    }
}

/// Runs `cells` and returns their outcomes **in `cells` order**, so output
/// rendered from them is byte-identical at every `jobs` level, worker
/// count and resume point.
///
/// Cells whose outcome the resumed journal already holds are replayed
/// verbatim; an unreachable imbalance target is refused before any cell
/// runs; the rest run on the in-process [`Harness`] (`jobs` threads) or a
/// fleet (`workers` processes), and each completed cell is appended to the
/// journal. Each cell is either replayed or run, never both.
///
/// # Examples
///
/// ```
/// use tb_core::SystemConfig;
/// use tb_machine::Cell;
/// use tb_serve::{execute, ExecConfig};
/// use tb_workloads::AppSpec;
///
/// let app = AppSpec::by_name("FMM").unwrap();
/// let configs = [SystemConfig::Baseline, SystemConfig::Thrifty];
/// let cells = Cell::matrix(&[app], &configs, 16, &[1]);
/// let outcomes = execute(&cells, &ExecConfig::default()).unwrap();
/// let energy = |i: usize| outcomes[i].report.as_ref().unwrap().total_energy();
/// assert!(energy(1) < energy(0));
/// ```
pub fn execute(cells: &[Cell], cfg: &ExecConfig) -> Result<Vec<CellOutcome>, ExecError> {
    if cfg.record.is_some() && (cfg.workers > 0 || cfg.journal != JournalMode::Off) {
        let refusal = "recording runs in process and without a journal";
        return Err(ExecError::Failed(refusal.to_string()));
    }
    let mut replayed = HashMap::new();
    let mut journal = match &cfg.journal {
        JournalMode::Off => None,
        JournalMode::Create(path) => Some(
            SweepJournal::create(path, &cfg.params)
                .map_err(|e| format!("--journal {path:?}: {e}"))?,
        ),
        JournalMode::Resume(path) => {
            let (journal, records) = SweepJournal::resume(path, &cfg.params)
                .map_err(|e| format!("--resume {path:?}: {e}"))?;
            replayed = records;
            Some(journal)
        }
    };
    let keys: Vec<CellKey> = cells.iter().map(CellKey::of).collect();
    let replayed: Vec<Option<CellOutcome>> = keys
        .iter()
        .map(|key| replayed.remove(&key.canonical())?.into_outcome())
        .collect();
    let todo: Vec<usize> = (0..cells.len())
        .filter(|&i| replayed[i].is_none())
        .collect();
    // The resume note goes to stderr so resumed stdout stays
    // byte-identical to an uninterrupted run.
    if let JournalMode::Resume(_) = cfg.journal {
        eprintln!(
            "resume: {} of {} cells replayed from journal, {} left to run",
            cells.len() - todo.len(),
            cells.len(),
            todo.len()
        );
    }

    // Both executors call `on_complete` on this thread as each cell
    // finishes, so the journal needs no locking.
    let todo_cells: Vec<Cell> = todo.iter().map(|&i| cells[i].clone()).collect();
    let mut append_err: Option<String> = None;
    let on_complete = |t: usize, outcome: &CellOutcome| {
        if let Some(journal) = journal.as_mut() {
            if let Err(e) = journal.append(&keys[todo[t]], outcome) {
                append_err.get_or_insert(format!("journal append failed: {e}"));
            }
        }
    };
    check_reachable(&todo_cells)?;
    let fresh = if cfg.workers > 0 {
        // Fleet health goes to stderr — stdout must stay byte-identical
        // to an in-process run.
        run_fleet(&todo_cells, cfg, on_complete).map_err(|e| format!("fleet failed: {e}"))?
    } else {
        Harness::new(cfg.jobs)
            .with_policy(cfg.policy.clone())
            .with_record(cfg.record)
            .run_cells_with(&todo_cells, on_complete)
    };
    if let Some(e) = append_err {
        return Err(e.into());
    }
    // `fresh` holds the unreplayed cells' outcomes, in cell order.
    let mut fresh = fresh.into_iter();
    let outcomes = replayed.into_iter().map(|o| o.or_else(|| fresh.next()));
    Ok(outcomes
        .collect::<Option<_>>()
        .expect("every cell is replayed or run"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_core::SystemConfig;
    use tb_workloads::AppSpec;

    #[test]
    fn recording_is_refused_on_a_fleet_or_with_a_journal() {
        let app = AppSpec::by_name("FMM").unwrap();
        let cells = [Cell::new(app, 4, 1, SystemConfig::Thrifty)];
        let path = std::env::temp_dir().join(format!("tb-exec-record-{}", std::process::id()));
        let recorded = ExecConfig {
            record: Some(64),
            ..ExecConfig::default()
        };
        for cfg in [
            ExecConfig {
                workers: 1,
                ..recorded.clone()
            },
            ExecConfig {
                journal: JournalMode::Create(path.to_str().unwrap().to_string()),
                ..recorded.clone()
            },
        ] {
            let err = execute(&cells, &cfg).unwrap_err();
            assert!(matches!(err, ExecError::Failed(_)), "{err}");
            assert!(err.to_string().contains("recording"), "{err}");
        }
        assert!(!path.exists(), "refused before the journal is created");
        let outcome = execute(&cells, &recorded).unwrap().remove(0);
        assert!(!outcome.events.is_empty());
    }
}
