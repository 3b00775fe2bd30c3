//! Crash-consistent sweep journal: append-only JSONL checkpointing for
//! supervised sweeps.
//!
//! A sweep that dies (OOM kill, power loss, ^C) should not have to redo
//! the cells it already finished. The journal is the minimal durable
//! record that makes `sweep --resume` possible (DESIGN.md §11):
//!
//! * **Line 1** is a [`JournalHeader`]: a magic string, the code version
//!   (crate version + journal format revision — a rebuild with different
//!   simulation code invalidates old journals rather than silently mixing
//!   results), and an opaque `params` string describing the sweep's full
//!   cell matrix. Resume refuses a journal whose header does not match.
//! * **Every later line** is a [`CellRecord`]: the cell's content key
//!   ([`CellKey`]: app, config, nodes, seed, fault plan, variant) and its final
//!   [`StoredOutcome`]. One record is appended — `write` + `fsync` — per
//!   *completed* cell, from the harness's `on_complete` hook, so after a
//!   crash the file contains exactly the finished cells plus at most one
//!   torn trailing line.
//! * On resume, a torn (or otherwise unparseable) **trailing** line is
//!   truncated away and re-executed; an unparseable line in the *middle*
//!   of the file is real corruption and fails loudly.
//!
//! Records are keyed by content, not position, so the journal is valid at
//! any `--jobs` level: workers complete cells in nondeterministic order,
//! and resume replays by key while the sweep renders output in cell order
//! — byte-identical to an uninterrupted run.

use crate::harness::{Cell, CellError, CellOutcome, Variant};
use crate::report::RunReport;
use serde::{json, Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use tb_core::FaultPlan;
use tb_faults::FaultSummary;

/// First header field; identifies the file type.
pub const JOURNAL_MAGIC: &str = "thrifty-barrier-sweep-journal";

/// The version stamp written into every journal header: the crate version
/// plus the journal format revision. Changing either invalidates existing
/// journals on resume.
pub fn code_version() -> String {
    format!("{}+journal-v5", env!("CARGO_PKG_VERSION"))
}

/// The journal's first line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Always [`JOURNAL_MAGIC`].
    pub magic: String,
    /// The writing binary's [`code_version`].
    pub version: String,
    /// Opaque description of the sweep's cell matrix (apps, nodes, seeds,
    /// fault scenario); resume requires an exact match.
    pub params: String,
}

/// The content key of one cell — everything that determines its result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellKey {
    /// Application name.
    pub app: String,
    /// Configuration name.
    pub config: String,
    /// Machine size.
    pub nodes: u16,
    /// Workload seed.
    pub seed: u64,
    /// The injected fault plan, if any.
    pub faults: Option<FaultPlan>,
    /// What an ablation changes about the cell.
    pub variant: Variant,
}

impl CellKey {
    /// The key of a harness cell.
    pub fn of(cell: &Cell) -> CellKey {
        CellKey {
            app: cell.app.name.clone(),
            config: cell.config.name().to_string(),
            nodes: cell.nodes,
            seed: cell.seed,
            faults: cell.faults.clone(),
            variant: cell.variant.clone(),
        }
    }

    /// Canonical string form, used as the replay-map key. JSON via the
    /// derived serializer is canonical here because field order is fixed
    /// and float rendering is shortest-round-trip.
    pub fn canonical(&self) -> String {
        json::to_string(self)
    }
}

/// A [`CellOutcome`] flattened for serialization (`Result` does not
/// serialize; exactly one of `report` / `error` is set).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredOutcome {
    /// The run report of a completed cell.
    pub report: Option<RunReport>,
    /// The final error of a failed cell.
    pub error: Option<CellError>,
    /// Fault-injection tallies.
    pub faults: FaultSummary,
    /// Errors of retried attempts, oldest first.
    pub retries: Vec<CellError>,
    /// Times the cell's lease was revoked from a dead worker (`tb-serve`
    /// fleets; zero for in-process sweeps).
    pub reassigned: u32,
}

impl StoredOutcome {
    /// Flattens a harness outcome for storage.
    pub fn from_outcome(outcome: &CellOutcome) -> StoredOutcome {
        let (report, error) = match &outcome.report {
            Ok(report) => (Some(report.clone()), None),
            Err(err) => (None, Some(err.clone())),
        };
        StoredOutcome {
            report,
            error,
            faults: outcome.faults,
            retries: outcome.retries.clone(),
            reassigned: outcome.reassigned,
        }
    }

    /// Rebuilds the harness outcome; `None` if the record stored neither a
    /// report nor an error (not produced by this writer).
    pub fn into_outcome(self) -> Option<CellOutcome> {
        let report = match (self.report, self.error) {
            (Some(report), _) => Ok(report),
            (None, Some(err)) => Err(err),
            (None, None) => return None,
        };
        Some(CellOutcome {
            report,
            faults: self.faults,
            retries: self.retries,
            reassigned: self.reassigned,
            events: Vec::new(),
        })
    }
}

/// One completed-cell line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// Record sequence number: strictly increasing from 1 across the life
    /// of the journal (appends after a resume continue where the file left
    /// off). A sequence that jumps backwards or repeats means two writers
    /// raced on the file, which resume refuses as corruption.
    pub seq: u64,
    /// The cell's content key.
    pub key: CellKey,
    /// Its final outcome.
    pub outcome: StoredOutcome,
}

/// Why a journal could not be created, resumed, or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The journal's header does not match this sweep (different params)
    /// or this binary (different code version).
    Mismatch {
        /// Which header field disagreed ("magic", "version", "params").
        field: &'static str,
        /// The value stored in the journal.
        journal: String,
        /// The value this run expects.
        current: String,
    },
    /// A non-trailing line failed to parse — the file is damaged beyond
    /// the torn-tail case that truncation repairs.
    Corrupt {
        /// 1-based line number of the damaged record.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Mismatch {
                field,
                journal,
                current,
            } => write!(
                f,
                "journal {field} mismatch: journal has {journal:?}, this sweep expects {current:?}"
            ),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// An open, append-position sweep journal.
#[derive(Debug)]
pub struct SweepJournal {
    file: File,
    next_seq: u64,
}

impl SweepJournal {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// and durably writes the header.
    pub fn create(path: impl AsRef<Path>, params: &str) -> Result<SweepJournal, JournalError> {
        let mut file = File::create(path)?;
        let header = JournalHeader {
            magic: JOURNAL_MAGIC.to_string(),
            version: code_version(),
            params: params.to_string(),
        };
        let mut line = json::to_string(&header);
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.sync_data()?;
        Ok(SweepJournal { file, next_seq: 1 })
    }

    /// Opens an existing journal for resumption: validates the header
    /// against `params` and the current code version, loads every
    /// completed cell keyed by [`CellKey::canonical`], truncates a torn
    /// trailing line, and leaves the file positioned for appends.
    ///
    /// A record appearing twice with the *same* payload (a cell re-run
    /// after an earlier resume, or a harmlessly duplicated append) is
    /// tolerated; the same key with a *different* payload means two
    /// non-identical executions claimed the same cell, and resume fails
    /// loudly rather than letting the last writer silently win. Record
    /// sequence numbers must be strictly increasing, else the file was
    /// interleaved by racing writers and is refused as corrupt.
    pub fn resume(
        path: impl AsRef<Path>,
        params: &str,
    ) -> Result<(SweepJournal, HashMap<String, StoredOutcome>), JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut completed: HashMap<String, StoredOutcome> = HashMap::new();
        let mut header: Option<JournalHeader> = None;
        let mut valid_len = bytes.len();
        let mut last_seq = 0u64;
        let mut lineno = 0usize;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let start = pos;
            let Some(rel) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                // No terminator: the writer died mid-line. Truncate.
                valid_len = start;
                break;
            };
            let end = pos + rel;
            pos = end + 1;
            lineno += 1;
            let is_last = pos >= bytes.len();
            let parsed = std::str::from_utf8(&bytes[start..end])
                .map_err(|e| e.to_string())
                .and_then(|s| {
                    if lineno == 1 {
                        json::from_str::<JournalHeader>(s)
                            .map(Line::Header)
                            .map_err(|e| format!("{e:?}"))
                    } else {
                        json::from_str::<CellRecord>(s)
                            .map(Line::Record)
                            .map_err(|e| format!("{e:?}"))
                    }
                });
            match parsed {
                Ok(Line::Header(h)) => header = Some(h),
                Ok(Line::Record(rec)) => {
                    if rec.seq <= last_seq {
                        return Err(JournalError::Corrupt {
                            line: lineno,
                            message: format!(
                                "record sequence went backwards ({} after {last_seq}); \
                                 two writers raced on this journal",
                                rec.seq
                            ),
                        });
                    }
                    last_seq = rec.seq;
                    let canonical = rec.key.canonical();
                    let payload = json::to_string(&rec.outcome);
                    if let Some(prev) = completed.get(&canonical) {
                        if json::to_string(prev) != payload {
                            return Err(JournalError::Corrupt {
                                line: lineno,
                                message: format!(
                                    "duplicate record for cell {canonical} with a \
                                     different payload; refusing to pick a winner"
                                ),
                            });
                        }
                    }
                    completed.insert(canonical, rec.outcome);
                }
                Err(message) if is_last && lineno > 1 => {
                    // A complete-looking but unparseable trailing record is
                    // treated like a torn one: drop and re-run that cell.
                    let _ = message;
                    valid_len = start;
                    break;
                }
                Err(message) => {
                    return Err(JournalError::Corrupt {
                        line: lineno,
                        message,
                    })
                }
            }
        }

        let Some(header) = header else {
            return Err(JournalError::Corrupt {
                line: 1,
                message: "missing journal header".to_string(),
            });
        };
        if header.magic != JOURNAL_MAGIC {
            return Err(JournalError::Mismatch {
                field: "magic",
                journal: header.magic,
                current: JOURNAL_MAGIC.to_string(),
            });
        }
        if header.version != code_version() {
            return Err(JournalError::Mismatch {
                field: "version",
                journal: header.version,
                current: code_version(),
            });
        }
        if header.params != params {
            return Err(JournalError::Mismatch {
                field: "params",
                journal: header.params,
                current: params.to_string(),
            });
        }

        if valid_len < bytes.len() {
            file.set_len(valid_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            SweepJournal {
                file,
                next_seq: last_seq + 1,
            },
            completed,
        ))
    }

    /// Durably appends one completed cell: the record line is written and
    /// fsync'd before this returns, so a crash after completion never
    /// loses the cell.
    pub fn append(&mut self, key: &CellKey, outcome: &CellOutcome) -> Result<(), JournalError> {
        let record = CellRecord {
            seq: self.next_seq,
            key: key.clone(),
            outcome: StoredOutcome::from_outcome(outcome),
        };
        self.next_seq += 1;
        let mut line = json::to_string(&record);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }
}

// A parsed journal line, alive only for the duration of one `resume`
// scan — the size skew between the two variants never reaches a
// collection.
#[allow(clippy::large_enum_variant)]
enum Line {
    Header(JournalHeader),
    Record(CellRecord),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Cell, Harness};
    use std::path::PathBuf;
    use tb_core::SystemConfig;
    use tb_workloads::AppSpec;

    /// A journal path no other call (in this or any other test process)
    /// shares: tests run in parallel and delete their files.
    fn tmp(name: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join("tb-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{n}-{name}.jsonl", std::process::id()))
    }

    fn outcome() -> CellOutcome {
        let harness = Harness::serial();
        let cell = Cell::new(
            AppSpec::by_name("FMM").unwrap(),
            8,
            1,
            SystemConfig::Baseline,
        );
        harness.run_cells_isolated(&[cell]).remove(0)
    }

    fn key() -> CellKey {
        CellKey {
            app: "FMM".into(),
            config: "Baseline".into(),
            nodes: 8,
            seed: 1,
            faults: None,
            variant: Variant::default(),
        }
    }

    #[test]
    fn round_trips_completed_and_failed_cells() {
        let path = tmp("round-trip");
        let mut journal = SweepJournal::create(&path, "params-x").unwrap();
        let ok = outcome();
        journal.append(&key(), &ok).unwrap();
        let failed = CellOutcome {
            report: Err(CellError::Timeout { limit_ms: 9 }),
            faults: FaultSummary::default(),
            retries: vec![CellError::Panic("first try".into())],
            reassigned: 0,
            events: Vec::new(),
        };
        let key2 = CellKey { seed: 2, ..key() };
        journal.append(&key2, &failed).unwrap();
        drop(journal);

        let (_journal, map) = SweepJournal::resume(&path, "params-x").unwrap();
        assert_eq!(map.len(), 2);
        let back = map.get(&key().canonical()).unwrap().clone();
        let back = back.into_outcome().unwrap();
        assert_eq!(
            back.report.as_ref().unwrap().wall_time,
            ok.report.as_ref().unwrap().wall_time
        );
        let back2 = map
            .get(&key2.canonical())
            .unwrap()
            .clone()
            .into_outcome()
            .unwrap();
        assert_eq!(
            back2.report.unwrap_err(),
            CellError::Timeout { limit_ms: 9 }
        );
        assert_eq!(back2.retries, vec![CellError::Panic("first try".into())]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_truncated_not_fatal() {
        let path = tmp("torn-tail");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        journal.append(&key(), &outcome()).unwrap();
        drop(journal);
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\":{\"app\":\"FM").unwrap();
        drop(f);

        let before = std::fs::metadata(&path).unwrap().len();
        let (mut journal, map) = SweepJournal::resume(&path, "p").unwrap();
        assert_eq!(map.len(), 1, "the complete record survives");
        assert!(
            std::fs::metadata(&path).unwrap().len() < before,
            "the torn tail was truncated"
        );
        // The repaired journal accepts appends on the clean boundary.
        journal
            .append(&CellKey { seed: 3, ..key() }, &outcome())
            .unwrap();
        drop(journal);
        let (_j, map) = SweepJournal::resume(&path, "p").unwrap();
        assert_eq!(map.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = tmp("mid-corrupt");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        journal.append(&key(), &outcome()).unwrap();
        drop(journal);
        // Damage the record line, then add another valid-looking line so
        // the damage is not trailing.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].replace("\"key\"", "\"kex\"");
        lines.push(lines[1].clone());
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = SweepJournal::resume(&path, "p").unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatches_are_rejected_with_both_values() {
        let path = tmp("mismatch");
        drop(SweepJournal::create(&path, "nodes=8").unwrap());
        let err = SweepJournal::resume(&path, "nodes=64").unwrap_err();
        let JournalError::Mismatch {
            field,
            journal,
            current,
        } = &err
        else {
            panic!("expected mismatch, got {err}");
        };
        assert_eq!(*field, "params");
        assert_eq!(journal, "nodes=8");
        assert_eq!(current, "nodes=64");
        assert!(err.to_string().contains("params mismatch"));

        // A different code version (e.g. an older binary's journal) is
        // also refused.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(&code_version(), "0.0.0+journal-v0")).unwrap();
        let err = SweepJournal::resume(&path, "nodes=8").unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::Mismatch {
                    field: "version",
                    ..
                }
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Format v5 cluster outcomes carry the cut-off trips, skipped
    /// updates and early and late wake-ups the message-passing substrate
    /// did not count before, so a v4 journal is refused rather than
    /// replayed.
    #[test]
    fn v4_journals_are_refused() {
        assert!(
            code_version().ends_with("+journal-v5"),
            "{}",
            code_version()
        );
        let path = tmp("v4");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        journal.append(&key(), &outcome()).unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("+journal-v5", "+journal-v4")).unwrap();
        let err = SweepJournal::resume(&path, "p").unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::Mismatch {
                    field: "version",
                    ..
                }
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_numbers_increase_across_resume() {
        let path = tmp("seq");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        journal.append(&key(), &outcome()).unwrap();
        journal
            .append(&CellKey { seed: 2, ..key() }, &outcome())
            .unwrap();
        drop(journal);
        let (mut journal, _) = SweepJournal::resume(&path, "p").unwrap();
        journal
            .append(&CellKey { seed: 3, ..key() }, &outcome())
            .unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let seqs: Vec<u64> = text
            .lines()
            .skip(1)
            .map(|l| json::from_str::<CellRecord>(l).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3], "appends after resume continue");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_monotonic_sequence_is_corrupt() {
        let path = tmp("seq-backwards");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        journal.append(&key(), &outcome()).unwrap();
        journal
            .append(&CellKey { seed: 2, ..key() }, &outcome())
            .unwrap();
        drop(journal);
        // Swap the two record lines: seq 2 then seq 1.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = SweepJournal::resume(&path, "p").unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 3, .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("sequence"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_key_same_payload_is_tolerated() {
        let path = tmp("dup-same");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        let ok = outcome();
        journal.append(&key(), &ok).unwrap();
        journal.append(&key(), &ok).unwrap();
        drop(journal);
        let (_j, map) = SweepJournal::resume(&path, "p").unwrap();
        assert_eq!(map.len(), 1, "identical re-records collapse");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_key_differing_payload_is_corrupt() {
        let path = tmp("dup-differs");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        journal.append(&key(), &outcome()).unwrap();
        let conflicting = CellOutcome {
            report: Err(CellError::Panic("impostor".into())),
            faults: FaultSummary::default(),
            retries: Vec::new(),
            reassigned: 1,
            events: Vec::new(),
        };
        journal.append(&key(), &conflicting).unwrap();
        // A third record keeps the conflict away from the tolerated tail.
        journal
            .append(&CellKey { seed: 2, ..key() }, &outcome())
            .unwrap();
        drop(journal);
        let err = SweepJournal::resume(&path, "p").unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 3, .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("duplicate record"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reassignment_count_round_trips() {
        let path = tmp("reassigned");
        let mut journal = SweepJournal::create(&path, "p").unwrap();
        let mut moved = outcome();
        moved.reassigned = 2;
        journal.append(&key(), &moved).unwrap();
        drop(journal);
        let (_j, map) = SweepJournal::resume(&path, "p").unwrap();
        let back = map
            .get(&key().canonical())
            .unwrap()
            .clone()
            .into_outcome()
            .unwrap();
        assert_eq!(back.reassigned, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_of_missing_file_is_an_io_error() {
        let err = SweepJournal::resume(tmp("does-not-exist"), "p").unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "got {err}");
    }

    #[test]
    fn canonical_keys_distinguish_fault_plans() {
        let clean = key();
        let faulted = CellKey {
            faults: tb_core::FaultPlan::by_name("storm", 9),
            ..key()
        };
        assert_ne!(clean.canonical(), faulted.canonical());
        // Canonical form is stable across serialize/deserialize cycles
        // (shortest-round-trip floats re-render identically).
        let back: CellKey = json::from_str(&faulted.canonical()).unwrap();
        assert_eq!(back.canonical(), faulted.canonical());
    }

    #[test]
    fn canonical_keys_distinguish_variants() {
        let cutoff = |t| CellKey {
            variant: Variant {
                knob: Some(crate::harness::Knob::Cutoff(t)),
                ..Variant::default()
            },
            ..key()
        };
        let keys = [key(), cutoff(None), cutoff(Some(0.1))];
        for (i, a) in keys.iter().enumerate() {
            let back: CellKey = json::from_str(&a.canonical()).unwrap();
            assert_eq!(&back, a);
            for b in &keys[i + 1..] {
                assert_ne!(a.canonical(), b.canonical());
            }
        }
    }
}
