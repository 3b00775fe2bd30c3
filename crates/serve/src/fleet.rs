//! The coordinator's process plumbing: spawns `tb __worker` children,
//! pumps their frames into the [`Engine`], enforces
//! heartbeat deadlines, and materializes the engine's actions as pipe
//! writes, kills, and respawns.
//!
//! Death detection is deliberately single-pathed: the *only* event that
//! triggers lease revocation is the worker's stdout reaching EOF (its
//! reader thread sends `Gone`). A missed heartbeat does not revoke
//! anything directly — it makes the coordinator `kill()` the worker,
//! whose pipe then collapses into the same EOF path. Kill-before-revoke
//! is what makes reassignment safe: a killed process cannot write a stale
//! `Done` after its lease has been handed to someone else, so every lease
//! resolves exactly once (the engine's deficit-counting invariant).

use crate::engine::{Action, Engine, EngineConfig, WorkerId, MAX_RESPAWNS, POISON_STRIKES};
use crate::exec::ExecConfig;
use crate::proto::{read_frame, send_to_worker, Assignment, FromWorker, HelloInfo, ToWorker};
use serde::json;
use std::collections::HashMap;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};
use tb_machine::harness::{Cell, CellError, CellOutcome};
use tb_machine::journal::CellKey;
use tb_machine::report::CellCoverage;
use tb_sim::Cycles;
use tb_trace::{TraceEvent, TraceEventKind};

/// Fleet-level tallies for the operator (rendered to stderr; never part
/// of the byte-stable report output).
#[derive(Debug, Clone, Default)]
struct FleetSummary {
    /// Worker processes that died (crashes plus missed-heartbeat kills).
    pub worker_deaths: u64,
    /// Replacement workers spawned.
    pub respawns: u64,
    /// Cell accounting including reassignments and poisonings.
    pub coverage: CellCoverage,
}

/// One frame-or-death notification from a worker's reader thread.
// Size skew mirrors `FromWorker`; notes live only inside the channel.
#[allow(clippy::large_enum_variant)]
enum Note {
    Frame(WorkerId, FromWorker),
    /// The worker's stdout reached EOF (or became unreadable): it is dead
    /// or exiting.
    Gone(WorkerId),
}

/// A live worker process and its pipes.
struct WorkerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    last_heard: Instant,
    /// Set once `Shutdown` was sent: a subsequent `Gone` is an orderly
    /// exit, not a death.
    retiring: bool,
    /// Set once `kill()` was issued, so the heartbeat scan does not kill
    /// repeatedly while waiting for the EOF to surface.
    killed: bool,
}

/// Runs `cells` across a fleet of `cfg.workers` worker processes, each
/// under `cfg.policy`'s retries and deadline; worker lifecycle and lease
/// events go to `cfg.policy.trace`. Returns the outcomes **in `cells`
/// order** (byte-compatible with the in-process harness), and prints the
/// fleet's health to stderr if a worker died. `on_complete` fires with
/// each cell's index and final outcome as soon as it is durable-worthy,
/// from the coordinator thread (so a `FnMut` journal writer needs no
/// locking).
///
/// Fails only when progress is impossible: worker spawn failure with an
/// empty fleet, respawn budget exhaustion, or a worker rejecting the
/// protocol outright.
pub(crate) fn run_fleet(
    cells: &[Cell],
    cfg: &ExecConfig,
    mut on_complete: impl FnMut(usize, &CellOutcome),
) -> Result<Vec<CellOutcome>, String> {
    let mut summary = FleetSummary::default();
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    let keys: Vec<CellKey> = cells.iter().map(CellKey::of).collect();
    let mut outcomes: Vec<Option<CellOutcome>> = cells.iter().map(|_| None).collect();

    let mut engine = Engine::new(
        cells.len(),
        EngineConfig {
            workers: cfg.workers.max(1),
            poison_strikes: POISON_STRIKES,
            max_respawns: MAX_RESPAWNS,
        },
    );

    let (tx, rx) = mpsc::channel::<Note>();
    let mut procs: HashMap<WorkerId, WorkerProc> = HashMap::new();
    let mut next_worker: WorkerId = 0;

    let initial = cfg.workers.max(1).min(cells.len());
    for _ in 0..initial {
        next_worker += 1;
        spawn_worker(next_worker, cfg, &tx, &mut procs)?;
        engine.worker_spawned(next_worker);
        emit(
            cfg,
            TraceEventKind::WorkerSpawn {
                episode: next_worker,
                pc: 0,
                respawn: false,
            },
        );
    }

    let poll = Duration::from_millis((cfg.heartbeat_ms / 2).max(10));
    let deadline = Duration::from_millis(cfg.heartbeat_ms.saturating_mul(3).max(1));
    let mut abort: Option<String> = None;

    while !engine.finished() && abort.is_none() {
        let note = match rx.recv_timeout(poll) {
            Ok(note) => Some(note),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                // Every reader thread is gone; any remaining engine state
                // is unreachable. Treated like an abort below.
                abort = Some("all worker channels closed unexpectedly".to_string());
                None
            }
        };

        let mut actions = Vec::new();
        match note {
            Some(Note::Frame(worker, frame)) => {
                if let Some(proc) = procs.get_mut(&worker) {
                    proc.last_heard = Instant::now();
                }
                match frame {
                    FromWorker::Heartbeat { .. } => {}
                    FromWorker::Ready { .. } => actions = engine.worker_ready(worker),
                    FromWorker::Done {
                        lease,
                        cell,
                        outcome,
                        ..
                    } => {
                        let index = cell as usize;
                        if index < cells.len() && engine.done(worker, lease, index) {
                            let mut outcome = outcome
                                .into_outcome()
                                .unwrap_or_else(|| poisoned_outcome(0, 0));
                            outcome.reassigned = engine.cell_reassigned(index);
                            summary
                                .coverage
                                .record_reassignments(outcome.reassigned as u64);
                            if let Err(err) = &outcome.report {
                                summary.coverage.record_error(err);
                            } else {
                                summary.coverage.completed += 1;
                            }
                            if !outcome.retries.is_empty() {
                                summary.coverage.retried += 1;
                            }
                            on_complete(index, &outcome);
                            outcomes[index] = Some(outcome);
                        }
                        actions = engine.worker_ready(worker);
                    }
                }
            }
            Some(Note::Gone(worker)) => {
                if let Some(mut proc) = procs.remove(&worker) {
                    // Kill before reaping: `Gone` usually means the child
                    // already exited (EOF), but a desynchronized stream
                    // reports a still-running child, and `wait()` on one
                    // would hang the coordinator.
                    let _ = proc.child.kill();
                    let _ = proc.child.wait();
                    if !proc.retiring {
                        summary.worker_deaths += 1;
                        emit(
                            cfg,
                            TraceEventKind::WorkerDeath {
                                episode: worker,
                                pc: 0,
                                inflight: u32::from(engine.has_lease(worker)),
                            },
                        );
                        actions = engine.worker_dead(worker);
                    }
                }
            }
            None => {}
        }

        perform(
            actions,
            cfg,
            &keys,
            &mut engine,
            &mut procs,
            &mut next_worker,
            &tx,
            &mut outcomes,
            &mut summary,
            &mut on_complete,
            &mut abort,
        )?;

        // Heartbeat scan: kill (don't revoke) anything silent too long;
        // the EOF from the kill drives the one true death path above.
        for proc in procs.values_mut() {
            if !proc.killed && !proc.retiring && proc.last_heard.elapsed() > deadline {
                let _ = proc.child.kill();
                proc.killed = true;
            }
        }
    }

    // Teardown: close every pipe (workers exit on stdin EOF), then reap.
    for (_, mut proc) in procs.drain() {
        if let Some(mut stdin) = proc.stdin.take() {
            let _ = send_to_worker(
                &mut stdin,
                &ToWorker::Shutdown {
                    reason: "sweep complete".to_string(),
                },
            );
        }
        let _ = proc.child.kill();
        let _ = proc.child.wait();
    }

    if let Some(reason) = abort {
        return Err(reason);
    }
    let outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or(i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|i| format!("internal error: cell {i} finished without an outcome"))?;
    if summary.worker_deaths > 0 || summary.respawns > 0 {
        eprintln!(
            "fleet: {} worker death(s), {} respawn(s); {}",
            summary.worker_deaths, summary.respawns, summary.coverage
        );
    }
    Ok(outcomes)
}

/// Builds the quarantine outcome for a cell that killed `strikes` workers.
fn poisoned_outcome(strikes: u32, reassigned: u32) -> CellOutcome {
    CellOutcome {
        report: Err(CellError::Poisoned { strikes }),
        faults: Default::default(),
        retries: Vec::new(),
        reassigned,
        events: Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn perform(
    actions: Vec<Action>,
    cfg: &ExecConfig,
    keys: &[CellKey],
    engine: &mut Engine,
    procs: &mut HashMap<WorkerId, WorkerProc>,
    next_worker: &mut WorkerId,
    tx: &mpsc::Sender<Note>,
    outcomes: &mut [Option<CellOutcome>],
    summary: &mut FleetSummary,
    on_complete: &mut impl FnMut(usize, &CellOutcome),
    abort: &mut Option<String>,
) -> Result<(), String> {
    for action in actions {
        match action {
            Action::Assign {
                worker,
                cell,
                lease,
                reassigned,
            } => {
                emit(
                    cfg,
                    if reassigned == 0 {
                        TraceEventKind::LeaseGrant {
                            episode: cell as u64,
                            pc: 0,
                            worker,
                        }
                    } else {
                        TraceEventKind::LeaseReassign {
                            episode: cell as u64,
                            pc: 0,
                            worker,
                            strikes: reassigned,
                        }
                    },
                );
                let frame = ToWorker::Assign {
                    work: Assignment {
                        lease,
                        cell: cell as u64,
                        key: keys[cell].clone(),
                    },
                };
                let write_failed = match procs.get_mut(&worker).and_then(|p| p.stdin.as_mut()) {
                    Some(stdin) => send_to_worker(stdin, &frame).is_err(),
                    None => true,
                };
                if write_failed {
                    // The worker died between its last frame and this
                    // write; kill to force the EOF path, which will
                    // revoke the lease we just granted.
                    if let Some(proc) = procs.get_mut(&worker) {
                        let _ = proc.child.kill();
                        proc.killed = true;
                    }
                }
            }
            Action::Respawn => {
                *next_worker += 1;
                let id = *next_worker;
                summary.respawns += 1;
                spawn_worker(id, cfg, tx, procs)?;
                engine.worker_spawned(id);
                emit(
                    cfg,
                    TraceEventKind::WorkerSpawn {
                        episode: id,
                        pc: 0,
                        respawn: true,
                    },
                );
            }
            Action::Poison {
                cell,
                strikes,
                reassigned,
            } => {
                emit(
                    cfg,
                    TraceEventKind::CellPoisoned {
                        episode: cell as u64,
                        pc: 0,
                        strikes,
                    },
                );
                let outcome = poisoned_outcome(strikes, reassigned);
                summary.coverage.poisoned += 1;
                summary.coverage.record_reassignments(reassigned as u64);
                on_complete(cell, &outcome);
                outcomes[cell] = Some(outcome);
            }
            Action::Retire { worker } => {
                if let Some(proc) = procs.get_mut(&worker) {
                    proc.retiring = true;
                    if let Some(stdin) = proc.stdin.as_mut() {
                        let _ = send_to_worker(
                            stdin,
                            &ToWorker::Shutdown {
                                reason: "no work remaining".to_string(),
                            },
                        );
                    }
                    proc.stdin = None;
                }
            }
            Action::Abort { reason } => *abort = Some(reason),
        }
    }
    Ok(())
}

fn spawn_worker(
    id: WorkerId,
    cfg: &ExecConfig,
    tx: &mpsc::Sender<Note>,
    procs: &mut HashMap<WorkerId, WorkerProc>,
) -> Result<(), String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate own executable for worker spawn: {e}"))?;
    let mut child = Command::new(exe)
        .arg("__worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        // stderr inherits: worker panics and diagnostics reach the
        // operator without passing through the frame protocol.
        .spawn()
        .map_err(|e| format!("spawning worker {id} failed: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");

    let hello = ToWorker::Hello {
        info: HelloInfo {
            worker: id,
            retries: cfg.policy.retries,
            timeout_ms: cfg.policy.timeout.map_or(0, |t| t.as_millis() as u64),
            heartbeat_ms: cfg.heartbeat_ms,
        },
    };
    // A handshake write failure means the child died instantly; register
    // it anyway — its reader thread will deliver the EOF and the engine's
    // death path (with its respawn budget) takes over. That keeps "worker
    // dies immediately" and "worker dies later" on one code path.
    let _ = send_to_worker(&mut stdin, &hello);

    let reader_tx = tx.clone();
    std::thread::spawn(move || {
        let mut stdout = stdout;
        while let Ok(Some(text)) = read_frame(&mut stdout) {
            let Ok(frame) = json::from_str::<FromWorker>(&text) else {
                // Desynchronized stream: stop trusting it and report the
                // worker dead (the coordinator will kill and reap it).
                break;
            };
            if reader_tx.send(Note::Frame(id, frame)).is_err() {
                return;
            }
        }
        let _ = reader_tx.send(Note::Gone(id));
    });

    procs.insert(
        id,
        WorkerProc {
            child,
            stdin: Some(stdin),
            last_heard: Instant::now(),
            retiring: false,
            killed: false,
        },
    );
    Ok(())
}

fn emit(cfg: &ExecConfig, kind: TraceEventKind) {
    cfg.policy
        .trace
        .emit(TraceEvent::new(Cycles::ZERO, 0, kind));
}
