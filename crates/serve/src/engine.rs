//! The coordinator's scheduling brain: a pure state machine over worker
//! events, separated from process plumbing so every policy — lease
//! reassignment, poison quarantine, respawn budgeting, termination — is
//! testable without spawning a single process.
//!
//! # Termination (Dijkstra–Scholten deficit counting)
//!
//! The engine maintains a *deficit*: `dispatched − acked`, where every
//! lease grant increments `dispatched` and every lease *resolution*
//! increments `acked`. A lease resolves exactly one way per grant:
//!
//! * the worker returns `Done` for that lease, or
//! * the worker dies and the coordinator revokes the lease.
//!
//! Because the coordinator kills a silent worker *before* revoking its
//! lease (and a dead worker's pipe cannot deliver frames after EOF), no
//! lease can resolve twice, and a stale `Done` quoting a revoked lease id
//! is discarded without acking. The sweep is therefore complete exactly
//! when every cell is finalized (completed or poisoned), the pending
//! queue is empty, and the deficit is zero — at that point no message in
//! flight can change any cell's outcome, so announcing termination is
//! safe. This is the Dijkstra–Scholten argument specialized to a
//! one-level tree: the coordinator is the environment, leases are the
//! engagement edges, and revocation stands in for the signal of a
//! detached (crashed) subtree.

use std::collections::{HashMap, HashSet, VecDeque};

/// Fleet-unique worker id.
pub type WorkerId = u64;

/// Consecutive worker deaths that condemn a cell as poison.
pub const POISON_STRIKES: u32 = 2;

/// Replacement workers a fleet may spawn before it gives up.
pub const MAX_RESPAWNS: u32 = 32;

/// Engine policy knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Target fleet size; deaths below this trigger respawns while work
    /// remains.
    pub workers: usize,
    /// Consecutive worker deaths that condemn a cell as poison.
    pub poison_strikes: u32,
    /// Replacement workers the engine may request over the sweep's life;
    /// exhausting it with work remaining aborts rather than looping a
    /// crash forever.
    pub max_respawns: u32,
}

/// What the fleet must do in response to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send the worker an assignment frame for `cell` under `lease`.
    Assign {
        /// The worker to assign to.
        worker: WorkerId,
        /// The cell's sweep index.
        cell: usize,
        /// The fresh lease id.
        lease: u64,
        /// Prior revocations of this cell (zero on first dispatch) — lets
        /// the fleet emit grant vs. reassign trace events.
        reassigned: u32,
    },
    /// Spawn a replacement worker process.
    Respawn,
    /// Finalize `cell` as poisoned: it killed `strikes` workers in a row.
    Poison {
        /// The cell's sweep index.
        cell: usize,
        /// The consecutive deaths that condemned it.
        strikes: u32,
        /// Times the cell was requeued before being condemned.
        reassigned: u32,
    },
    /// No work is left for this worker; send it `Shutdown`.
    Retire {
        /// The worker to retire.
        worker: WorkerId,
    },
    /// The sweep cannot make progress (all workers dead, respawn budget
    /// exhausted); fail the run with this reason.
    Abort {
        /// Human-readable failure description.
        reason: String,
    },
}

/// Per-cell scheduling state.
#[derive(Debug, Clone, Copy, Default)]
struct CellState {
    /// Consecutive worker deaths while holding this cell's lease.
    strikes: u32,
    /// Times the cell was requeued after a revocation.
    reassigned: u32,
    /// Completed or poisoned.
    finalized: bool,
}

/// The coordinator state machine. Drive it with `worker_*` / [`Engine::done`]
/// events; execute the [`Action`]s it returns, in order.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    cells: Vec<CellState>,
    /// Indices awaiting dispatch, front first.
    pending: VecDeque<usize>,
    /// Ready workers with nothing to do (drained first on requeue).
    idle: Vec<WorkerId>,
    /// Live leases: worker → (cell, lease id).
    inflight: HashMap<WorkerId, (usize, u64)>,
    /// Workers the fleet has spawned and not yet seen die or retire.
    alive: HashSet<WorkerId>,
    next_lease: u64,
    dispatched: u64,
    acked: u64,
    finalized: usize,
    respawns_used: u32,
}

impl Engine {
    /// An engine over `n_cells` cells, all pending, with no workers yet.
    pub fn new(n_cells: usize, cfg: EngineConfig) -> Self {
        Engine {
            cfg,
            cells: vec![CellState::default(); n_cells],
            pending: (0..n_cells).collect(),
            idle: Vec::new(),
            inflight: HashMap::new(),
            alive: HashSet::new(),
            next_lease: 0,
            dispatched: 0,
            acked: 0,
            finalized: 0,
            respawns_used: 0,
        }
    }

    /// Registers a spawned worker (initial fleet or respawn). The worker
    /// gets no work until its `Ready` frame arrives.
    pub fn worker_spawned(&mut self, worker: WorkerId) {
        self.alive.insert(worker);
    }

    /// A worker announced itself idle (`Ready` after `Hello` or after a
    /// `Done`). Returns at most one `Assign` or `Retire`.
    pub fn worker_ready(&mut self, worker: WorkerId) -> Vec<Action> {
        if !self.alive.contains(&worker) || self.inflight.contains_key(&worker) {
            // Stale (already declared dead) or out-of-protocol (ready
            // while leased); ignore.
            return Vec::new();
        }
        if let Some(cell) = self.pending.pop_front() {
            vec![self.grant(worker, cell)]
        } else if self.finished() || self.inflight.is_empty() {
            // Either everything is done, or every unfinalized cell is
            // poisoned-and-finalized with nothing in flight: this worker
            // can never be needed again.
            vec![Action::Retire { worker }]
        } else {
            // Cells are in flight elsewhere; one may requeue if its
            // worker dies, so keep this one parked.
            self.idle.push(worker);
            Vec::new()
        }
    }

    /// A worker died (pipe EOF after crash, `kill -9`, or a
    /// missed-heartbeat kill). Revokes its lease, requeues or poisons the
    /// cell, hands requeued work to an idle worker if one is parked, and
    /// decides whether to respawn or abort.
    pub fn worker_dead(&mut self, worker: WorkerId) -> Vec<Action> {
        if !self.alive.remove(&worker) {
            return Vec::new();
        }
        self.idle.retain(|&w| w != worker);
        let mut actions = Vec::new();
        if let Some((cell, _lease)) = self.inflight.remove(&worker) {
            self.acked += 1; // the lease resolved by revocation
            let state = &mut self.cells[cell];
            state.strikes += 1;
            if state.strikes >= self.cfg.poison_strikes {
                state.finalized = true;
                self.finalized += 1;
                actions.push(Action::Poison {
                    cell,
                    strikes: state.strikes,
                    reassigned: state.reassigned,
                });
            } else {
                state.reassigned += 1;
                self.pending.push_front(cell);
            }
        }
        // A parked worker can absorb the requeued cell immediately.
        if !self.pending.is_empty() {
            if let Some(idle) = self.idle.pop() {
                let cell = self.pending.pop_front().expect("checked non-empty");
                actions.push(self.grant(idle, cell));
            }
        }
        let outstanding = self.pending.len() + self.inflight.len();
        if outstanding > 0 && self.alive.len() < self.cfg.workers.min(outstanding) {
            if self.respawns_used < self.cfg.max_respawns {
                self.respawns_used += 1;
                actions.push(Action::Respawn);
            } else if self.alive.is_empty() {
                actions.push(Action::Abort {
                    reason: format!(
                        "all workers dead with {outstanding} cells outstanding and the \
                         respawn budget ({}) exhausted",
                        self.cfg.max_respawns
                    ),
                });
            }
        }
        actions
    }

    /// A worker returned a `Done` frame. Returns `true` when the lease was
    /// live — the caller should record the outcome and then call
    /// [`Engine::worker_ready`] for the now-idle worker — and `false` for
    /// a stale frame to discard.
    pub fn done(&mut self, worker: WorkerId, lease: u64, cell: usize) -> bool {
        match self.inflight.get(&worker) {
            Some(&(held_cell, held_lease)) if held_cell == cell && held_lease == lease => {
                self.inflight.remove(&worker);
                self.acked += 1;
                let state = &mut self.cells[cell];
                state.strikes = 0;
                if !state.finalized {
                    state.finalized = true;
                    self.finalized += 1;
                }
                true
            }
            _ => false,
        }
    }

    /// Whether every cell is finalized with a zero deficit — the
    /// termination condition proved in the module docs.
    pub fn finished(&self) -> bool {
        self.finalized == self.cells.len()
            && self.pending.is_empty()
            && self.dispatched == self.acked
    }

    /// The current lease deficit (`dispatched − acked`); zero at
    /// termination.
    pub fn deficit(&self) -> u64 {
        self.dispatched - self.acked
    }

    /// Times `cell`'s lease was revoked and the cell requeued.
    pub fn cell_reassigned(&self, cell: usize) -> u32 {
        self.cells[cell].reassigned
    }

    /// Workers currently registered as alive.
    pub fn alive(&self) -> usize {
        self.alive.len()
    }

    /// Whether `worker` currently holds a cell lease.
    pub fn has_lease(&self, worker: WorkerId) -> bool {
        self.inflight.contains_key(&worker)
    }

    /// Replacement workers requested so far.
    pub fn respawns_used(&self) -> u32 {
        self.respawns_used
    }

    fn grant(&mut self, worker: WorkerId, cell: usize) -> Action {
        self.next_lease += 1;
        self.dispatched += 1;
        self.inflight.insert(worker, (cell, self.next_lease));
        Action::Assign {
            worker,
            cell,
            lease: self.next_lease,
            reassigned: self.cells[cell].reassigned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(n: usize, workers: usize) -> Engine {
        Engine::new(
            n,
            EngineConfig {
                workers,
                poison_strikes: 2,
                max_respawns: 4,
            },
        )
    }

    fn lease_of(actions: &[Action]) -> (usize, u64) {
        match actions {
            [Action::Assign { cell, lease, .. }] => (*cell, *lease),
            other => panic!("expected a single Assign, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_terminates_with_zero_deficit() {
        let mut e = engine(3, 2);
        e.worker_spawned(1);
        e.worker_spawned(2);
        let (c1, l1) = lease_of(&e.worker_ready(1));
        let (c2, l2) = lease_of(&e.worker_ready(2));
        assert_eq!((c1, c2), (0, 1), "cells dispatch in sweep order");
        assert!(e.done(1, l1, c1));
        let (c3, l3) = lease_of(&e.worker_ready(1));
        assert_eq!(c3, 2);
        assert!(e.done(2, l2, c2));
        assert_eq!(e.worker_ready(2), vec![], "parked: cell 2 in flight");
        assert!(!e.finished());
        assert!(e.done(1, l3, c3));
        assert!(e.finished());
        assert_eq!(e.deficit(), 0);
        assert_eq!(
            e.worker_ready(1),
            vec![Action::Retire { worker: 1 }],
            "idle workers retire once the sweep is done"
        );
    }

    #[test]
    fn death_requeues_to_idle_worker_without_respawning() {
        let mut e = engine(1, 2);
        e.worker_spawned(1);
        e.worker_spawned(2);
        let (c, _l) = lease_of(&e.worker_ready(1));
        assert_eq!(e.worker_ready(2), vec![], "worker 2 parks");
        let actions = e.worker_dead(1);
        // The idle worker absorbs the requeued cell; the fleet is still
        // below strength for the outstanding work, so a respawn follows.
        assert!(
            matches!(
                actions[0],
                Action::Assign {
                    worker: 2,
                    cell,
                    reassigned: 1,
                    ..
                } if cell == c
            ),
            "got {actions:?}"
        );
        assert_eq!(actions.len(), 1, "one live worker covers one cell");
        assert_eq!(e.cell_reassigned(c), 1);
        assert_eq!(e.deficit(), 1, "the new lease is the only deficit");
    }

    #[test]
    fn two_strikes_poisons_and_sweep_still_terminates() {
        let mut e = engine(2, 1);
        e.worker_spawned(1);
        let (c, _) = lease_of(&e.worker_ready(1));
        let actions = e.worker_dead(1);
        assert_eq!(actions, vec![Action::Respawn]);
        e.worker_spawned(2);
        let (c2, _) = lease_of(&e.worker_ready(2));
        assert_eq!(c2, c, "requeued cell dispatches first");
        let actions = e.worker_dead(2);
        assert!(
            matches!(
                actions[0],
                Action::Poison {
                    cell,
                    strikes: 2,
                    reassigned: 1,
                } if cell == c
            ),
            "got {actions:?}"
        );
        assert!(matches!(actions[1], Action::Respawn), "got {actions:?}");
        e.worker_spawned(3);
        let (c3, l3) = lease_of(&e.worker_ready(3));
        assert_ne!(c3, c, "poisoned cells never redispatch");
        assert!(e.done(3, l3, c3));
        assert!(e.finished(), "poison + completion covers every cell");
        assert_eq!(e.deficit(), 0);
    }

    #[test]
    fn success_resets_the_strike_counter() {
        let mut e = engine(1, 1);
        e.worker_spawned(1);
        let (c, _) = lease_of(&e.worker_ready(1));
        e.worker_dead(1); // strike one
        e.worker_spawned(2);
        let (_, l) = lease_of(&e.worker_ready(2));
        assert!(e.done(2, l, c), "second attempt completes");
        assert!(e.finished());
    }

    #[test]
    fn stale_done_after_revocation_is_discarded() {
        let mut e = engine(1, 1);
        e.worker_spawned(1);
        let (c, l) = lease_of(&e.worker_ready(1));
        e.worker_dead(1);
        assert!(!e.done(1, l, c), "revoked lease cannot complete");
        assert_eq!(e.deficit(), 0, "the stale frame did not double-ack");
    }

    #[test]
    fn respawn_budget_exhaustion_aborts() {
        let mut e = Engine::new(
            1,
            EngineConfig {
                workers: 1,
                poison_strikes: 100, // never poison: force the respawn path
                max_respawns: 1,
            },
        );
        e.worker_spawned(1);
        lease_of(&e.worker_ready(1));
        assert_eq!(e.worker_dead(1), vec![Action::Respawn]);
        e.worker_spawned(2);
        lease_of(&e.worker_ready(2));
        let actions = e.worker_dead(2);
        assert!(
            matches!(actions.as_slice(), [Action::Abort { .. }]),
            "got {actions:?}"
        );
    }

    #[test]
    fn unknown_or_dead_workers_are_ignored() {
        let mut e = engine(1, 1);
        assert_eq!(e.worker_ready(9), vec![], "never-spawned worker");
        assert_eq!(e.worker_dead(9), vec![], "never-spawned worker");
        e.worker_spawned(1);
        e.worker_dead(1);
        assert_eq!(e.worker_dead(1), vec![], "double death is idempotent");
    }
}
