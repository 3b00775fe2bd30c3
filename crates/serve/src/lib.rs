//! The cell executor and its crash-resilient multi-process fleet
//! (`tb serve` / `--workers N`).
//!
//! [`execute`] runs every list of cells the command line runs: journal,
//! reachability check, in-process harness or worker fleet ([`ExecConfig`]).
//!
//! PR 5's supervised harness made a sweep survive *cells* misbehaving —
//! panics, livelocks, deadline overruns — inside one process. This crate
//! makes it survive the loss of whole **worker processes**: a coordinator
//! shards content-keyed cells to a fleet of spawned `tb __worker`
//! children over a length-prefixed JSON frame protocol
//! ([`proto`]), tracks per-worker heartbeats and per-cell leases, and on
//! any worker death — crash, `kill -9`, or a missed-heartbeat kill —
//! revokes the lease and requeues the cell. A cell that kills workers
//! [`POISON_STRIKES`] times in a row is quarantined as poison
//! ([`CellError::Poisoned`](tb_machine::CellError::Poisoned)): recorded in
//! coverage, never dispatched again, so one bad cell cannot spin the fleet
//! forever.
//!
//! Termination uses Dijkstra–Scholten-style deficit counting over
//! dispatched/resolved leases (see [`engine`]), so the coordinator exits
//! exactly when every cell is completed-or-poisoned with nothing in
//! flight. Results land in the caller's `on_complete` hook in completion
//! order — [`execute`] wires this to the fsync'd sweep journal, which is
//! what makes a *coordinator* crash recoverable via `--resume` — and the
//! returned outcome vector is in sweep-cell order, so rendered output is
//! byte-identical to an in-process run at any worker count.
//!
//! Layering, lowest first:
//!
//! * [`proto`] — frame format and message types;
//! * [`engine`] — the pure scheduling/termination state machine;
//! * [`worker`] — the child-process entry point (`tb __worker`);
//! * [`fleet`] — process spawning, pipe pumping, heartbeat deadlines;
//! * [`exec`] — [`execute`], which runs cells in process or on a fleet.

pub mod engine;
pub mod exec;
pub mod fleet;
pub mod proto;
pub mod worker;

pub use engine::{Action, Engine, EngineConfig, WorkerId, MAX_RESPAWNS, POISON_STRIKES};
pub use exec::{execute, ExecConfig, ExecError, JournalMode, DEFAULT_HEARTBEAT_MS};
pub use proto::{FromWorker, ToWorker};
pub use worker::worker_main;
