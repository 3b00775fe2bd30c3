#![warn(missing_docs)]
//! The full simulated machine: the paper's experimental platform.
//!
//! [`Simulator`] executes a workload trace on the CC-NUMA substrate
//! (`tb-mem`) under one of the paper's barrier configurations (`tb-core`),
//! accounting energy with the Wattch-derived power model (`tb-energy`).
//! Each simulated processor is a state machine:
//!
//! ```text
//! Computing ──ComputeDone──► check in (lock + count over coherence)
//!    ▲                           │
//!    │                 early?────┴────last?
//!    │                   │              │
//!    │        spin ◄── sleep()          └─► flip flag ──► invalidations
//!    │          │     (maybe flush,                        = external
//!    │          │      enter state,                          wake-ups
//!    │          │      arm timer)
//!    │          ▼            │
//!    └──── observe flip ◄────┴── wake (timer or invalidation),
//!            (residual spin)      exit transition, residual check
//! ```
//!
//! Both simulators drive one copy of that per-CPU state machine (the
//! private `cpu` module): the spin-or-sleep decision, the sleep entry,
//! the timer and external wake-ups, the exit and the residual check, and
//! departure, with their energy charges, counters and trace events. Each
//! simulator supplies only its transport: the coherent barrier flag, or
//! the cluster's messages.
//!
//! * [`report`] — per-run results: wall-clock, the Compute / Spin /
//!   Transition / Sleep energy and time breakdowns of Figures 5-6, barrier
//!   event counts, prediction accuracy, and the per-instance records behind
//!   Figure 3 and the oracle tables.
//! * [`sim`] — the discrete-event executor itself.
//! * [`cluster`] — the same barrier on a message-passing cluster (the
//!   paper's §1/§7 extension): a coordinator barrier whose release message
//!   carries the measured interval time, reporting a [`RunReport`] too.
//! * [`run`] — a single run outside the harness: a trace under a named
//!   [`tb_core::SystemConfig`] (transparently performing the Baseline
//!   pre-run that feeds the Oracle-Halt/Ideal predictors), and the oracle
//!   table built from a Baseline run.
//! * [`harness`] — the parallel experiment runner: fans cells (app ×
//!   config × seed, each with an ablation [`Variant`] that can move it to
//!   the snooping bus or the cluster) out across a scoped
//!   worker pool with shared trace and Baseline/oracle caches,
//!   deterministic result order, optional per-cell event recording, and
//!   mean/σ aggregation across replicated seeds. `tb-serve`'s `execute`
//!   adds the journal and the worker-process fleet around it.
//!
//! # Examples
//!
//! ```
//! use tb_core::SystemConfig;
//! use tb_machine::harness::{Cell, Harness};
//! use tb_workloads::AppSpec;
//!
//! let app = AppSpec::by_name("FMM").unwrap();
//! let configs = [SystemConfig::Baseline, SystemConfig::Thrifty];
//! let cells = Cell::matrix(&[app], &configs, 16, &[1]);
//! let outcomes = Harness::serial().run_cells_isolated(&cells);
//! let energy = |i: usize| outcomes[i].report.as_ref().unwrap().total_energy();
//! assert!(energy(1) < energy(0));
//! ```

pub mod cluster;
mod cpu;
pub mod harness;
pub mod journal;
pub mod report;
pub mod run;
pub mod sim;

pub use harness::{
    retry_backoff, AppMatrix, BaselineBundle, Cell, CellOutcome, Harness, Knob, Substrate,
    SupervisionPolicy, Variant,
};
pub use journal::{CellKey, JournalError, StoredOutcome, SweepJournal};
pub use report::{
    aggregate, AggregateReport, BarrierEventCounts, CellCoverage, InstanceRecord, RunReport,
    SiteSummary,
};
pub use sim::{
    simulate, try_simulate_faulted, CellError, Deadline, LivelockDiagnostics, Simulator,
    SimulatorConfig, TimeSharing, DEFAULT_PROGRESS_BUDGET,
};
