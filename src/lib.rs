#![warn(missing_docs)]
//! # thrifty-barrier
//!
//! A from-scratch reproduction of *"The Thrifty Barrier: Energy-Aware
//! Synchronization in Shared-Memory Multiprocessors"* (Jian Li, José F.
//! Martínez, Michael C. Huang; HPCA 2004): the algorithm, the CC-NUMA
//! multiprocessor simulator it was evaluated on, the energy model, the
//! workload models, and a real-threads runtime applying the same algorithm
//! with OS-level sleep analogs.
//!
//! The facade re-exports each subsystem under a short path:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `tb-core` | the thrifty barrier algorithm: BIT prediction, BRTS timing, sleep policy, wake-up planning |
//! | [`machine`] | `tb-machine` | the simulated 64-node machine, its bus and message-passing substrates, and the cell harness |
//! | [`mem`] | `tb-mem` | caches, directory MESI coherence, hypercube network |
//! | [`energy`] | `tb-energy` | Wattch-style power model, sleep states, energy ledgers |
//! | [`workloads`] | `tb-workloads` | calibrated SPLASH-2-like barrier workloads |
//! | [`runtime`] | `tb-runtime` | the real-threads thrifty barrier |
//! | [`serve`] | `tb-serve` | the cell executor (`execute`: journal, in-process harness or worker fleet, recording) and its crash-resilient fleet: leases, heartbeats, poison quarantine |
//! | [`trace`] | `tb-trace` | per-episode event tracing: ring-buffer capture, Perfetto/JSONL export, accuracy analysis |
//! | [`sim`] | `tb-sim` | discrete-event kernel, statistics, deterministic RNG |
//!
//! # Quick start
//!
//! ```
//! use thrifty_barrier::core::SystemConfig;
//! use thrifty_barrier::machine::Cell;
//! use thrifty_barrier::serve::{execute, ExecConfig};
//! use thrifty_barrier::workloads::AppSpec;
//!
//! let app = AppSpec::by_name("FMM").unwrap();
//! let configs = [SystemConfig::Baseline, SystemConfig::Thrifty];
//! let cells = Cell::matrix(&[app], &configs, 16, &[42]);
//! let outcomes = execute(&cells, &ExecConfig::default()).unwrap();
//! let report = |i: usize| outcomes[i].report.as_ref().unwrap();
//! let (baseline, thrifty) = (report(0), report(1));
//! println!(
//!     "FMM: thrifty saves {:.1}% energy at {:+.2}% runtime",
//!     thrifty.energy_savings_vs(baseline) * 100.0,
//!     thrifty.slowdown_vs(baseline) * 100.0,
//! );
//! assert!(thrifty.total_energy() < baseline.total_energy());
//! ```

pub mod cli;
pub mod reproduce;

pub use tb_core as core;
pub use tb_energy as energy;
pub use tb_machine as machine;
pub use tb_mem as mem;
pub use tb_runtime as runtime;
pub use tb_serve as serve;
pub use tb_sim as sim;
pub use tb_trace as trace;
pub use tb_workloads as workloads;
