#![warn(missing_docs)]
//! CC-NUMA memory substrate for the thrifty-barrier reproduction.
//!
//! The paper evaluates the thrifty barrier on a 64-node CC-NUMA machine
//! with release consistency and a DASH-style directory coherence protocol
//! (Table 1). This crate implements that substrate:
//!
//! * [`addr`] — byte addresses, cache lines, pages, and the NUMA placement
//!   policy (shared pages round-robin across nodes, private pages local).
//! * [`mesi`] — MESI line states, the full-map directory state, and sharer
//!   bit-sets.
//! * [`cache`] — set-associative write-back caches with LRU replacement, a
//!   dirty-way index, so a deep-sleep cache flush visits only the lines it
//!   writes back, and verified line ranges, so a steady-state working-set
//!   rewrite costs one step per run fragment.
//! * [`dir`] — the full-map sharer directory (dense window plus sparse
//!   overflow).
//! * [`network`] — the [`Interconnect`] choice: the hypercube latency model
//!   with Table 1's router and marshaling latencies, or a snooping bus.
//! * [`system`] — the [`CoherentMemory`]: per-node two-level cache
//!   hierarchies in front of the sharer directory. Accesses are resolved
//!   transactionally: each returns its completion time and the set of
//!   invalidation messages it caused, with per-destination delivery times.
//!   Those invalidations are precisely the *external wake-up* signals of
//!   the thrifty barrier (§3.3.1). The interconnect decides only the timing
//!   and delivery of transactions that go past the L2.
//! * [`faults`] — lost or delayed wake-up invalidations for the fault
//!   model.
//!
//! # Examples
//!
//! ```
//! use tb_mem::{CoherentMemory, MachineConfig, NodeId};
//! use tb_sim::Cycles;
//!
//! for cfg in [MachineConfig::table1(), MachineConfig::bus_smp(16)] {
//!     let mut mem = CoherentMemory::directory(cfg);
//!     let flag = mem.layout().shared_addr(0, 0);
//!     // Two spinners pull the flag into their caches…
//!     mem.read(NodeId::new(1), flag, Cycles::ZERO);
//!     mem.read(NodeId::new(2), flag, Cycles::ZERO);
//!     // …and the releaser's write invalidates both copies.
//!     let w = mem.write(NodeId::new(0), flag, Cycles::from_micros(1));
//!     assert_eq!(w.invalidations.len(), 2);
//! }
//! ```

pub mod addr;
pub mod cache;
pub mod dir;
pub mod faults;
pub mod mesi;
pub mod network;
pub mod system;

pub use addr::{Addr, LineAddr, MemLayout, NodeId};
pub use cache::{Cache, CacheConfig};
pub use dir::Directory;
pub use faults::{InvalidationFaultKind, InvalidationFaultRecord, InvalidationFaults};
pub use mesi::{DirState, LineState, SharerSet};
pub use network::{Hypercube, Interconnect};
pub use system::{
    Access, AccessClass, CoherentMemory, FlushOutcome, Invalidation, MachineConfig, MemStats,
};
