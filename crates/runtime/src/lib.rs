#![warn(missing_docs)]
//! Real-threads thrifty barrier.
//!
//! The paper's mechanism needs hardware sleep states and a cache-controller
//! extension, but the *algorithm* — PC-indexed BIT prediction, derived
//! stall times, deepest-state-that-fits selection, hybrid wake-up with an
//! overprediction cut-off — is hardware-agnostic. This crate applies it to
//! ordinary OS threads, mapping sleep states to scheduler-level analogs:
//!
//! | Paper state | Runtime analog | "Transition" cost |
//! |---|---|---|
//! | spin | busy-wait with `spin_loop` hints | — |
//! | shallow sleep | `thread::yield_now` loop | scheduler quantum (~5 µs) |
//! | deep sleep | timed park on a condvar | park/unpark round trip (~60 µs) |
//!
//! The *external wake-up* analog is the releaser's broadcast on the
//! condvar; the *internal wake-up* analog is the park timeout derived from
//! the predicted stall. Time in each state is tracked per thread as the
//! energy proxy (a parked thread frees its core; a spinning thread burns
//! it). Only a thread that slept feeds the §3.3.3 cut-off: a spinner or
//! the releaser sees the flip late only when the host deschedules it.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use tb_core::BarrierPc;
//! use tb_runtime::ThriftyRuntimeBarrier;
//!
//! let threads = 4;
//! let barrier = Arc::new(ThriftyRuntimeBarrier::new(threads));
//! let pc = BarrierPc::new(0x100);
//! let handles: Vec<_> = (0..threads)
//!     .map(|t| {
//!         let b = Arc::clone(&barrier);
//!         std::thread::spawn(move || {
//!             for _ in 0..5 {
//!                 // ... compute ...
//!                 b.wait(t, pc);
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(barrier.stats().barriers_completed, 5);
//! ```

pub mod clock;
pub mod lock;
pub mod spin;
pub mod stats;
pub mod thrifty;

pub use clock::RuntimeClock;
pub use lock::{LockSite, LockStats, ThriftyLock, ThriftyLockGuard};
pub use spin::SpinBarrier;
pub use stats::{RuntimeStats, ThreadStats};
pub use thrifty::{RuntimeSleepLevels, ThriftyRuntimeBarrier, WaitOutcome};
