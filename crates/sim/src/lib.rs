#![warn(missing_docs)]
//! Discrete-event simulation kernel used by the thrifty-barrier reproduction.
//!
//! This crate is deliberately generic: it knows nothing about processors,
//! caches, or barriers. It provides the four ingredients every component of
//! the simulated machine shares:
//!
//! * [`time`] — strongly-typed simulation time ([`Cycles`]) at the nominal
//!   1 GHz clock of the paper's Table 1, where one cycle equals one
//!   nanosecond, plus human-readable formatting.
//! * [`event`] — a cancellable priority event queue ([`EventQueue`]) with
//!   deterministic FIFO ordering among same-time events.
//! * [`stats`] — online statistics ([`OnlineStats`]) and latency quantile
//!   sketches ([`QuantileSketch`]) used by the reporting layers.
//! * [`rng`] — a deterministic, splittable random-number source
//!   ([`SimRng`]) so every experiment is reproducible from a single seed.
//!
//! # Examples
//!
//! ```
//! use tb_sim::{Cycles, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Cycles::new(10), "late");
//! let early = q.schedule(Cycles::new(5), "early");
//! assert_eq!(q.pop(), Some((Cycles::new(5), "early")));
//! assert!(!q.cancel(early)); // already delivered
//! ```

pub mod digest;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventId, EventQueue};
pub use rng::SimRng;
pub use stats::{OnlineStats, QuantileSketch};
pub use time::{Cycles, TimeDelta};
