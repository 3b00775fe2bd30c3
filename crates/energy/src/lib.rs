#![warn(missing_docs)]
//! Energy substrate for the thrifty-barrier reproduction.
//!
//! The paper's energy methodology (§4.3) has three parts, each mirrored by a
//! module here:
//!
//! * [`wattch`] — a Wattch-style architectural power model. Per-component
//!   peak powers and activity factors give the power drawn while *computing*
//!   and while *spinning* at a barrier (the paper measures spin power at
//!   ~85 % of compute power). A worst-case microbenchmark mix yields the
//!   maximum thermal design power (TDPmax).
//! * [`sleep`] — the low-power sleep-state table. [`SleepTable::paper`]
//!   reproduces Table 3: Sleep1 (Halt) saves 70.2 % of TDPmax with 10 µs
//!   transitions, Sleep2 79.2 %/15 µs, Sleep3 97.8 %/35 µs; the deeper two
//!   cannot snoop and Sleep3 lowers the supply voltage. Sleep powers are
//!   derived by applying the published ratios to our TDPmax, exactly as the
//!   paper does.
//! * [`account`] — per-CPU energy/time ledgers split into the four
//!   categories of Figures 5 and 6: Compute, Spin, Transition, Sleep.
//!
//! # Examples
//!
//! ```
//! use tb_energy::SleepTable;
//! use tb_sim::Cycles;
//!
//! let table = SleepTable::paper();
//! // A thread predicting a 1 ms stall picks the deepest state whose round
//! // trip fits twice over (the algorithm's default profitability margin):
//! let pick = table.best_fit(Cycles::from_millis(1), 2.0);
//! assert_eq!(table.state(pick.unwrap()).name(), "Sleep3");
//! ```

pub mod account;
pub mod sleep;
pub mod wattch;

pub use account::{CategoryBreakdown, CpuLedger, EnergyCategory, MachineLedger};
pub use sleep::{SleepState, SleepStateId, SleepTable};
pub use wattch::{PowerModel, WattchModel};
