//! Criterion micro-benchmarks of the real-threads barrier (`benches/`).
//!
//! The paper's tables and figures are regenerated by
//! `thrifty-barrier reproduce <ID>`, and simulator performance is measured
//! by the repository benchmark in `src/bin/benchmark/`, a package of its
//! own.
