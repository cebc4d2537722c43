//! # utilbp-bench
//!
//! The simulator throughput harness for the adaptive back-pressure
//! workspace. It has two binaries:
//!
//! - `sim_throughput` steps both substrates over fixed workloads under
//!   UTIL-BP and appends one run to the machine-readable perf trajectory
//!   (`BENCH_sim_throughput.json`);
//! - `verify_bench` checks a trajectory file's structural invariants.
//!
//! The JSON rendering and those invariants live in [`trajectory`], shared
//! by both binaries and unit-tested, so the checks also run locally via
//! `cargo test -p utilbp-bench`.
//!
//! The paper's tables and figures and the extension studies are
//! regenerated by the `utilbp-experiments` binaries (`fig2`, `table3`,
//! `fig3_fig4`, `fig5`, `ablations`); the engine-level benchmark with
//! per-layer metrics is the separate `perfbench` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod trajectory;
