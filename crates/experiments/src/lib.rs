//! # utilbp-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (Section V):
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table I (input) | [`render_table1`] | `all` |
//! | Table II (input) | [`render_table2`] | `all` |
//! | Table III | [`table3`]: one [`compare`] per pattern | `table3`, `all`, `export` |
//! | Fig. 2 | [`fig2`]: Table III's Mixed [`compare`] (`all` and `export` print [`Table3Result::fig2`]) | `fig2`, `all`, `export` |
//! | Figs. 3–4 | [`pattern1_detail`] → `render_fig3_fig4` | `fig3_fig4` |
//! | Fig. 5 | [`pattern1_detail`] → `render_fig5` | `fig5` |
//! | Ablations (extension) | [`ablation`] | `ablations` |
//! | Extension studies: α/β trade-off, seed robustness (one [`compare`] per seed), lane discipline, detector range, sensor dropout | [`tradeoff`], [`robustness`], [`plant_studies`], [`scenario_comparison`] | `ablations` |
//!
//! [`compare`] is the paper's one comparison — UTIL-BP against CAP-BP's
//! whole period sweep on identical demand — so the sweep is written
//! once. Every paper run, and every extension study but the
//! sensor-dropout one (which runs on the scenario engine), goes through
//! [`run`], which checks the invariant guard (vehicle conservation,
//! sensor consistency, closure drain) after every step and panics on a
//! violation.
//!
//! All experiments run on either substrate ([`Backend::Microscopic`] — the
//! SUMO substitute, used for headline numbers — or [`Backend::Queueing`]
//! for fast sweeps) and are deterministic for a given seed. Durations and
//! sweep ranges live in [`ExperimentOptions`]; `ExperimentOptions::paper()`
//! reproduces the full Section V setup, `quick()` a scaled-down version,
//! and `from_env()` honors `UTILBP_QUICK` / `UTILBP_BACKEND` /
//! `UTILBP_HOUR` / `UTILBP_SEED`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
pub mod artifacts;
mod chaos;
mod comparison;
mod inputs;
mod options;
mod recovery;
mod robustness;
mod runner;
mod scenario;
mod scenarios;
mod table3;
mod trace;
mod traces;
mod tradeoff;

pub use ablation::{ablation, plant_studies, variants, AblationResult, AblationRow};
pub use chaos::{chaos_timeline, run_chaos, ChaosConfig, ChaosReport, TimelineReport};
pub use comparison::{compare, fig2, Comparison};
pub use inputs::{render_table1, render_table2};
pub use options::ExperimentOptions;
pub use recovery::{render_outcome, run_recovery, Corruption, RecoveryConfig, RecoveryReport};
pub use robustness::{robustness, RobustnessResult};
pub use runner::{run, run_many, Probe, RunResult};
pub use scenario::{Backend, ControllerKind, Scenario};
pub use scenarios::{scenario_comparison, ScenarioComparison, ScenarioRow};
pub use table3::{table3, Table3Result, Table3Row};
pub use trace::{run_trace, TraceOptions, TraceReport};
pub use traces::{pattern1_detail, Pattern1Detail};
pub use tradeoff::{penalty_grid, tradeoff, TradeoffResult, TradeoffRow};
