//! # utilbp-metrics
//!
//! Measurement and reporting utilities shared by the adaptive back-pressure
//! simulators and experiment harness:
//!
//! - [`SummaryStats`] — streaming mean/variance/min/max with parallel merge;
//! - [`TimeSeries`] — named `(tick, value)` sequences (queue lengths,
//!   Fig. 5);
//! - [`PhaseTrace`] — run-length-compressed controller decisions
//!   (Figs. 3–4);
//! - [`WaitingLedger`] / [`VehicleId`] — per-vehicle queuing-time
//!   accounting (Fig. 2, Table III);
//! - [`TextTable`] and [`ascii_chart`] — diffable plain-text rendering of
//!   tables and figure shapes;
//! - [`PhaseTimings`] / [`PhaseStopwatch`] — the one per-phase step
//!   timing both simulators lap into.
//!
//! ```
//! use utilbp_core::Tick;
//! use utilbp_metrics::{SummaryStats, TimeSeries};
//!
//! let mut queue = TimeSeries::new("east approach");
//! queue.push(Tick::new(0), 2.0);
//! queue.push(Tick::new(1), 5.0);
//! assert_eq!(queue.mean(), 3.5);
//!
//! let mut stats = SummaryStats::new();
//! stats.record(97.97);
//! stats.record(102.87);
//! assert_eq!(stats.count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod render;
mod series;
mod summary;
mod timing;
mod trace;
mod waiting;

pub use histogram::Histogram;
pub use render::{ascii_chart, TextTable};
pub use series::TimeSeries;
pub use summary::SummaryStats;
pub use timing::{PhaseStopwatch, PhaseTimings};
pub use trace::PhaseTrace;
pub use waiting::{VehicleId, WaitingLedger};
