//! # utilbp-baselines
//!
//! Baseline and ablation controllers for comparison against the paper's
//! [`UtilBp`](utilbp_core::UtilBp):
//!
//! - [`CapBp`] — the fixed-length **capacity-aware** back-pressure
//!   controller of Gregoire et al. (TCNS 2015), the paper's main baseline
//!   (Fig. 2, Table III);
//! - [`OriginalBp`] — Varaiya's original back-pressure policy: fixed slots,
//!   infinite-capacity assumption, not work-conserving;
//! - [`FixedTime`] — open-loop pre-timed cycling;
//! - [`Actuated`] — industry-standard gap-out/max-out vehicle actuation;
//! - [`LongestQueueFirst`] — myopic greedy utilization;
//! - [`FixedLengthUtilBp`] — UTIL-BP's Eq. 8 selection on fixed slots
//!   (ablation separating the gain function from adaptivity);
//! - [`SlotMachine`] — the fixed-slot timing skeleton they share.
//!
//! All of them implement [`SignalController`](utilbp_core::SignalController)
//! and can drive either simulation substrate. The slot controllers are
//! built from their green period alone: each is a [`SlotMachine`] (which
//! holds the period and the paper's [`AMBER`]) plus a selection rule,
//! and the values the paper fixes are named constants here
//! ([`AMBER`], CAP-BP's [`MOVEMENT_STORAGE`]; the fixed-length UTIL-BP
//! ranks with `GainPenalties::PAPER`). Choosing a controller and its
//! parameters for an experiment is `utilbp-experiments`'
//! `ControllerKind`, the one recipe.
//!
//! ## Fault model
//!
//! The paper's CPS decomposition — sensors, controller, actuator — is
//! mirrored by three composable decorators, each deterministic under a
//! seeded RNG and gated by a shared [`FaultSwitch`] so scenario fault
//! *windows* can flip them mid-run:
//!
//! - [`FaultySensors`] corrupts the *observation path*: dropout, noise,
//!   stale repeats (`freeze`), and the persistent stuck-at /
//!   frozen-counter latch modes ([`SensorFaultConfig`]);
//! - [`FaultyActuation`] corrupts the *command path*: stuck-phase
//!   actuators, dropped commands (hold last phase), and delayed
//!   delivery ([`ActuationFaultConfig`]);
//! - [`Degrading`] closes the loop: a per-intersection watchdog that
//!   detects implausible sensor streams (frozen counters, impossible
//!   deltas) and swaps in a fixed-time fallback until readings become
//!   plausible again, with hysteresis ([`WatchdogConfig`],
//!   [`WatchdogStats`]).
//!
//! Composition order matters: wrap the watchdog *inside* the sensor
//! decorator (so it monitors what the controller actually sees) and
//! the actuation decorator *outside* everything (faulty execution of
//! whatever the control stack decided):
//! `FaultyActuation(FaultySensors(Degrading(inner, fallback)))`.
//! Every fault mode's random draw is gated on its probability being
//! positive, so configurations that do not use a mode reproduce the
//! exact decision streams they produced before that mode existed.
//!
//! ```
//! use utilbp_baselines::CapBp;
//! use utilbp_core::{standard, QueueObservation, IntersectionView, SignalController, Tick, Ticks};
//!
//! let layout = standard::four_way(120, 1.0);
//! let obs = QueueObservation::zeros(&layout);
//! let view = IntersectionView::new(&layout, &obs).unwrap();
//! let mut cap_bp = CapBp::new(Ticks::new(16));
//! let _decision = cap_bp.decide(&view, Tick::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actuated;
mod actuation;
mod capbp;
mod faults;
mod fixed_util;
mod original;
mod simple;
mod slot;
mod watchdog;

pub use actuated::{Actuated, ActuatedConfig};
pub use actuation::{ActuationFaultConfig, FaultyActuation};
pub use capbp::{CapBp, MOVEMENT_STORAGE};
pub use faults::{FaultSwitch, FaultySensors, SensorFaultConfig};
pub use fixed_util::FixedLengthUtilBp;
pub use original::OriginalBp;
pub use simple::{FixedTime, LongestQueueFirst};
pub use slot::{SlotMachine, AMBER};
pub use watchdog::{Degrading, WatchdogConfig, WatchdogStats};
