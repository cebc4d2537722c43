//! # utilbp-core
//!
//! CPS-oriented modeling of signalized intersections and the
//! **utilization-aware adaptive back-pressure controller (UTIL-BP)** from
//! *Chang et al., "CPS-oriented Modeling and Control of Traffic Signals
//! Using Adaptive Back Pressure", DATE 2020*.
//!
//! The crate provides the paper's Section II model and Section III
//! algorithm:
//!
//! - [`IntersectionLayout`] — the directed-graph junction model: incoming
//!   and outgoing roads, finite capacities `W_{i'}`, feasible links
//!   `L_i^{i'}` with service rates `µ_i^{i'}`, and control phases `c_j`;
//! - [`QueueObservation`] / [`IntersectionView`] — the state `Q(k)` a
//!   controller observes: per-movement queues (dedicated turning lanes) and
//!   outgoing-road occupancies;
//! - [`pressure`] — link gains: the original Eq. 5, the modified Eq. 6, and
//!   the utilization-aware Eq. 8 with its `α`/`β` penalties;
//! - [`UtilBp`] — Algorithm 1: per-mini-slot invocation, varying-length
//!   control phases, the `g*` keep-phase hysteresis (Eq. 12), and amber
//!   transitions of length `∆k`;
//! - [`SignalController`] — the trait all controllers (UTIL-BP and the
//!   baselines in `utilbp-baselines`) implement.
//!
//! ## Quickstart
//!
//! ```
//! use utilbp_core::{
//!     standard, IntersectionView, PhaseDecision, QueueObservation,
//!     SignalController, Tick, UtilBp,
//! };
//!
//! // The paper's Fig. 1 junction: W = 120, µ = 1 vehicle per mini-slot.
//! let layout = standard::four_way(120, 1.0);
//!
//! // Measured state: 6 vehicles queued to turn left from the west.
//! let mut queues = QueueObservation::zeros(&layout);
//! queues.set_movement(
//!     standard::link_id(standard::Approach::West, standard::Turn::Left),
//!     6,
//! );
//!
//! let mut controller = UtilBp::paper();
//! let view = IntersectionView::new(&layout, &queues).unwrap();
//! match controller.decide(&view, Tick::ZERO) {
//!     PhaseDecision::Control(phase) => println!("apply {phase}"),
//!     PhaseDecision::Transition => println!("amber"),
//! }
//! ```
//!
//! Simulation substrates that exercise this controller live in
//! `utilbp-queueing` (the paper's discrete-time queueing network) and
//! `utilbp-microsim` (a microscopic simulator standing in for SUMO).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod controller;
pub mod decide;
mod ids;
mod layout;
pub mod notation;
mod observation;
pub mod pressure;
pub mod standard;
pub mod state;
mod time;
mod utilbp;

pub use controller::{PhaseDecision, SignalController};
pub use ids::{IncomingId, LinkId, OutgoingId, PhaseId};
pub use layout::{IntersectionLayout, IntersectionLayoutBuilder, LayoutError, Link};
pub use observation::{
    IntersectionView, ObservationBuffer, ObservationShapeError, QueueObservation,
};
pub use pressure::{GainPenalties, PenaltyError};
pub use time::{Tick, Ticks};
pub use utilbp::{GStarPolicy, GainMode, PhaseScore, UtilBp, UtilBpConfig};
