//! # utilbp-netgen
//!
//! Network construction and demand generation for the adaptive
//! back-pressure workspace:
//!
//! - [`NetworkTopology`] — validated networks of signalized intersections
//!   wired by directed [`Road`]s;
//! - [`GridNetwork`] / [`GridSpec`] — the paper's 3×3 grid of Fig. 1
//!   four-way junctions (and arbitrary `rows × cols` variants);
//! - [`ArterialSpec`] / [`RingSpec`] / [`AsymmetricGridSpec`] — non-grid
//!   generators (corridors, ring roads, per-axis asymmetric grids) with
//!   per-arm road capacities;
//! - [`Network`] — topology-agnostic routable
//!   networks: any topology of standard four-way junctions plus
//!   pre-enumerated weighted route sets per boundary entry;
//! - [`TurningProbabilities`] (Table I) and [`Pattern`] /
//!   [`DemandSchedule`] (Table II, including the 4 h mixed pattern);
//! - [`Route`] / [`RouteChoice`] — per-vehicle journeys: straight through,
//!   or one turn at a randomly selected intersection;
//! - [`Replanner`] — deterministic en-route replanning: rewrites a
//!   vehicle's remaining route around mid-run road closures by
//!   enumerating open detours from the first uncommitted road;
//! - [`DemandGenerator`] — seeded Poisson arrivals with routed vehicles,
//!   served allocation-free from a per-(entry, choice) route cache.
//!
//! ```
//! use utilbp_core::{Tick, Ticks};
//! use utilbp_netgen::{
//!     DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec,
//!     Pattern,
//! };
//!
//! let grid = GridNetwork::new(GridSpec::paper());
//! let mut demand = DemandGenerator::new(
//!     &grid,
//!     DemandConfig::new(DemandSchedule::constant(Pattern::I, Ticks::new(60))),
//!     0xC0FFEE,
//! );
//! let first_minute: usize = (0..60)
//!     .map(|k| demand.poll(&grid, Tick::new(k)).len())
//!     .sum();
//! assert!(first_minute > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod demand;
mod generators;
mod grid;
mod network;
mod patterns;
mod replan;
mod route;
mod topology;

pub use demand::{Arrival, DemandConfig, DemandGenerator};
pub use generators::{ArterialSpec, AsymmetricGridSpec, RingSpec};
pub use grid::{EntryPoint, GridNetwork, GridPos, GridSpec, RouteChoice};
pub use network::{NetEntry, Network, RouteOption};
pub use patterns::{DemandSchedule, Pattern, TurningProbabilities};
pub use replan::{Replanner, RouteRewrite};
pub use route::Route;
pub use topology::{
    IntersectionId, IntersectionNode, NetworkTopology, NetworkTopologyBuilder, Road, RoadId,
    TopologyError,
};
