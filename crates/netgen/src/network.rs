//! Topology-agnostic routable networks.
//!
//! [`GridNetwork`](crate::GridNetwork) bakes the paper's grid geometry into
//! its routing; a [`Network`] decouples the two so *any* validated
//! [`NetworkTopology`] of standard four-way junctions can drive a demand
//! generator. A network is a topology plus, per boundary entry, the
//! pre-enumerated weighted routes vehicles may take ([`RouteOption`]s).
//! Routes are stored behind [`Arc`] so sampling one never allocates.
//!
//! [`enumerate_routes`] produces the route set generically: starting from
//! an entry road it walks the topology, continuing straight or spending one
//! of a bounded number of turns at each junction, and keeps every path that
//! reaches a boundary exit. Per-hop weights follow a memoryless turning
//! model (the probability of each movement at a junction is given by a
//! [`TurningProbabilities`] table, applied to the arm the vehicle arrives
//! from), so route weights are products of per-hop probabilities — the
//! grid's "straight or one random turn" demand is the `max_turns = 1`
//! instance of this scheme.

use std::sync::Arc;

use utilbp_core::standard::{self, Approach};

use crate::grid::GridNetwork;
use crate::patterns::{Pattern, TurningProbabilities};
use crate::route::Route;
use crate::topology::{IntersectionId, NetworkTopology, RoadId};

/// One boundary entry of a [`Network`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetEntry {
    /// The boundary entry road vehicles appear on.
    pub road: RoadId,
    /// The intersection the entry road feeds.
    pub(crate) intersection: IntersectionId,
    /// Base mean inter-arrival time at this entry, in seconds (before any
    /// scenario-level rate scaling).
    pub base_inter_arrival_s: f64,
}

/// One candidate journey from an entry, with its sampling weight and the
/// roads it traverses (entry road, every internal road, final exit road).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOption {
    /// Relative sampling weight (positive; normalized at sampling time).
    pub weight: f64,
    /// The journey, shared so sampling clones a pointer, not a route.
    pub route: Arc<Route>,
    /// Every road the journey touches, in travel order. Closure-aware
    /// demand uses this to exclude routes through closed roads without
    /// re-deriving them from the topology.
    pub roads: Vec<RoadId>,
}

/// A routable network: a validated topology of four-way junctions plus the
/// weighted route set of every boundary entry.
///
/// # Examples
///
/// ```
/// use utilbp_netgen::{GridNetwork, GridSpec, Network, Pattern};
///
/// let grid = GridNetwork::new(GridSpec::paper());
/// let net = Network::from_grid(&grid, Pattern::II);
/// assert_eq!(net.num_entries(), 12);
/// assert!(net.route_options(0).len() >= 7); // straight + 2 turns × 3 rows
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topology: NetworkTopology,
    entries: Vec<NetEntry>,
    /// Route options per entry, parallel to `entries`.
    routes: Vec<Vec<RouteOption>>,
}

impl Network {
    /// Assembles a network from its parts, validating that every entry is
    /// a boundary entry road, that each entry has at least one route, and
    /// that every route starts on its entry road with a positive weight.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub(crate) fn new(
        topology: NetworkTopology,
        entries: Vec<NetEntry>,
        routes: Vec<Vec<RouteOption>>,
    ) -> Result<Self, String> {
        if entries.len() != routes.len() {
            return Err(format!(
                "{} entries but {} route sets",
                entries.len(),
                routes.len()
            ));
        }
        for (i, entry) in entries.iter().enumerate() {
            if entry.road.index() >= topology.num_roads() {
                return Err(format!("entry road {} does not exist", entry.road));
            }
            if !topology.road(entry.road).is_entry() {
                return Err(format!("entry road {} is not a boundary entry", entry.road));
            }
            if !(entry.base_inter_arrival_s.is_finite() && entry.base_inter_arrival_s > 0.0) {
                return Err(format!(
                    "entry {} has non-positive inter-arrival time",
                    entry.road
                ));
            }
            if routes[i].is_empty() {
                return Err(format!("entry {} has no routes", entry.road));
            }
            for opt in &routes[i] {
                if opt.route.entry() != entry.road {
                    return Err(format!(
                        "a route of entry {} starts on the wrong road",
                        entry.road
                    ));
                }
                if !(opt.weight.is_finite() && opt.weight > 0.0) {
                    return Err(format!(
                        "a route of entry {} has non-positive weight",
                        entry.road
                    ));
                }
            }
        }
        Ok(Network {
            topology,
            entries,
            routes,
        })
    }

    /// The underlying validated topology.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// Number of boundary entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// All entries, in table order.
    pub fn entries(&self) -> &[NetEntry] {
        &self.entries
    }

    /// The route options of entry `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn route_options(&self, idx: usize) -> &[RouteOption] {
        &self.routes[idx]
    }

    /// Builds a network from a grid, with every route set enumerated by
    /// bounded-turn search at `max_turns = 1` (the paper's "straight or
    /// one turn" demand model) and per-side base inter-arrival times from
    /// `pattern` (Table II).
    ///
    /// # Panics
    ///
    /// Panics if route enumeration yields an inconsistent network, which
    /// grid construction rules out.
    pub fn from_grid(grid: &GridNetwork, pattern: Pattern) -> Network {
        let topology = grid.topology().clone();
        let turning = TurningProbabilities::PAPER;
        let mut entries = Vec::new();
        let mut routes = Vec::new();
        let max_hops = 2 * (grid.spec().rows + grid.spec().cols) as usize + 2;
        for point in grid.entries() {
            entries.push(NetEntry {
                road: point.road,
                intersection: point.intersection,
                base_inter_arrival_s: pattern.inter_arrival_s(point.side),
            });
            routes.push(enumerate_routes(
                &topology, point.road, &turning, 1, max_hops,
            ));
        }
        Network::new(topology, entries, routes).expect("grid networks enumerate consistently")
    }
}

/// Enumerates every journey from `entry` that reaches a boundary exit
/// within `max_hops` junction crossings, making at most `max_turns`
/// non-straight movements.
///
/// `entry` may be any road that feeds an intersection — a boundary entry
/// when building a [`Network`]'s per-entry route sets, or an *internal*
/// road when continuing a journey mid-network (the en-route replanning
/// of [`crate::Replanner`] enumerates detours this way).
///
/// Weights follow a memoryless turning model: at each junction the vehicle
/// goes straight, left, or right with the probability `turning` assigns to
/// the arm it arrives from, and a route's weight is the product of its
/// per-hop probabilities. Movements with zero probability are not
/// explored; paths that fail to exit within `max_hops` (e.g. laps of a
/// ring road) are dropped.
///
/// Every intersection on the walk must use the standard four-way link
/// table ([`standard::four_way`] or [`standard::four_way_with`]); other
/// layouts make the turn geometry undefined.
///
/// # Panics
///
/// Panics if `entry` is a boundary exit road (it feeds no intersection)
/// or a traversed intersection is not a standard four-way junction.
pub(crate) fn enumerate_routes(
    topology: &NetworkTopology,
    entry: RoadId,
    turning: &TurningProbabilities,
    max_turns: usize,
    max_hops: usize,
) -> Vec<RouteOption> {
    let (start_i, start_arm) = topology
        .road(entry)
        .dest()
        .expect("route enumeration starts at a road that feeds an intersection");
    let start_approach =
        Approach::from_incoming(start_arm).expect("entry feeds a four-way incoming arm");

    let mut out = Vec::new();
    let mut hops: Vec<(IntersectionId, utilbp_core::LinkId)> = Vec::new();
    let mut roads: Vec<RoadId> = vec![entry];
    walk(
        topology,
        entry,
        start_i,
        start_approach,
        1.0,
        max_turns,
        max_hops,
        turning,
        &mut hops,
        &mut roads,
        &mut out,
    );
    out
}

/// Depth-first walk behind [`enumerate_routes`].
#[allow(clippy::too_many_arguments)]
fn walk(
    topology: &NetworkTopology,
    entry: RoadId,
    here: IntersectionId,
    approach: Approach,
    weight: f64,
    turns_left: usize,
    hops_left: usize,
    turning: &TurningProbabilities,
    hops: &mut Vec<(IntersectionId, utilbp_core::LinkId)>,
    roads: &mut Vec<RoadId>,
    out: &mut Vec<RouteOption>,
) {
    if hops_left == 0 {
        return;
    }
    let node = topology.intersection(here);
    assert_eq!(
        node.layout().num_links(),
        12,
        "route enumeration requires standard four-way junctions"
    );
    for turn in standard::Turn::ALL {
        let p = match turn {
            standard::Turn::Straight => turning.straight(approach),
            standard::Turn::Left => turning.left(approach),
            standard::Turn::Right => turning.right(approach),
        };
        if p <= 0.0 {
            continue;
        }
        if turn != standard::Turn::Straight && turns_left == 0 {
            continue;
        }
        let link = standard::link_id(approach, turn);
        let exit_arm = turn.exit_from(approach);
        let next_road = node.outgoing_road(exit_arm.outgoing());
        hops.push((here, link));
        roads.push(next_road);
        match topology.road(next_road).dest() {
            None => out.push(RouteOption {
                weight: weight * p,
                route: Arc::new(Route::new(entry, hops.clone())),
                roads: roads.clone(),
            }),
            Some((there, in_arm)) => {
                let next_approach =
                    Approach::from_incoming(in_arm).expect("four-way arm indices map to compass");
                walk(
                    topology,
                    entry,
                    there,
                    next_approach,
                    weight * p,
                    turns_left - usize::from(turn != standard::Turn::Straight),
                    hops_left - 1,
                    turning,
                    hops,
                    roads,
                    out,
                );
            }
        }
        hops.pop();
        roads.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn grid_enumeration_matches_route_choices() {
        let grid = GridNetwork::new(GridSpec::paper());
        let net = Network::from_grid(&grid, Pattern::II);
        assert_eq!(net.num_entries(), 12);
        for idx in 0..net.num_entries() {
            // Straight + {left, right} × 3 candidate turning intersections.
            let options = net.route_options(idx);
            assert_eq!(options.len(), 7, "entry {idx}");
            let total: f64 = options.iter().map(|o| o.weight).sum();
            assert!(total > 0.0 && total <= 1.0 + 1e-9);
            for opt in options {
                assert_eq!(opt.route.entry(), net.entries()[idx].road);
                // Road list: entry + one road per hop.
                assert_eq!(opt.roads.len(), opt.route.len() + 1);
                assert!(net.topology().road(*opt.roads.last().unwrap()).is_exit());
                for &mid in &opt.roads[1..opt.roads.len() - 1] {
                    assert!(net.topology().road(mid).is_internal());
                }
            }
        }
    }

    #[test]
    fn base_rates_follow_the_pattern() {
        let grid = GridNetwork::new(GridSpec::paper());
        let net = Network::from_grid(&grid, Pattern::I);
        let from = |side: Approach| {
            let arm = |e: &&NetEntry| net.topology().road(e.road).dest().map(|(_, arm)| arm);
            net.entries()
                .iter()
                .find(|e| arm(e) == Some(side.incoming()))
                .unwrap()
        };
        let (north, west) = (from(Approach::North), from(Approach::West));
        assert_eq!(north.base_inter_arrival_s, 3.0);
        assert_eq!(west.base_inter_arrival_s, 9.0);
    }

    #[test]
    fn zero_max_turns_leaves_only_the_straight_route() {
        let grid = GridNetwork::new(GridSpec::paper());
        let topology = grid.topology();
        let entry = grid.entries()[0].road;
        let options = enumerate_routes(topology, entry, &TurningProbabilities::PAPER, 0, 16);
        assert_eq!(options.len(), 1);
        assert_eq!(options[0].route.len(), 3, "crosses the full column");
    }

    #[test]
    fn network_validation_rejects_mismatched_routes() {
        let grid = GridNetwork::new(GridSpec::paper());
        let net = Network::from_grid(&grid, Pattern::II);
        let mut entries = net.entries().to_vec();
        let mut routes: Vec<Vec<RouteOption>> = (0..net.num_entries())
            .map(|i| net.route_options(i).to_vec())
            .collect();
        // Swap one entry's road so its routes start on the wrong road.
        let other = entries[1].road;
        entries[0].road = other;
        let err = Network::new(net.topology().clone(), entries.clone(), routes.clone())
            .expect_err("mismatched entry road must be rejected");
        assert!(err.contains("wrong road"), "{err}");
        // Empty route set.
        entries[0].road = net.entries()[0].road;
        routes[0].clear();
        let err = Network::new(net.topology().clone(), entries, routes)
            .expect_err("empty route set must be rejected");
        assert!(err.contains("no routes"), "{err}");
    }
}
