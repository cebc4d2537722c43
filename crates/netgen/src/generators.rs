//! Non-grid network generators: arterial corridors, ring roads, and
//! asymmetric grids.
//!
//! Each generator assembles a validated [`NetworkTopology`] out of standard
//! four-way junctions ([`standard::four_way_with`] allows per-arm
//! capacities, so main roads and side streets can differ) and enumerates
//! its route sets with [`enumerate_routes`],
//! producing a ready-to-drive [`Network`]. The paper's grid becomes one
//! instance among several topology families:
//!
//! - [`ArterialSpec`] — a west–east corridor of `n` junctions with a
//!   high-capacity arterial and low-capacity side streets: the asymmetric
//!   bottleneck setting capacity-aware back pressure targets;
//! - [`RingSpec`] — a one-way-pair ring of `n` junctions with outer and
//!   inner spokes: journeys traverse a variable stretch of shared ring
//!   capacity;
//! - [`AsymmetricGridSpec`] — a grid whose east–west and north–south roads
//!   have different lengths and capacities (and per-side demand), unlike
//!   the uniform [`GridSpec`](crate::GridSpec).

use utilbp_core::standard::{self, Approach};

use crate::grid::wire_grid;
use crate::network::{enumerate_routes, NetEntry, Network};
use crate::patterns::TurningProbabilities;
use crate::topology::{IntersectionId, NetworkTopology, Road, RoadId};

/// A west–east arterial corridor of `intersections` four-way junctions.
///
/// The arterial (east–west) roads are long and high-capacity; every
/// junction also has a north and a south side street (short, low-capacity)
/// with their own boundary entries and exits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArterialSpec {
    /// Number of junctions along the corridor (≥ 1).
    pub intersections: u32,
    /// Length of each arterial segment, meters.
    pub arterial_length_m: f64,
    /// Storage capacity of each arterial road, vehicles.
    pub arterial_capacity: u32,
    /// Length of each side street, meters.
    pub side_length_m: f64,
    /// Storage capacity of each side street, vehicles.
    pub side_capacity: u32,
    /// Maximum service rate µ of every link, vehicles per mini-slot.
    pub service_rate: f64,
    /// Mean inter-arrival time at the two arterial ends, seconds.
    pub arterial_inter_arrival_s: f64,
    /// Mean inter-arrival time at each side-street entry, seconds.
    pub side_inter_arrival_s: f64,
    /// Turning probabilities for route enumeration.
    pub turning: TurningProbabilities,
}

impl Default for ArterialSpec {
    fn default() -> Self {
        ArterialSpec {
            intersections: 5,
            arterial_length_m: 400.0,
            arterial_capacity: 160,
            side_length_m: 200.0,
            side_capacity: 40,
            service_rate: 1.0,
            arterial_inter_arrival_s: 4.0,
            side_inter_arrival_s: 15.0,
            turning: TurningProbabilities::PAPER,
        }
    }
}

impl ArterialSpec {
    /// Builds the corridor network.
    ///
    /// # Panics
    ///
    /// Panics if `intersections == 0` or any length/capacity/rate is not
    /// positive.
    pub fn build(&self) -> Network {
        assert!(self.intersections > 0, "corridor must have junctions");
        let n = self.intersections as usize;
        let layout = standard::four_way_with(
            [
                self.side_capacity,
                self.arterial_capacity,
                self.side_capacity,
                self.arterial_capacity,
            ],
            self.service_rate,
        );

        let mut b = NetworkTopology::builder();
        let iid = |i: usize| IntersectionId::new(i as u32);
        // incoming/outgoing[node][arm], arm order N, E, S, W.
        let mut incoming = vec![[RoadId::new(0); 4]; n];
        let mut outgoing = vec![[RoadId::new(0); 4]; n];
        let mut entries: Vec<NetEntry> = Vec::new();

        for i in 0..n {
            // Side streets: entry + exit both north and south.
            for side in [Approach::North, Approach::South] {
                let arm = side as usize;
                incoming[i][arm] = b.add_road(Road::new(
                    None,
                    Some((iid(i), side.incoming())),
                    self.side_length_m,
                    self.side_capacity,
                ));
                outgoing[i][arm] = b.add_road(Road::new(
                    Some((iid(i), side.outgoing())),
                    None,
                    self.side_length_m,
                    self.side_capacity,
                ));
                entries.push(NetEntry {
                    road: incoming[i][arm],
                    intersection: iid(i),
                    base_inter_arrival_s: self.side_inter_arrival_s,
                });
            }
        }
        // Arterial roads west→east and east→west, including the boundary
        // stubs at both corridor ends.
        for i in 0..n {
            let west_arm = Approach::West as usize;
            let east_arm = Approach::East as usize;
            if i == 0 {
                incoming[i][west_arm] = b.add_road(Road::new(
                    None,
                    Some((iid(0), Approach::West.incoming())),
                    self.arterial_length_m,
                    self.arterial_capacity,
                ));
                outgoing[i][west_arm] = b.add_road(Road::new(
                    Some((iid(0), Approach::West.outgoing())),
                    None,
                    self.arterial_length_m,
                    self.arterial_capacity,
                ));
                entries.push(NetEntry {
                    road: incoming[i][west_arm],
                    intersection: iid(0),
                    base_inter_arrival_s: self.arterial_inter_arrival_s,
                });
            }
            if i + 1 < n {
                // Eastbound: I_i east out → I_{i+1} west in.
                let east = b.add_road(Road::new(
                    Some((iid(i), Approach::East.outgoing())),
                    Some((iid(i + 1), Approach::West.incoming())),
                    self.arterial_length_m,
                    self.arterial_capacity,
                ));
                outgoing[i][east_arm] = east;
                incoming[i + 1][west_arm] = east;
                // Westbound: I_{i+1} west out → I_i east in.
                let west = b.add_road(Road::new(
                    Some((iid(i + 1), Approach::West.outgoing())),
                    Some((iid(i), Approach::East.incoming())),
                    self.arterial_length_m,
                    self.arterial_capacity,
                ));
                outgoing[i + 1][west_arm] = west;
                incoming[i][east_arm] = west;
            } else {
                incoming[i][east_arm] = b.add_road(Road::new(
                    None,
                    Some((iid(i), Approach::East.incoming())),
                    self.arterial_length_m,
                    self.arterial_capacity,
                ));
                outgoing[i][east_arm] = b.add_road(Road::new(
                    Some((iid(i), Approach::East.outgoing())),
                    None,
                    self.arterial_length_m,
                    self.arterial_capacity,
                ));
                entries.push(NetEntry {
                    road: incoming[i][east_arm],
                    intersection: iid(i),
                    base_inter_arrival_s: self.arterial_inter_arrival_s,
                });
            }
        }

        for (inc, out) in incoming.iter().zip(&outgoing) {
            b.add_intersection(layout.clone(), inc.to_vec(), out.to_vec());
        }
        let topology = b.build().expect("arterial wiring satisfies the invariants");
        finish(topology, entries, &self.turning, 1, n + 2)
    }
}

/// A ring road of `intersections` junctions with outer and inner spokes.
///
/// Each junction's east arm feeds the next junction clockwise and its west
/// arm the previous one, so the ring carries traffic in both directions;
/// the north arm is an outer spoke (boundary entry + exit) and the south
/// arm an inner spoke. Journeys enter on a spoke, travel a stretch of the
/// ring, and leave on another spoke — shared ring capacity is the
/// bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingSpec {
    /// Number of junctions on the ring (≥ 3).
    pub intersections: u32,
    /// Length of each ring segment, meters.
    pub ring_length_m: f64,
    /// Storage capacity of each ring segment, vehicles.
    pub ring_capacity: u32,
    /// Length of each spoke, meters.
    pub spoke_length_m: f64,
    /// Storage capacity of each spoke, vehicles.
    pub spoke_capacity: u32,
    /// Maximum service rate µ of every link, vehicles per mini-slot.
    pub service_rate: f64,
    /// Mean inter-arrival time at each outer spoke, seconds.
    pub outer_inter_arrival_s: f64,
    /// Mean inter-arrival time at each inner spoke, seconds.
    pub inner_inter_arrival_s: f64,
    /// Turning probabilities for route enumeration.
    pub turning: TurningProbabilities,
}

impl Default for RingSpec {
    fn default() -> Self {
        RingSpec {
            intersections: 6,
            ring_length_m: 300.0,
            ring_capacity: 120,
            spoke_length_m: 250.0,
            spoke_capacity: 60,
            service_rate: 1.0,
            outer_inter_arrival_s: 7.0,
            inner_inter_arrival_s: 10.0,
            turning: TurningProbabilities::PAPER,
        }
    }
}

impl RingSpec {
    /// Builds the ring network.
    ///
    /// # Panics
    ///
    /// Panics if `intersections < 3` or any length/capacity/rate is not
    /// positive.
    pub fn build(&self) -> Network {
        assert!(self.intersections >= 3, "a ring needs at least 3 junctions");
        let n = self.intersections as usize;
        let layout = standard::four_way_with(
            [
                self.spoke_capacity,
                self.ring_capacity,
                self.spoke_capacity,
                self.ring_capacity,
            ],
            self.service_rate,
        );

        let mut b = NetworkTopology::builder();
        let iid = |i: usize| IntersectionId::new(i as u32);
        let mut incoming = vec![[RoadId::new(0); 4]; n];
        let mut outgoing = vec![[RoadId::new(0); 4]; n];
        let mut entries: Vec<NetEntry> = Vec::new();

        for i in 0..n {
            // North is the outer spoke, south the inner one.
            for (side, mean) in [
                (Approach::North, self.outer_inter_arrival_s),
                (Approach::South, self.inner_inter_arrival_s),
            ] {
                let arm = side as usize;
                incoming[i][arm] = b.add_road(Road::new(
                    None,
                    Some((iid(i), side.incoming())),
                    self.spoke_length_m,
                    self.spoke_capacity,
                ));
                outgoing[i][arm] = b.add_road(Road::new(
                    Some((iid(i), side.outgoing())),
                    None,
                    self.spoke_length_m,
                    self.spoke_capacity,
                ));
                entries.push(NetEntry {
                    road: incoming[i][arm],
                    intersection: iid(i),
                    base_inter_arrival_s: mean,
                });
            }
        }
        for i in 0..n {
            let next = (i + 1) % n;
            // Clockwise: I_i east out → I_next west in.
            let cw = b.add_road(Road::new(
                Some((iid(i), Approach::East.outgoing())),
                Some((iid(next), Approach::West.incoming())),
                self.ring_length_m,
                self.ring_capacity,
            ));
            outgoing[i][Approach::East as usize] = cw;
            incoming[next][Approach::West as usize] = cw;
            // Counterclockwise: I_next west out → I_i east in.
            let ccw = b.add_road(Road::new(
                Some((iid(next), Approach::West.outgoing())),
                Some((iid(i), Approach::East.incoming())),
                self.ring_length_m,
                self.ring_capacity,
            ));
            outgoing[next][Approach::West as usize] = ccw;
            incoming[i][Approach::East as usize] = ccw;
        }

        for (inc, out) in incoming.iter().zip(&outgoing) {
            b.add_intersection(layout.clone(), inc.to_vec(), out.to_vec());
        }
        let topology = b.build().expect("ring wiring satisfies the invariants");
        // Two turns: onto the ring, then off it. Hop budget caps laps.
        finish(topology, entries, &self.turning, 2, n + 1)
    }
}

/// A rectangular grid with asymmetric axes: east–west and north–south
/// roads differ in length, capacity, and demand, unlike the uniform
/// [`GridSpec`](crate::GridSpec).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymmetricGridSpec {
    /// Number of intersection rows (≥ 1).
    pub rows: u32,
    /// Number of intersection columns (≥ 1).
    pub cols: u32,
    /// Length of east–west roads, meters.
    pub ew_length_m: f64,
    /// Storage capacity of east–west roads, vehicles.
    pub ew_capacity: u32,
    /// Length of north–south roads, meters.
    pub ns_length_m: f64,
    /// Storage capacity of north–south roads, vehicles.
    pub ns_capacity: u32,
    /// Maximum service rate µ of every link, vehicles per mini-slot.
    pub service_rate: f64,
    /// Mean inter-arrival time per entry, by the side vehicles come from
    /// (North, East, South, West), seconds.
    pub inter_arrival_s: [f64; 4],
    /// Turning probabilities for route enumeration.
    pub turning: TurningProbabilities,
}

impl Default for AsymmetricGridSpec {
    fn default() -> Self {
        AsymmetricGridSpec {
            rows: 3,
            cols: 3,
            ew_length_m: 400.0,
            ew_capacity: 160,
            ns_length_m: 250.0,
            ns_capacity: 60,
            service_rate: 1.0,
            inter_arrival_s: [4.0, 6.0, 8.0, 6.0],
            turning: TurningProbabilities::PAPER,
        }
    }
}

impl AsymmetricGridSpec {
    /// Builds the asymmetric grid network.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0 || cols == 0` or any length/capacity/rate is
    /// not positive.
    pub fn build(&self) -> Network {
        let (topology, grid_entries) = wire_grid(
            self.rows,
            self.cols,
            (self.ns_length_m, self.ns_capacity),
            (self.ew_length_m, self.ew_capacity),
            self.service_rate,
        );
        let entries = grid_entries
            .into_iter()
            .map(|e| NetEntry {
                road: e.road,
                intersection: e.intersection,
                base_inter_arrival_s: self.inter_arrival_s[e.side as usize],
            })
            .collect();
        let max_hops = (self.rows + self.cols) as usize + 2;
        finish(topology, entries, &self.turning, 1, max_hops)
    }
}

/// Sorts entries deterministically, enumerates each entry's routes, and
/// assembles the [`Network`].
fn finish(
    topology: NetworkTopology,
    mut entries: Vec<NetEntry>,
    turning: &TurningProbabilities,
    max_turns: usize,
    max_hops: usize,
) -> Network {
    entries.sort_by_key(|e| e.road);
    let routes = entries
        .iter()
        .map(|e| enumerate_routes(&topology, e.road, turning, max_turns, max_hops))
        .collect();
    Network::new(topology, entries, routes).expect("generated networks enumerate consistently")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index of the entry whose road feeds `side`'s arm of
    /// `intersection`.
    fn entry_into(net: &Network, intersection: IntersectionId, side: Approach) -> usize {
        let dest = Some((intersection, side.incoming()));
        net.entries()
            .iter()
            .position(|e| net.topology().road(e.road).dest() == dest)
            .unwrap()
    }

    #[test]
    fn arterial_builds_and_routes_exit() {
        let spec = ArterialSpec::default();
        let net = spec.build();
        let n = spec.intersections as usize;
        assert_eq!(net.topology().num_intersections(), n);
        // 4 side roads per node + 2(n-1) internal arterial + 4 boundary
        // arterial stubs.
        assert_eq!(net.topology().num_roads(), 4 * n + 2 * (n - 1) + 4);
        // 2 side entries per node + both arterial ends.
        assert_eq!(net.num_entries(), 2 * n + 2);
        for idx in 0..net.num_entries() {
            for opt in net.route_options(idx) {
                assert!(net.topology().road(*opt.roads.last().unwrap()).is_exit());
            }
        }
        // The west arterial entry has a straight-through route crossing
        // every junction.
        let west = entry_into(&net, IntersectionId::new(0), Approach::West);
        assert!(net.route_options(west).iter().any(|o| o.route.len() == n));
    }

    #[test]
    fn arterial_capacities_differ_by_axis() {
        let spec = ArterialSpec::default();
        let net = spec.build();
        let caps: Vec<u32> = net
            .topology()
            .road_ids()
            .map(|r| net.topology().road(r).capacity())
            .collect();
        assert!(caps.contains(&spec.arterial_capacity));
        assert!(caps.contains(&spec.side_capacity));
    }

    #[test]
    fn ring_builds_with_spoke_journeys() {
        let spec = RingSpec::default();
        let net = spec.build();
        let n = spec.intersections as usize;
        assert_eq!(net.topology().num_intersections(), n);
        // 4 spoke roads per node + 2n ring segments.
        assert_eq!(net.topology().num_roads(), 6 * n);
        assert_eq!(net.num_entries(), 2 * n);
        // Some route from an outer spoke travels ≥ 2 ring segments before
        // exiting (enter + at least two ring hops).
        let outer = entry_into(&net, IntersectionId::new(0), Approach::North);
        assert!(net.route_options(outer).iter().any(|o| o.route.len() >= 3));
        // And the trivial crossing to the inner spoke exists.
        assert!(net.route_options(outer).iter().any(|o| o.route.len() == 1));
    }

    #[test]
    fn asymmetric_grid_axes_differ() {
        let spec = AsymmetricGridSpec::default();
        let net = spec.build();
        assert_eq!(net.topology().num_intersections(), 9);
        assert_eq!(net.topology().num_roads(), 48);
        assert_eq!(net.num_entries(), 12);
        let topo = net.topology();
        let mut saw_ew = false;
        let mut saw_ns = false;
        for r in topo.road_ids() {
            let road = topo.road(r);
            if road.capacity() == spec.ew_capacity {
                assert_eq!(road.length_m(), spec.ew_length_m);
                saw_ew = true;
            } else {
                assert_eq!(road.capacity(), spec.ns_capacity);
                assert_eq!(road.length_m(), spec.ns_length_m);
                saw_ns = true;
            }
        }
        assert!(saw_ew && saw_ns);
        // North entries are the heaviest per the default spec.
        let north = net
            .entries()
            .iter()
            .find(|e| {
                let dest = net.topology().road(e.road).dest();
                dest.is_some_and(|(_, arm)| arm == Approach::North.incoming())
            })
            .unwrap();
        assert_eq!(north.base_inter_arrival_s, spec.inter_arrival_s[0]);
    }

    #[test]
    fn uniform_asymmetric_grid_is_wired_like_the_grid() {
        for (rows, cols) in [(1, 1), (2, 3), (3, 3), (5, 4)] {
            let grid = crate::GridNetwork::new(crate::GridSpec::with_size(rows, cols));
            let spec = crate::GridSpec::paper();
            let uniform = AsymmetricGridSpec {
                rows,
                cols,
                ew_length_m: spec.road_length_m,
                ew_capacity: spec.capacity,
                ns_length_m: spec.road_length_m,
                ns_capacity: spec.capacity,
                service_rate: spec.service_rate,
                ..AsymmetricGridSpec::default()
            }
            .build();
            assert_eq!(uniform.topology(), grid.topology(), "{rows}x{cols}");
        }
    }

    #[test]
    fn single_junction_arterial_is_valid() {
        let net = ArterialSpec {
            intersections: 1,
            ..ArterialSpec::default()
        }
        .build();
        assert_eq!(net.topology().num_intersections(), 1);
        assert_eq!(net.num_entries(), 4);
    }
}
