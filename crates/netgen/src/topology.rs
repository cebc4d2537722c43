//! Network-level topology: intersections wired together by directed roads.
//!
//! [`IntersectionLayout`](utilbp_core::IntersectionLayout) models a single
//! junction in isolation; a [`NetworkTopology`] instantiates many of them
//! and connects their arms with [`Road`]s. Each road is directed and either
//! originates at an intersection's outgoing arm or at the network boundary
//! (an *entry* road), and either terminates at an intersection's incoming
//! arm or at the boundary (an *exit* road).

use std::error::Error;
use std::fmt;

use utilbp_core::{IncomingId, IntersectionLayout, OutgoingId};

/// Identifier of an intersection within a [`NetworkTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IntersectionId(u32);

impl IntersectionId {
    /// Creates an id from an index into the intersection table.
    pub const fn new(index: u32) -> Self {
        IntersectionId(index)
    }

    /// The index into the intersection table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for IntersectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// Identifier of a directed road within a [`NetworkTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RoadId(u32);

impl RoadId {
    /// Creates an id from an index into the road table.
    pub const fn new(index: u32) -> Self {
        RoadId(index)
    }

    /// The index into the road table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RoadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One directed road.
#[derive(Debug, Clone, PartialEq)]
pub struct Road {
    /// `(intersection, outgoing arm)` feeding this road, or `None` for a
    /// boundary entry road.
    source: Option<(IntersectionId, OutgoingId)>,
    /// `(intersection, incoming arm)` this road feeds, or `None` for a
    /// boundary exit road.
    dest: Option<(IntersectionId, IncomingId)>,
    length_m: f64,
    capacity: u32,
}

impl Road {
    /// Creates a road record. Prefer building whole networks through
    /// [`NetworkTopologyBuilder`].
    pub fn new(
        source: Option<(IntersectionId, OutgoingId)>,
        dest: Option<(IntersectionId, IncomingId)>,
        length_m: f64,
        capacity: u32,
    ) -> Self {
        Road {
            source,
            dest,
            length_m,
            capacity,
        }
    }

    /// The intersection arm feeding this road, or `None` for entry roads.
    pub fn source(&self) -> Option<(IntersectionId, OutgoingId)> {
        self.source
    }

    /// The intersection arm this road feeds, or `None` for exit roads.
    pub fn dest(&self) -> Option<(IntersectionId, IncomingId)> {
        self.dest
    }

    /// Road length in meters.
    pub fn length_m(&self) -> f64 {
        self.length_m
    }

    /// Storage capacity `W` in vehicles.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Whether this is a boundary entry road (vehicles appear here).
    pub fn is_entry(&self) -> bool {
        self.source.is_none()
    }

    /// Whether this is a boundary exit road (vehicles leave the network at
    /// its far end).
    pub fn is_exit(&self) -> bool {
        self.dest.is_none()
    }

    /// Whether this road connects two intersections.
    pub fn is_internal(&self) -> bool {
        self.source.is_some() && self.dest.is_some()
    }
}

/// One intersection instance: a junction layout plus the roads wired to its
/// arms.
#[derive(Debug, Clone, PartialEq)]
pub struct IntersectionNode {
    layout: IntersectionLayout,
    /// Road feeding each incoming arm, indexed by `IncomingId`.
    incoming_roads: Vec<RoadId>,
    /// Road fed by each outgoing arm, indexed by `OutgoingId`.
    outgoing_roads: Vec<RoadId>,
}

impl IntersectionNode {
    /// The junction layout.
    pub fn layout(&self) -> &IntersectionLayout {
        &self.layout
    }

    /// The road feeding incoming arm `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the layout.
    pub fn incoming_road(&self, id: IncomingId) -> RoadId {
        self.incoming_roads[id.index()]
    }

    /// The road fed by outgoing arm `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the layout.
    pub fn outgoing_road(&self, id: OutgoingId) -> RoadId {
        self.outgoing_roads[id.index()]
    }
}

/// Errors produced while assembling a [`NetworkTopology`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// An intersection arm count does not match its layout.
    ArmCountMismatch {
        /// The offending intersection.
        intersection: IntersectionId,
        /// What the layout requires: `(incoming, outgoing)`.
        expected: (usize, usize),
        /// What was wired: `(incoming, outgoing)`.
        got: (usize, usize),
    },
    /// A road id referenced by an intersection does not exist.
    UnknownRoad(RoadId),
    /// A road's endpoint does not agree with the intersection that
    /// references it.
    InconsistentWiring(RoadId),
    /// A road is referenced by more than one arm.
    RoadReused(RoadId),
    /// A road's capacity disagrees with the outgoing-arm capacity declared
    /// in the source intersection's layout (the controller's capacity view
    /// must match the physical road).
    CapacityMismatch {
        /// The offending road.
        road: RoadId,
        /// Capacity in the source intersection's layout.
        layout_capacity: u32,
        /// Capacity on the road record.
        road_capacity: u32,
    },
    /// A road has a non-positive length.
    InvalidLength(RoadId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ArmCountMismatch {
                intersection,
                expected,
                got,
            } => write!(
                f,
                "intersection {intersection} wires {}/{} arms but its layout needs {}/{}",
                got.0, got.1, expected.0, expected.1
            ),
            TopologyError::UnknownRoad(r) => write!(f, "reference to unknown road {r}"),
            TopologyError::InconsistentWiring(r) => {
                write!(
                    f,
                    "road {r} endpoints disagree with the arm that references it"
                )
            }
            TopologyError::RoadReused(r) => write!(f, "road {r} is wired to more than one arm"),
            TopologyError::CapacityMismatch {
                road,
                layout_capacity,
                road_capacity,
            } => write!(
                f,
                "road {road} has capacity {road_capacity} but the source layout declares \
                 {layout_capacity}"
            ),
            TopologyError::InvalidLength(r) => write!(f, "road {r} has non-positive length"),
        }
    }
}

impl Error for TopologyError {}

/// A validated network of signalized intersections.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    intersections: Vec<IntersectionNode>,
    roads: Vec<Road>,
}

impl NetworkTopology {
    /// Starts building a topology.
    pub fn builder() -> NetworkTopologyBuilder {
        NetworkTopologyBuilder::default()
    }

    /// Number of intersections.
    pub fn num_intersections(&self) -> usize {
        self.intersections.len()
    }

    /// Number of roads.
    pub fn num_roads(&self) -> usize {
        self.roads.len()
    }

    /// The intersection table entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn intersection(&self, id: IntersectionId) -> &IntersectionNode {
        &self.intersections[id.index()]
    }

    /// The road table entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn road(&self, id: RoadId) -> &Road {
        &self.roads[id.index()]
    }

    /// Iterates over intersection ids in table order.
    pub fn intersection_ids(&self) -> impl Iterator<Item = IntersectionId> + '_ {
        (0..self.intersections.len()).map(|i| IntersectionId::new(i as u32))
    }

    /// Iterates over road ids in table order.
    pub fn road_ids(&self) -> impl Iterator<Item = RoadId> + '_ {
        (0..self.roads.len()).map(|i| RoadId::new(i as u32))
    }
}

/// Incremental builder for [`NetworkTopology`].
#[derive(Debug, Clone, Default)]
pub struct NetworkTopologyBuilder {
    intersections: Vec<IntersectionNode>,
    roads: Vec<Road>,
}

impl NetworkTopologyBuilder {
    /// Adds an intersection with its arm wiring and returns its id.
    ///
    /// `incoming_roads[i]` is the road feeding incoming arm `i`;
    /// `outgoing_roads[o]` the road fed by outgoing arm `o`.
    pub fn add_intersection(
        &mut self,
        layout: IntersectionLayout,
        incoming_roads: Vec<RoadId>,
        outgoing_roads: Vec<RoadId>,
    ) -> IntersectionId {
        let id = IntersectionId::new(self.intersections.len() as u32);
        self.intersections.push(IntersectionNode {
            layout,
            incoming_roads,
            outgoing_roads,
        });
        id
    }

    /// Adds a road and returns its id.
    pub fn add_road(&mut self, road: Road) -> RoadId {
        let id = RoadId::new(self.roads.len() as u32);
        self.roads.push(road);
        id
    }

    /// Validates cross-references and produces the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] describing the first inconsistency found;
    /// see the error variants for the individual conditions.
    pub fn build(self) -> Result<NetworkTopology, TopologyError> {
        let num_roads = self.roads.len();
        let mut in_use = vec![false; num_roads];
        let mut out_use = vec![false; num_roads];

        for (r_idx, road) in self.roads.iter().enumerate() {
            let rid = RoadId::new(r_idx as u32);
            if !(road.length_m.is_finite() && road.length_m > 0.0) {
                return Err(TopologyError::InvalidLength(rid));
            }
        }

        for (idx, node) in self.intersections.iter().enumerate() {
            let iid = IntersectionId::new(idx as u32);
            let expected = (node.layout.num_incoming(), node.layout.num_outgoing());
            let got = (node.incoming_roads.len(), node.outgoing_roads.len());
            if expected != got {
                return Err(TopologyError::ArmCountMismatch {
                    intersection: iid,
                    expected,
                    got,
                });
            }
            for (arm, &rid) in node.incoming_roads.iter().enumerate() {
                if rid.index() >= num_roads {
                    return Err(TopologyError::UnknownRoad(rid));
                }
                if in_use[rid.index()] {
                    return Err(TopologyError::RoadReused(rid));
                }
                in_use[rid.index()] = true;
                let road = &self.roads[rid.index()];
                if road.dest != Some((iid, IncomingId::new(arm as u8))) {
                    return Err(TopologyError::InconsistentWiring(rid));
                }
            }
            for (arm, &rid) in node.outgoing_roads.iter().enumerate() {
                if rid.index() >= num_roads {
                    return Err(TopologyError::UnknownRoad(rid));
                }
                if out_use[rid.index()] {
                    return Err(TopologyError::RoadReused(rid));
                }
                out_use[rid.index()] = true;
                let out_id = OutgoingId::new(arm as u8);
                let road = &self.roads[rid.index()];
                if road.source != Some((iid, out_id)) {
                    return Err(TopologyError::InconsistentWiring(rid));
                }
                let layout_capacity = node.layout.capacity(out_id);
                if layout_capacity != road.capacity {
                    return Err(TopologyError::CapacityMismatch {
                        road: rid,
                        layout_capacity,
                        road_capacity: road.capacity,
                    });
                }
            }
        }

        // Every road endpoint that claims an intersection must be wired
        // back from that intersection (checked above by equality), and
        // roads claiming endpoints must actually be referenced.
        for (r_idx, road) in self.roads.iter().enumerate() {
            let rid = RoadId::new(r_idx as u32);
            if road.dest.is_some() && !in_use[r_idx] {
                return Err(TopologyError::InconsistentWiring(rid));
            }
            if road.source.is_some() && !out_use[r_idx] {
                return Err(TopologyError::InconsistentWiring(rid));
            }
        }

        Ok(NetworkTopology {
            intersections: self.intersections,
            roads: self.roads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::standard;

    /// A single four-way intersection with 4 entry and 4 exit roads.
    fn single() -> NetworkTopology {
        let layout = standard::four_way(120, 1.0);
        let mut b = NetworkTopology::builder();
        let iid = IntersectionId::new(0);
        let mut incoming = Vec::new();
        let mut outgoing = Vec::new();
        for arm in 0..4u8 {
            incoming.push(b.add_road(Road::new(
                None,
                Some((iid, IncomingId::new(arm))),
                300.0,
                120,
            )));
        }
        for arm in 0..4u8 {
            outgoing.push(b.add_road(Road::new(
                Some((iid, OutgoingId::new(arm))),
                None,
                300.0,
                120,
            )));
        }
        b.add_intersection(layout, incoming, outgoing);
        b.build().expect("single intersection is valid")
    }

    #[test]
    fn single_intersection_wires_up() {
        let net = single();
        assert_eq!(net.num_intersections(), 1);
        assert_eq!(net.num_roads(), 8);
        let count = |pick: fn(&Road) -> bool| net.road_ids().filter(|&r| pick(net.road(r))).count();
        assert_eq!(count(Road::is_entry), 4);
        assert_eq!(count(Road::is_exit), 4);
        let node = net.intersection(IntersectionId::new(0));
        assert_eq!(node.incoming_roads.len(), 4);
        assert_eq!(node.outgoing_roads.len(), 4);
        let r = net.road(node.incoming_road(IncomingId::new(2)));
        assert!(r.is_entry());
        assert!(!r.is_internal());
        assert_eq!(r.dest(), Some((IntersectionId::new(0), IncomingId::new(2))));
    }

    #[test]
    fn rejects_arm_count_mismatch() {
        let layout = standard::four_way(120, 1.0);
        let mut b = NetworkTopology::builder();
        b.add_intersection(layout, vec![], vec![]);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::ArmCountMismatch { .. }
        ));
    }

    #[test]
    fn rejects_capacity_mismatch() {
        let layout = standard::four_way(120, 1.0);
        let mut b = NetworkTopology::builder();
        let iid = IntersectionId::new(0);
        let mut incoming = Vec::new();
        let mut outgoing = Vec::new();
        for arm in 0..4u8 {
            incoming.push(b.add_road(Road::new(
                None,
                Some((iid, IncomingId::new(arm))),
                300.0,
                120,
            )));
        }
        for arm in 0..4u8 {
            // Wrong capacity: layout says 120.
            outgoing.push(b.add_road(Road::new(
                Some((iid, OutgoingId::new(arm))),
                None,
                300.0,
                60,
            )));
        }
        b.add_intersection(layout, incoming, outgoing);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::CapacityMismatch { .. }
        ));
    }

    #[test]
    fn rejects_reused_and_misdirected_roads() {
        let layout = standard::four_way(120, 1.0);
        let mut b = NetworkTopology::builder();
        let iid = IntersectionId::new(0);
        let shared = b.add_road(Road::new(None, Some((iid, IncomingId::new(0))), 300.0, 120));
        // Reuse the same road for two incoming arms.
        let mut incoming = vec![shared, shared];
        for arm in 2..4u8 {
            incoming.push(b.add_road(Road::new(
                None,
                Some((iid, IncomingId::new(arm))),
                300.0,
                120,
            )));
        }
        let mut outgoing = Vec::new();
        for arm in 0..4u8 {
            outgoing.push(b.add_road(Road::new(
                Some((iid, OutgoingId::new(arm))),
                None,
                300.0,
                120,
            )));
        }
        b.add_intersection(layout, incoming, outgoing);
        let err = b.build().unwrap_err();
        assert!(
            matches!(
                err,
                TopologyError::RoadReused(_) | TopologyError::InconsistentWiring(_)
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn rejects_invalid_length() {
        let mut b = NetworkTopology::builder();
        b.add_road(Road::new(None, None, 0.0, 120));
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::InvalidLength(_)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let err = TopologyError::CapacityMismatch {
            road: RoadId::new(3),
            layout_capacity: 120,
            road_capacity: 60,
        };
        let msg = err.to_string();
        assert!(msg.contains("R3"));
        assert!(msg.contains("120"));
        assert!(msg.contains("60"));
    }
}
