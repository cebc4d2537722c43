//! Rectangular grid networks (the paper's 3×3 experimental network).
//!
//! A [`GridNetwork`] instantiates `rows × cols` copies of the paper's
//! Fig. 1 four-way intersection and wires adjacent intersections with
//! internal roads; every boundary arm gets an entry and an exit road. Grid
//! coordinates are `(row, col)` with row 0 the **northern** row and column
//! 0 the **western** column, so the paper's "top-right" intersection is
//! `(0, cols−1)`.

use utilbp_core::standard::{self, Approach};

use crate::route::Route;
use crate::topology::{IntersectionId, NetworkTopology, Road, RoadId};

/// Parameters of a grid network. The defaults reproduce the paper's
/// Section V setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Number of intersection rows (3 in the paper).
    pub rows: u32,
    /// Number of intersection columns (3 in the paper).
    pub cols: u32,
    /// Length of every road in meters. 300 m makes a road's storage match
    /// the paper's `W = 120` at 3 dedicated lanes × 40 vehicles/lane
    /// (5 m vehicle + 2.5 m standstill gap).
    pub road_length_m: f64,
    /// Storage capacity `W` of every road, in vehicles (120 in the paper).
    pub capacity: u32,
    /// Maximum service rate `µ` of every link, vehicles per mini-slot
    /// (1 in the paper).
    pub service_rate: f64,
    /// Free-flow speed in m/s (13.89 m/s = 50 km/h).
    pub free_speed_mps: f64,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            rows: 3,
            cols: 3,
            road_length_m: 300.0,
            capacity: 120,
            service_rate: 1.0,
            free_speed_mps: 13.89,
        }
    }
}

impl GridSpec {
    /// The paper's 3×3 network specification.
    pub fn paper() -> Self {
        GridSpec::default()
    }

    /// A `rows × cols` grid with the remaining parameters at their paper
    /// values.
    pub fn with_size(rows: u32, cols: u32) -> Self {
        GridSpec {
            rows,
            cols,
            ..GridSpec::default()
        }
    }
}

/// A grid cell `(row, col)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridPos {
    /// Row, 0 = northern row.
    pub(crate) row: u32,
    /// Column, 0 = western column.
    pub(crate) col: u32,
}

impl GridPos {
    /// Creates a position.
    pub const fn new(row: u32, col: u32) -> Self {
        GridPos { row, col }
    }

    /// The neighboring cell in compass direction `dir`, if inside a
    /// `rows × cols` grid.
    pub(crate) fn neighbor(self, dir: Approach, rows: u32, cols: u32) -> Option<GridPos> {
        match dir {
            Approach::North => self.row.checked_sub(1).map(|r| GridPos::new(r, self.col)),
            Approach::South => (self.row + 1 < rows).then(|| GridPos::new(self.row + 1, self.col)),
            Approach::West => self.col.checked_sub(1).map(|c| GridPos::new(self.row, c)),
            Approach::East => (self.col + 1 < cols).then(|| GridPos::new(self.row, self.col + 1)),
        }
    }
}

impl std::fmt::Display for GridPos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// A boundary entry point: the entry road at one boundary arm, plus where
/// it is (`side` of the network, `slot` along that side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryPoint {
    /// The entry road.
    pub road: RoadId,
    /// The network side vehicles come from (the paper's "entering from
    /// North/East/South/West").
    pub side: Approach,
    /// Index along the side: column for north/south sides, row for
    /// east/west sides.
    pub slot: u32,
    /// The intersection the entry road feeds.
    pub intersection: IntersectionId,
}

/// A grid of four-way intersections with its topology and entry metadata.
///
/// # Examples
///
/// ```
/// use utilbp_netgen::{GridNetwork, GridSpec};
///
/// let grid = GridNetwork::new(GridSpec::paper());
/// assert_eq!(grid.topology().num_intersections(), 9);
/// assert_eq!(grid.entries().len(), 12); // 3 per side
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridNetwork {
    spec: GridSpec,
    topology: NetworkTopology,
    entries: Vec<EntryPoint>,
}

impl GridNetwork {
    /// Builds a grid from `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.rows == 0 || spec.cols == 0`.
    pub fn new(spec: GridSpec) -> Self {
        let roads = (spec.road_length_m, spec.capacity);
        let (topology, mut entries) =
            wire_grid(spec.rows, spec.cols, roads, roads, spec.service_rate);
        // Deterministic entry order: by side (N,E,S,W), then slot.
        entries.sort_by_key(|e| (e.side as u8, e.slot));
        GridNetwork {
            spec,
            topology,
            entries,
        }
    }

    /// The grid parameters.
    pub(crate) fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The underlying validated topology.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// The intersection at grid cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the grid.
    pub fn intersection_at(&self, pos: GridPos) -> IntersectionId {
        assert!(
            pos.row < self.spec.rows && pos.col < self.spec.cols,
            "{pos} outside {}x{} grid",
            self.spec.rows,
            self.spec.cols
        );
        IntersectionId::new(pos.row * self.spec.cols + pos.col)
    }

    /// The paper's "top-right" (north-eastern) intersection.
    pub fn top_right(&self) -> IntersectionId {
        self.intersection_at(GridPos::new(0, self.spec.cols - 1))
    }

    /// All boundary entry points, ordered by side (N, E, S, W) then slot.
    pub fn entries(&self) -> &[EntryPoint] {
        &self.entries
    }

    /// Number of intersections a vehicle entering from `side` crosses if it
    /// drives straight through (the candidates for its turning
    /// intersection).
    pub fn straight_path_len(&self, side: Approach) -> u32 {
        match side {
            Approach::North | Approach::South => self.spec.rows,
            Approach::East | Approach::West => self.spec.cols,
        }
    }

    /// Builds the route of a vehicle entering at `entry` that makes
    /// `choice` (drives straight through, or turns once at the `path_index`-th
    /// intersection along its way — the paper's "the intersection at which a
    /// vehicle takes the turn is selected randomly").
    ///
    /// # Panics
    ///
    /// Panics if `choice` names a `path_index` beyond the straight path
    /// length for this entry's side.
    pub fn route(&self, entry: &EntryPoint, choice: RouteChoice) -> Route {
        let rows = self.spec.rows;
        let cols = self.spec.cols;
        let mut pos = match entry.side {
            Approach::North => GridPos::new(0, entry.slot),
            Approach::South => GridPos::new(rows - 1, entry.slot),
            Approach::East => GridPos::new(entry.slot, cols - 1),
            Approach::West => GridPos::new(entry.slot, 0),
        };
        if let RouteChoice::TurnAt { path_index, .. } = choice {
            assert!(
                path_index < self.straight_path_len(entry.side) as usize,
                "turn index {path_index} beyond straight path"
            );
        }

        let mut approach = entry.side;
        let mut hops = Vec::new();
        let mut step = 0usize;
        loop {
            let turn = match choice {
                RouteChoice::TurnAt { turn, path_index } if path_index == step => turn,
                _ => standard::Turn::Straight,
            };
            let here = self.intersection_at(pos);
            hops.push((here, standard::link_id(approach, turn)));
            let exit_arm = turn.exit_from(approach);
            match pos.neighbor(exit_arm, rows, cols) {
                Some(npos) => {
                    pos = npos;
                    approach = exit_arm.opposite();
                    step += 1;
                }
                None => break,
            }
        }
        Route::new(entry.road, hops)
    }
}

/// How a vehicle traverses the grid (per the paper's demand model: at most
/// one turn per journey).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// Drive straight through to the opposite boundary.
    Straight,
    /// Turn once at the `path_index`-th intersection along the straight
    /// path (0-based), then drive straight to the boundary.
    TurnAt {
        /// The turn to make.
        turn: standard::Turn,
        /// Which intersection along the straight path to turn at.
        path_index: usize,
    },
}

/// Wires a `rows × cols` grid of four-way junctions: an internal road
/// each way between neighbours, and an exit and an entry road on every
/// boundary arm. North–south roads get `ns` and east–west roads `ew`
/// (length in meters, capacity in vehicles). Ids follow one row-major
/// scan of the cells, each cell's arms in [`Approach::ALL`] order, so
/// every grid of the same size numbers its roads and intersections
/// alike. Returns the topology and the boundary entries in creation
/// order.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub(crate) fn wire_grid(
    rows: u32,
    cols: u32,
    ns: (f64, u32),
    ew: (f64, u32),
    service_rate: f64,
) -> (NetworkTopology, Vec<EntryPoint>) {
    assert!(rows > 0 && cols > 0, "grid must be non-empty");
    // Outgoing-arm capacities in N, E, S, W order.
    let layout = standard::four_way_with([ns.1, ew.1, ns.1, ew.1], service_rate);
    let mut builder = NetworkTopology::builder();
    let iid = |pos: GridPos| IntersectionId::new(pos.row * cols + pos.col);
    let cells = (rows * cols) as usize;
    let mut incoming = vec![[RoadId::new(0); 4]; cells];
    let mut outgoing = vec![[RoadId::new(0); 4]; cells];
    let mut entries = Vec::new();

    for row in 0..rows {
        for col in 0..cols {
            let pos = GridPos::new(row, col);
            let here = iid(pos);
            for dir in Approach::ALL {
                let (length, capacity) = match dir {
                    Approach::North | Approach::South => ns,
                    Approach::East | Approach::West => ew,
                };
                let out_arm = dir.outgoing();
                match pos.neighbor(dir, rows, cols) {
                    Some(npos) => {
                        // Internal road, created when scanning its source
                        // cell: leaves `here` toward `dir`, arrives at the
                        // neighbour from the opposite arm.
                        let there = iid(npos);
                        let in_arm = dir.opposite().incoming();
                        let rid = builder.add_road(Road::new(
                            Some((here, out_arm)),
                            Some((there, in_arm)),
                            length,
                            capacity,
                        ));
                        outgoing[here.index()][out_arm.index()] = rid;
                        incoming[there.index()][in_arm.index()] = rid;
                    }
                    None => {
                        // Boundary: one exit road out, one entry in.
                        outgoing[here.index()][out_arm.index()] = builder.add_road(Road::new(
                            Some((here, out_arm)),
                            None,
                            length,
                            capacity,
                        ));
                        let in_arm = dir.incoming();
                        let entry = builder.add_road(Road::new(
                            None,
                            Some((here, in_arm)),
                            length,
                            capacity,
                        ));
                        incoming[here.index()][in_arm.index()] = entry;
                        let slot = match dir {
                            Approach::North | Approach::South => col,
                            Approach::East | Approach::West => row,
                        };
                        entries.push(EntryPoint {
                            road: entry,
                            side: dir,
                            slot,
                            intersection: here,
                        });
                    }
                }
            }
        }
    }

    for (inc, out) in incoming.iter().zip(&outgoing) {
        builder.add_intersection(layout.clone(), inc.to_vec(), out.to_vec());
    }
    let topology = builder
        .build()
        .expect("grid construction satisfies all topology invariants");
    (topology, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use utilbp_core::standard::Turn;

    fn grid() -> GridNetwork {
        GridNetwork::new(GridSpec::paper())
    }

    #[test]
    fn paper_grid_dimensions() {
        let g = grid();
        let net = g.topology();
        assert_eq!(net.num_intersections(), 9);
        // Internal: 2·(3·2 + 2·3) = 24; boundary: 12 arms × 2 = 24.
        assert_eq!(net.num_roads(), 48);
        let count = |pick: fn(&Road) -> bool| net.road_ids().filter(|&r| pick(net.road(r))).count();
        assert_eq!(count(Road::is_entry), 12);
        assert_eq!(count(Road::is_exit), 12);
        assert_eq!(g.entries().len(), 12);
    }

    #[test]
    fn one_by_one_grid_is_a_single_intersection() {
        let g = GridNetwork::new(GridSpec::with_size(1, 1));
        assert_eq!(g.topology().num_intersections(), 1);
        assert_eq!(g.topology().num_roads(), 8);
        assert_eq!(g.entries().len(), 4);
    }

    #[test]
    fn internal_roads_connect_opposite_arms() {
        let g = grid();
        let net = g.topology();
        let a = g.intersection_at(GridPos::new(1, 1));
        let b = g.intersection_at(GridPos::new(1, 2));
        // The road leaving (1,1) eastward must arrive at (1,2)'s west arm.
        let rid = net.intersection(a).outgoing_road(Approach::East.outgoing());
        let road = net.road(rid);
        assert_eq!(road.source(), Some((a, Approach::East.outgoing())));
        assert_eq!(road.dest(), Some((b, Approach::West.incoming())));
        assert!(road.is_internal());
    }

    #[test]
    fn top_right_is_northeast_corner() {
        let g = grid();
        assert_eq!(g.top_right(), g.intersection_at(GridPos::new(0, 2)));
    }

    #[test]
    fn entries_are_ordered_and_complete() {
        let g = grid();
        let sides: Vec<Approach> = g.entries().iter().map(|e| e.side).collect();
        assert_eq!(&sides[0..3], &[Approach::North; 3]);
        assert_eq!(&sides[3..6], &[Approach::East; 3]);
        assert_eq!(&sides[6..9], &[Approach::South; 3]);
        assert_eq!(&sides[9..12], &[Approach::West; 3]);
        for e in g.entries() {
            let road = g.topology().road(e.road);
            assert!(road.is_entry());
            assert_eq!(road.dest().map(|(i, _)| i), Some(e.intersection));
        }
    }

    #[test]
    fn straight_route_crosses_the_full_column() {
        let g = grid();
        // Enter from north, column 1.
        let entry = g.entries()[1];
        assert_eq!(entry.side, Approach::North);
        assert_eq!(entry.slot, 1);
        let route = g.route(&entry, RouteChoice::Straight);
        assert_eq!(route.hops().len(), 3);
        let cells: Vec<IntersectionId> = route.hops().iter().map(|&(i, _)| i).collect();
        assert_eq!(
            cells,
            vec![
                g.intersection_at(GridPos::new(0, 1)),
                g.intersection_at(GridPos::new(1, 1)),
                g.intersection_at(GridPos::new(2, 1)),
            ]
        );
        // Every hop is the straight movement from the north arm.
        for &(_, link) in route.hops() {
            assert_eq!(link, standard::link_id(Approach::North, Turn::Straight));
        }
    }

    #[test]
    fn turning_route_changes_direction_once() {
        let g = grid();
        // Enter from north column 0, turn LEFT (toward the east) at the
        // middle intersection of the path: (1,0) → continue east through
        // (1,1), (1,2), exit east boundary.
        let entry = g.entries()[0];
        let route = g.route(
            &entry,
            RouteChoice::TurnAt {
                turn: Turn::Left,
                path_index: 1,
            },
        );
        let cells: Vec<IntersectionId> = route.hops().iter().map(|&(i, _)| i).collect();
        assert_eq!(
            cells,
            vec![
                g.intersection_at(GridPos::new(0, 0)),
                g.intersection_at(GridPos::new(1, 0)),
                g.intersection_at(GridPos::new(1, 1)),
                g.intersection_at(GridPos::new(1, 2)),
            ]
        );
        let links: Vec<_> = route.hops().iter().map(|&(_, l)| l).collect();
        assert_eq!(links[0], standard::link_id(Approach::North, Turn::Straight));
        assert_eq!(links[1], standard::link_id(Approach::North, Turn::Left));
        // After turning east, the vehicle arrives from the west arm.
        assert_eq!(links[2], standard::link_id(Approach::West, Turn::Straight));
        assert_eq!(links[3], standard::link_id(Approach::West, Turn::Straight));
    }

    #[test]
    fn turn_at_last_intersection_exits_immediately() {
        let g = grid();
        // Enter from west row 0, turn right at the last column.
        let entry = g
            .entries()
            .iter()
            .copied()
            .find(|e| e.side == Approach::West && e.slot == 0)
            .unwrap();
        let route = g.route(
            &entry,
            RouteChoice::TurnAt {
                turn: Turn::Right,
                path_index: 2,
            },
        );
        // Right from westbound-entry heading east → exits south. At (0,2)
        // the southern neighbor is (1,2), so the route continues!
        let cells: Vec<IntersectionId> = route.hops().iter().map(|&(i, _)| i).collect();
        assert_eq!(
            cells.len(),
            5,
            "turn at (0,2) heads south through (1,2), (2,2)"
        );
        assert_eq!(cells[2], g.intersection_at(GridPos::new(0, 2)));
        assert_eq!(cells[3], g.intersection_at(GridPos::new(1, 2)));
        assert_eq!(cells[4], g.intersection_at(GridPos::new(2, 2)));
    }

    #[test]
    #[should_panic(expected = "beyond straight path")]
    fn rejects_turn_index_past_path() {
        let g = grid();
        let entry = g.entries()[0];
        let _ = g.route(
            &entry,
            RouteChoice::TurnAt {
                turn: Turn::Left,
                path_index: 3,
            },
        );
    }

    #[test]
    fn routes_end_at_exit_roads() {
        let g = grid();
        let net = g.topology();
        for entry in g.entries() {
            for choice in [
                RouteChoice::Straight,
                RouteChoice::TurnAt {
                    turn: Turn::Left,
                    path_index: 0,
                },
                RouteChoice::TurnAt {
                    turn: Turn::Right,
                    path_index: 2,
                },
            ] {
                let route = g.route(entry, choice);
                let &(last_i, last_l) = route.hops().last().unwrap();
                let node = net.intersection(last_i);
                let out = node.layout().link(last_l).to();
                let final_road = net.road(node.outgoing_road(out));
                // The final hop's outgoing road must leave the network, and
                // every intermediate hop must stay inside it.
                assert!(
                    final_road.is_exit(),
                    "route {choice:?} from {entry:?} ends on {final_road:?}"
                );
                for window in route.hops().windows(2) {
                    let (i, l) = window[0];
                    let node = net.intersection(i);
                    let mid = net.road(node.outgoing_road(node.layout().link(l).to()));
                    assert_eq!(mid.dest().map(|(n, _)| n), Some(window[1].0));
                }
            }
        }
    }

    #[test]
    fn grid_pos_neighbors_respect_bounds() {
        let p = GridPos::new(0, 0);
        assert_eq!(p.neighbor(Approach::North, 3, 3), None);
        assert_eq!(p.neighbor(Approach::West, 3, 3), None);
        assert_eq!(p.neighbor(Approach::South, 3, 3), Some(GridPos::new(1, 0)));
        assert_eq!(p.neighbor(Approach::East, 3, 3), Some(GridPos::new(0, 1)));
        let q = GridPos::new(2, 2);
        assert_eq!(q.neighbor(Approach::South, 3, 3), None);
        assert_eq!(q.neighbor(Approach::East, 3, 3), None);
    }

    #[test]
    fn rectangular_grids_build() {
        for (r, c) in [(1, 4), (4, 1), (2, 5), (5, 2)] {
            let g = GridNetwork::new(GridSpec::with_size(r, c));
            assert_eq!(g.topology().num_intersections(), (r * c) as usize);
            let expected_entries = 2 * (r + c);
            assert_eq!(g.entries().len(), expected_entries as usize);
        }
    }
}
