//! The paper's standard four-approach intersection (Fig. 1).
//!
//! The example junction has four incoming roads `N1..N4`, four outgoing
//! roads `N5..N8`, twelve feasible links (three turning movements per
//! approach, queued on dedicated lanes), and four control phases:
//!
//! | Phase | Activated links | Meaning (right-hand traffic) |
//! |-------|-----------------|------------------------------|
//! | `c1`  | `L1^6, L1^7, L3^5, L3^8` | north–south straight + left |
//! | `c2`  | `L1^8, L3^6`             | north–south right turns     |
//! | `c3`  | `L2^7, L2^8, L4^5, L4^6` | east–west straight + left   |
//! | `c4`  | `L2^5, L4^7`             | east–west right turns       |
//!
//! Index conventions used throughout the workspace:
//! incoming 0..4 map to approaches North, East, South, West (paper `N1..N4`);
//! outgoing 0..4 map to exits toward North, East, South, West (paper
//! `N5..N8`, with `N5` the northern arm, `N6` eastern, `N7` southern, `N8`
//! western, matching the figure's geometry).

use std::fmt;

use crate::ids::{IncomingId, LinkId, OutgoingId, PhaseId};
use crate::layout::IntersectionLayout;

/// Compass approach of a four-way intersection: the arm a vehicle arrives
/// from, or the arm it leaves toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Approach {
    /// The northern arm (paper `N1` incoming / `N5` outgoing).
    North,
    /// The eastern arm (paper `N2` incoming / `N6` outgoing).
    East,
    /// The southern arm (paper `N3` incoming / `N7` outgoing).
    South,
    /// The western arm (paper `N4` incoming / `N8` outgoing).
    West,
}

impl Approach {
    /// All four approaches in index order.
    pub const ALL: [Approach; 4] = [
        Approach::North,
        Approach::East,
        Approach::South,
        Approach::West,
    ];

    /// The incoming-road id for traffic arriving from this arm.
    pub const fn incoming(self) -> IncomingId {
        IncomingId::new(self as u8)
    }

    /// The outgoing-road id for traffic leaving toward this arm.
    pub const fn outgoing(self) -> OutgoingId {
        OutgoingId::new(self as u8)
    }

    /// The opposite arm.
    #[must_use]
    pub const fn opposite(self) -> Approach {
        match self {
            Approach::North => Approach::South,
            Approach::East => Approach::West,
            Approach::South => Approach::North,
            Approach::West => Approach::East,
        }
    }

    /// Recovers an approach from an incoming-road index.
    pub const fn from_incoming(id: IncomingId) -> Option<Approach> {
        Self::from_index(id.index())
    }

    const fn from_index(index: usize) -> Option<Approach> {
        match index {
            0 => Some(Approach::North),
            1 => Some(Approach::East),
            2 => Some(Approach::South),
            3 => Some(Approach::West),
            _ => None,
        }
    }
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Approach::North => "north",
            Approach::East => "east",
            Approach::South => "south",
            Approach::West => "west",
        };
        f.write_str(s)
    }
}

/// A turning movement relative to the vehicle's heading (right-hand
/// traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Turn {
    /// Turn left across opposing traffic.
    Left,
    /// Continue straight through.
    Straight,
    /// Turn right.
    Right,
}

impl Turn {
    /// All three movements in a fixed order.
    pub const ALL: [Turn; 3] = [Turn::Left, Turn::Straight, Turn::Right];

    /// The arm a vehicle leaves toward when it arrives from `from` and makes
    /// this turn (right-hand traffic: from the north heading south, a left
    /// turn exits east).
    #[must_use]
    pub const fn exit_from(self, from: Approach) -> Approach {
        match (from, self) {
            (Approach::North, Turn::Straight) => Approach::South,
            (Approach::North, Turn::Left) => Approach::East,
            (Approach::North, Turn::Right) => Approach::West,
            (Approach::East, Turn::Straight) => Approach::West,
            (Approach::East, Turn::Left) => Approach::South,
            (Approach::East, Turn::Right) => Approach::North,
            (Approach::South, Turn::Straight) => Approach::North,
            (Approach::South, Turn::Left) => Approach::West,
            (Approach::South, Turn::Right) => Approach::East,
            (Approach::West, Turn::Straight) => Approach::East,
            (Approach::West, Turn::Left) => Approach::North,
            (Approach::West, Turn::Right) => Approach::South,
        }
    }
}

impl fmt::Display for Turn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Turn::Left => "left",
            Turn::Straight => "straight",
            Turn::Right => "right",
        };
        f.write_str(s)
    }
}

/// Builds the paper's Fig. 1 intersection: four approaches, twelve links,
/// four phases.
///
/// Every outgoing road gets capacity `capacity` (`W_i = 120` in the paper's
/// experiments) and every link the maximum service rate `service_rate`
/// (`µ = 1` vehicle per mini-slot in the paper).
///
/// # Panics
///
/// Panics if `capacity == 0` or `service_rate` is not strictly positive and
/// finite (the paper's model requires both).
///
/// # Examples
///
/// ```
/// use utilbp_core::standard::{four_way, Approach, Turn};
///
/// let layout = four_way(120, 1.0);
/// assert_eq!(layout.num_links(), 12);
/// assert_eq!(layout.num_phases(), 4);
///
/// // c2 activates exactly the north–south right turns.
/// let c2 = layout.phase(utilbp_core::PhaseId::new(1));
/// assert_eq!(c2.len(), 2);
/// ```
pub fn four_way(capacity: u32, service_rate: f64) -> IntersectionLayout {
    four_way_with([capacity; 4], service_rate)
}

/// Builds a Fig. 1 intersection with per-arm outgoing capacities.
///
/// `capacities[i]` is the storage capacity of the outgoing road toward
/// `Approach::ALL[i]` (North, East, South, West). This is what irregular
/// networks (arterials with wide main roads and narrow side streets,
/// asymmetric grids) use; [`four_way`] is the uniform-capacity special
/// case.
///
/// The link and phase tables are identical to [`four_way`], so
/// [`link_id`], [`movement_of`], and [`phase_id`] remain valid.
///
/// # Panics
///
/// Panics if any capacity is zero or `service_rate` is not strictly
/// positive and finite.
pub fn four_way_with(capacities: [u32; 4], service_rate: f64) -> IntersectionLayout {
    let mut b = IntersectionLayout::builder();
    for _ in Approach::ALL {
        b.add_incoming();
    }
    for capacity in capacities {
        b.add_outgoing(capacity);
    }
    // Link table in (approach-major, Turn::ALL-minor) order so that
    // `link_id(from, turn)` is a closed-form index.
    for from in Approach::ALL {
        for turn in Turn::ALL {
            let to = turn.exit_from(from);
            b.add_link(from.incoming(), to.outgoing(), service_rate);
        }
    }
    // Fig. 1 phase table.
    let l = |from: Approach, turn: Turn| link_id(from, turn);
    b.add_phase(&[
        // c1: L1^6, L1^7, L3^5, L3^8 — N/S straight + left.
        l(Approach::North, Turn::Left),
        l(Approach::North, Turn::Straight),
        l(Approach::South, Turn::Straight),
        l(Approach::South, Turn::Left),
    ]);
    b.add_phase(&[
        // c2: L1^8, L3^6 — N/S right.
        l(Approach::North, Turn::Right),
        l(Approach::South, Turn::Right),
    ]);
    b.add_phase(&[
        // c3: L2^7, L2^8, L4^5, L4^6 — E/W straight + left.
        l(Approach::East, Turn::Left),
        l(Approach::East, Turn::Straight),
        l(Approach::West, Turn::Straight),
        l(Approach::West, Turn::Left),
    ]);
    b.add_phase(&[
        // c4: L2^5, L4^7 — E/W right.
        l(Approach::East, Turn::Right),
        l(Approach::West, Turn::Right),
    ]);
    b.build()
        .expect("the standard four-way layout is valid by construction")
}

/// The link id of movement (`from`, `turn`) in a [`four_way`] layout.
///
/// This is a closed-form index into the layout built by [`four_way`]; it is
/// meaningless for other layouts.
pub const fn link_id(from: Approach, turn: Turn) -> LinkId {
    LinkId::new(from as u16 * 3 + turn as u16)
}

/// The paper's phase numbering for [`four_way`] layouts: `c1..c4` map to
/// `PhaseId(0)..PhaseId(3)`.
pub const fn phase_id(paper_number: u8) -> PhaseId {
    PhaseId::new(paper_number - 1)
}

/// Inverts [`link_id`] for a [`four_way`] layout: the `(approach, turn)`
/// movement a link id denotes, or `None` if the id is outside the twelve
/// four-way links. Lets callers holding only a `LinkId` (route hops,
/// observations) recover the turn geometry without grid coordinates.
pub const fn movement_of(link: LinkId) -> Option<(Approach, Turn)> {
    let idx = link.index();
    if idx >= 12 {
        return None;
    }
    let approach = match idx / 3 {
        0 => Approach::North,
        1 => Approach::East,
        2 => Approach::South,
        _ => Approach::West,
    };
    let turn = match idx % 3 {
        0 => Turn::Left,
        1 => Turn::Straight,
        _ => Turn::Right,
    };
    Some((approach, turn))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_way_has_paper_dimensions() {
        let layout = four_way(120, 1.0);
        assert_eq!(layout.num_incoming(), 4);
        assert_eq!(layout.num_outgoing(), 4);
        assert_eq!(layout.num_links(), 12);
        assert_eq!(layout.num_phases(), 4);
        assert_eq!(layout.max_capacity(), 120);
    }

    #[test]
    fn link_id_formula_matches_table_order() {
        let layout = four_way(120, 1.0);
        for from in Approach::ALL {
            for turn in Turn::ALL {
                let id = link_id(from, turn);
                let link = layout.link(id);
                assert_eq!(link.from(), from.incoming());
                assert_eq!(link.to(), turn.exit_from(from).outgoing());
            }
        }
    }

    #[test]
    fn phases_match_fig1_table() {
        let layout = four_way(120, 1.0);
        // c1 = {L1^6, L1^7, L3^5, L3^8}: N straight/left + S straight/left.
        let c1 = layout.phase(phase_id(1));
        assert_eq!(c1.len(), 4);
        assert!(c1.contains(&link_id(Approach::North, Turn::Straight)));
        assert!(c1.contains(&link_id(Approach::North, Turn::Left)));
        assert!(c1.contains(&link_id(Approach::South, Turn::Straight)));
        assert!(c1.contains(&link_id(Approach::South, Turn::Left)));

        // c2 = {L1^8, L3^6}: N/S right turns.
        let c2 = layout.phase(phase_id(2));
        assert_eq!(c2.len(), 2);
        assert!(c2.contains(&link_id(Approach::North, Turn::Right)));
        assert!(c2.contains(&link_id(Approach::South, Turn::Right)));

        // c3 = {L2^7, L2^8, L4^5, L4^6}: E/W straight + left.
        let c3 = layout.phase(phase_id(3));
        assert_eq!(c3.len(), 4);
        assert!(c3.contains(&link_id(Approach::East, Turn::Straight)));
        assert!(c3.contains(&link_id(Approach::East, Turn::Left)));
        assert!(c3.contains(&link_id(Approach::West, Turn::Straight)));
        assert!(c3.contains(&link_id(Approach::West, Turn::Left)));

        // c4 = {L2^5, L4^7}: E/W right turns.
        let c4 = layout.phase(phase_id(4));
        assert_eq!(c4.len(), 2);
        assert!(c4.contains(&link_id(Approach::East, Turn::Right)));
        assert!(c4.contains(&link_id(Approach::West, Turn::Right)));
    }

    #[test]
    fn every_link_appears_in_exactly_one_phase() {
        let layout = four_way(120, 1.0);
        for link in layout.link_ids() {
            let count = layout
                .phase_ids()
                .filter(|&p| layout.phase(p).contains(&link))
                .count();
            assert_eq!(count, 1, "link {link} must appear in exactly one phase");
        }
    }

    #[test]
    fn exit_mapping_is_right_hand_traffic() {
        // From the north, heading south: left exits east, right exits west.
        assert_eq!(Turn::Left.exit_from(Approach::North), Approach::East);
        assert_eq!(Turn::Right.exit_from(Approach::North), Approach::West);
        assert_eq!(Turn::Straight.exit_from(Approach::North), Approach::South);
        // From the west, heading east: left exits north.
        assert_eq!(Turn::Left.exit_from(Approach::West), Approach::North);
    }

    #[test]
    fn exit_mapping_is_a_bijection_per_approach() {
        for from in Approach::ALL {
            let mut exits: Vec<Approach> = Turn::ALL.iter().map(|t| t.exit_from(from)).collect();
            exits.sort();
            exits.dedup();
            assert_eq!(exits.len(), 3, "three distinct exits from {from}");
            assert!(
                !exits.contains(&from),
                "no U-turns in the Fig. 1 intersection"
            );
        }
    }

    #[test]
    fn approach_round_trips_through_ids() {
        for a in Approach::ALL {
            assert_eq!(Approach::from_incoming(a.incoming()), Some(a));
        }
        assert_eq!(Approach::from_incoming(IncomingId::new(9)), None);
    }

    #[test]
    fn asymmetric_capacities_per_arm() {
        let layout = four_way_with([120, 40, 120, 40], 1.0);
        assert_eq!(layout.capacity(Approach::North.outgoing()), 120);
        assert_eq!(layout.capacity(Approach::East.outgoing()), 40);
        assert_eq!(layout.capacity(Approach::South.outgoing()), 120);
        assert_eq!(layout.capacity(Approach::West.outgoing()), 40);
        assert_eq!(layout.max_capacity(), 120);
        // Same link/phase tables as the uniform layout.
        assert_eq!(layout.num_links(), 12);
        assert_eq!(layout.num_phases(), 4);
    }

    #[test]
    fn movement_of_inverts_link_id() {
        for from in Approach::ALL {
            for turn in Turn::ALL {
                assert_eq!(movement_of(link_id(from, turn)), Some((from, turn)));
            }
        }
        assert_eq!(movement_of(LinkId::new(12)), None);
    }

    #[test]
    fn opposite_flips_the_compass() {
        assert_eq!(Approach::North.opposite(), Approach::South);
        assert_eq!(Approach::East.opposite(), Approach::West);
    }
}
