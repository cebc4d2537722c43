//! Static structure of a signalized intersection (Section II-A of the paper).
//!
//! An [`IntersectionLayout`] is the directed-graph model of one junction:
//! incoming roads, outgoing roads with finite capacities `W_{i'}`, feasible
//! links `L_i^{i'}` with maximum service rates `µ_i^{i'}`, and the set of
//! control phases `C = {c_j}` (each a compatible subset of links). The layout
//! is immutable once built; per-instant queue state lives in
//! [`QueueObservation`](crate::QueueObservation).
//!
//! The layout is flat, since a controller reads it on every mini-slot:
//! each [`Link`] record carries the capacity `W_{i'}` of the road it
//! feeds, so a link gain reads one record and two readings, and every
//! phase's link list and every incoming road's link list is a range of
//! one shared [`LinkId`] array. A layout owns four allocations, whatever
//! its number of phases and roads.

use std::error::Error;
use std::fmt;

use crate::ids::{IncomingId, LinkId, OutgoingId, PhaseId};

/// One feasible link `L_i^{i'}`: a turning movement from an incoming road to
/// an outgoing road, with its maximum service rate `µ_i^{i'}` in vehicles per
/// mini-slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    from: IncomingId,
    to: OutgoingId,
    /// `W_{i'}` of the outgoing road `to`, copied in at build time.
    capacity: u32,
    service_rate: f64,
}

impl Link {
    /// The incoming road `N_i` the link serves.
    pub const fn from(&self) -> IncomingId {
        self.from
    }

    /// The outgoing road `N_{i'}` the link feeds.
    pub const fn to(&self) -> OutgoingId {
        self.to
    }

    /// Capacity `W_{i'}` of the outgoing road the link feeds (equal to
    /// [`IntersectionLayout::capacity`] of [`to`](Self::to)).
    pub const fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Maximum service rate `µ_i^{i'}` (vehicles per mini-slot).
    pub const fn service_rate(&self) -> f64 {
        self.service_rate
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L({}->{})", self.from, self.to)
    }
}

/// Errors produced while building or validating an [`IntersectionLayout`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LayoutError {
    /// The layout declares no incoming roads.
    NoIncomingRoads,
    /// The layout declares no outgoing roads.
    NoOutgoingRoads,
    /// The layout declares no control phases (the controller would have
    /// nothing to select).
    NoPhases,
    /// A link references an incoming road outside the declared range.
    UnknownIncoming(IncomingId),
    /// A link references an outgoing road outside the declared range.
    UnknownOutgoing(OutgoingId),
    /// Two links share the same (incoming, outgoing) pair.
    DuplicateLink(IncomingId, OutgoingId),
    /// A link's maximum service rate is not strictly positive and finite.
    InvalidServiceRate(f64),
    /// An outgoing road's capacity is zero.
    ZeroCapacity(OutgoingId),
    /// A phase references a link outside the link table.
    UnknownLink(LinkId),
    /// A phase activates no links (the transition phase `c0` is modeled
    /// separately and must not be listed in `C`).
    EmptyPhase(usize),
    /// A phase lists the same link twice.
    DuplicateLinkInPhase(usize, LinkId),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NoIncomingRoads => write!(f, "layout has no incoming roads"),
            LayoutError::NoOutgoingRoads => write!(f, "layout has no outgoing roads"),
            LayoutError::NoPhases => write!(f, "layout has no control phases"),
            LayoutError::UnknownIncoming(id) => {
                write!(f, "link references unknown incoming road {id}")
            }
            LayoutError::UnknownOutgoing(id) => {
                write!(f, "link references unknown outgoing road {id}")
            }
            LayoutError::DuplicateLink(i, o) => {
                write!(f, "duplicate link from {i} to {o}")
            }
            LayoutError::InvalidServiceRate(mu) => {
                write!(f, "service rate {mu} is not strictly positive and finite")
            }
            LayoutError::ZeroCapacity(id) => {
                write!(f, "outgoing road {id} has zero capacity")
            }
            LayoutError::UnknownLink(id) => write!(f, "phase references unknown link {id}"),
            LayoutError::EmptyPhase(j) => write!(f, "phase {j} activates no links"),
            LayoutError::DuplicateLinkInPhase(j, id) => {
                write!(f, "phase {j} lists link {id} more than once")
            }
        }
    }
}

impl Error for LayoutError {}

/// Immutable structure of one signalized intersection.
///
/// Build a layout with [`IntersectionLayout::builder`] or use the paper's
/// standard four-approach junction from
/// [`standard::four_way`](crate::standard::four_way).
///
/// # Examples
///
/// A minimal junction with one movement and one phase:
///
/// ```
/// use utilbp_core::{IntersectionLayout, IncomingId, OutgoingId};
///
/// # fn main() -> Result<(), utilbp_core::LayoutError> {
/// let mut b = IntersectionLayout::builder();
/// let i = b.add_incoming();
/// let o = b.add_outgoing(120);
/// let l = b.add_link(i, o, 1.0);
/// b.add_phase(&[l]);
/// let layout = b.build()?;
/// assert_eq!(layout.num_links(), 1);
/// assert_eq!(layout.phase(utilbp_core::PhaseId::new(0)), &[l]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntersectionLayout {
    /// Capacity `W_{i'}` of each outgoing road, indexed by `OutgoingId`.
    capacities: Vec<u32>,
    links: Vec<Link>,
    /// Every phase's links in phase order, then the links leaving each
    /// incoming road in road order (for per-road pressure, Eq. 5).
    link_lists: Vec<LinkId>,
    /// List `n` is `link_lists[list_bounds[n]..list_bounds[n + 1]]`: the
    /// first `num_phases` lists are the phases, the rest the incoming
    /// roads.
    list_bounds: Vec<u32>,
    num_phases: usize,
    /// `W* = max_{i'} W_{i'}` (Eq. 7), cached at build time.
    max_capacity: u32,
}

impl IntersectionLayout {
    /// Starts building a layout.
    pub fn builder() -> IntersectionLayoutBuilder {
        IntersectionLayoutBuilder::default()
    }

    /// Number of incoming roads `|N_I|`.
    pub fn num_incoming(&self) -> usize {
        self.list_bounds.len() - 1 - self.num_phases
    }

    /// Number of outgoing roads `|N_O|`.
    pub fn num_outgoing(&self) -> usize {
        self.capacities.len()
    }

    /// Number of feasible links `|L|`.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of control phases `|C|` (excluding the transition phase `c0`).
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// The link table entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this layout.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The links phase `id` activates.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this layout.
    pub fn phase(&self, id: PhaseId) -> &[LinkId] {
        assert!(id.index() < self.num_phases, "phase {id} out of range");
        self.list(id.index())
    }

    /// Every phase's links, in phase-table order (the slices
    /// [`phase`](Self::phase) returns for [`phase_ids`](Self::phase_ids)).
    pub(crate) fn phases(&self) -> impl Iterator<Item = &[LinkId]> + '_ {
        self.list_bounds[..=self.num_phases]
            .windows(2)
            .map(|w| &self.link_lists[w[0] as usize..w[1] as usize])
    }

    /// Capacity `W_{i'}` of an outgoing road.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this layout.
    pub fn capacity(&self, id: OutgoingId) -> u32 {
        self.capacities[id.index()]
    }

    /// `W* = max_{i'} W_{i'}` (Eq. 7 of the paper).
    pub(crate) fn max_capacity(&self) -> u32 {
        self.max_capacity
    }

    /// Iterates over all link ids in table order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(|i| LinkId::new(i as u16))
    }

    /// Iterates over all phase ids in table order.
    pub fn phase_ids(&self) -> impl Iterator<Item = PhaseId> + '_ {
        (0..self.num_phases).map(|i| PhaseId::new(i as u8))
    }

    /// Iterates over all outgoing road ids in table order.
    pub fn outgoing_ids(&self) -> impl Iterator<Item = OutgoingId> + '_ {
        (0..self.capacities.len()).map(|i| OutgoingId::new(i as u8))
    }

    /// Iterates over all incoming road ids in table order.
    pub fn incoming_ids(&self) -> impl Iterator<Item = IncomingId> + '_ {
        (0..self.num_incoming()).map(|i| IncomingId::new(i as u8))
    }

    /// The links departing from incoming road `id` (the movements whose
    /// queues sum to the paper's `q_i`, Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this layout.
    pub fn links_from(&self, id: IncomingId) -> &[LinkId] {
        self.list(self.num_phases + id.index())
    }

    /// Link list `n` of `link_lists`.
    fn list(&self, n: usize) -> &[LinkId] {
        &self.link_lists[self.list_bounds[n] as usize..self.list_bounds[n + 1] as usize]
    }
}

/// Incremental builder for [`IntersectionLayout`] (see
/// [`IntersectionLayout::builder`]).
#[derive(Debug, Clone, Default)]
pub struct IntersectionLayoutBuilder {
    num_incoming: usize,
    capacities: Vec<u32>,
    /// Links as added; `build` fills in each one's capacity.
    links: Vec<Link>,
    /// Every phase's links, back to back.
    phase_links: Vec<LinkId>,
    /// Where each phase's links end in `phase_links`.
    phase_ends: Vec<u32>,
}

impl IntersectionLayoutBuilder {
    /// Declares a new incoming road and returns its id.
    pub fn add_incoming(&mut self) -> IncomingId {
        let id = IncomingId::new(self.num_incoming as u8);
        self.num_incoming += 1;
        id
    }

    /// Declares a new outgoing road with capacity `W` and returns its id.
    pub fn add_outgoing(&mut self, capacity: u32) -> OutgoingId {
        let id = OutgoingId::new(self.capacities.len() as u8);
        self.capacities.push(capacity);
        id
    }

    /// Declares a feasible link from `from` to `to` with maximum service
    /// rate `service_rate` (vehicles per mini-slot) and returns its id.
    pub fn add_link(&mut self, from: IncomingId, to: OutgoingId, service_rate: f64) -> LinkId {
        let id = LinkId::new(self.links.len() as u16);
        self.links.push(Link {
            from,
            to,
            capacity: 0,
            service_rate,
        });
        id
    }

    /// Declares a control phase activating `links` and returns its id.
    pub fn add_phase(&mut self, links: &[LinkId]) -> PhaseId {
        let id = PhaseId::new(self.phase_ends.len() as u8);
        self.phase_links.extend_from_slice(links);
        self.phase_ends.push(self.phase_links.len() as u32);
        id
    }

    /// The links of phase `j`.
    fn phase(&self, j: usize) -> &[LinkId] {
        let start = if j == 0 { 0 } else { self.phase_ends[j - 1] };
        &self.phase_links[start as usize..self.phase_ends[j] as usize]
    }

    /// Validates the accumulated structure and produces the layout.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if any road, link, or phase reference is
    /// inconsistent; see the error variants for the individual conditions.
    pub fn build(&self) -> Result<IntersectionLayout, LayoutError> {
        if self.num_incoming == 0 {
            return Err(LayoutError::NoIncomingRoads);
        }
        if self.capacities.is_empty() {
            return Err(LayoutError::NoOutgoingRoads);
        }
        if self.phase_ends.is_empty() {
            return Err(LayoutError::NoPhases);
        }
        for (idx, &w) in self.capacities.iter().enumerate() {
            if w == 0 {
                return Err(LayoutError::ZeroCapacity(OutgoingId::new(idx as u8)));
            }
        }
        for (idx, link) in self.links.iter().enumerate() {
            if link.from.index() >= self.num_incoming {
                return Err(LayoutError::UnknownIncoming(link.from));
            }
            if link.to.index() >= self.capacities.len() {
                return Err(LayoutError::UnknownOutgoing(link.to));
            }
            if !(link.service_rate.is_finite() && link.service_rate > 0.0) {
                return Err(LayoutError::InvalidServiceRate(link.service_rate));
            }
            if self.links[..idx]
                .iter()
                .any(|other| other.from == link.from && other.to == link.to)
            {
                return Err(LayoutError::DuplicateLink(link.from, link.to));
            }
        }
        for j in 0..self.phase_ends.len() {
            let phase = self.phase(j);
            if phase.is_empty() {
                return Err(LayoutError::EmptyPhase(j));
            }
            for (pos, &lid) in phase.iter().enumerate() {
                if lid.index() >= self.links.len() {
                    return Err(LayoutError::UnknownLink(lid));
                }
                if phase[..pos].contains(&lid) {
                    return Err(LayoutError::DuplicateLinkInPhase(j, lid));
                }
            }
        }

        let lists = self.phase_ends.len() + self.num_incoming;
        let mut link_lists = Vec::with_capacity(self.phase_links.len() + self.links.len());
        link_lists.extend_from_slice(&self.phase_links);
        let mut list_bounds = Vec::with_capacity(lists + 1);
        list_bounds.push(0);
        list_bounds.extend_from_slice(&self.phase_ends);
        for arm in 0..self.num_incoming {
            link_lists.extend(
                (0..self.links.len())
                    .filter(|&idx| self.links[idx].from.index() == arm)
                    .map(|idx| LinkId::new(idx as u16)),
            );
            list_bounds.push(link_lists.len() as u32);
        }
        let links = self
            .links
            .iter()
            .map(|&link| Link {
                capacity: self.capacities[link.to.index()],
                ..link
            })
            .collect();
        let max_capacity = self.capacities.iter().copied().max().unwrap_or(0);

        Ok(IntersectionLayout {
            capacities: self.capacities.clone(),
            links,
            link_lists,
            list_bounds,
            num_phases: self.phase_ends.len(),
            max_capacity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> IntersectionLayoutBuilder {
        let mut b = IntersectionLayout::builder();
        let i0 = b.add_incoming();
        let i1 = b.add_incoming();
        let o0 = b.add_outgoing(100);
        let o1 = b.add_outgoing(120);
        let l0 = b.add_link(i0, o0, 1.0);
        let l1 = b.add_link(i0, o1, 1.0);
        let l2 = b.add_link(i1, o0, 0.5);
        b.add_phase(&[l0, l1]);
        b.add_phase(&[l2]);
        b
    }

    #[test]
    fn builds_valid_layout() {
        let layout = two_by_two().build().expect("layout is valid");
        assert_eq!(layout.num_incoming(), 2);
        assert_eq!(layout.num_outgoing(), 2);
        assert_eq!(layout.num_links(), 3);
        assert_eq!(layout.num_phases(), 2);
        assert_eq!(layout.max_capacity(), 120);
        assert_eq!(layout.capacity(OutgoingId::new(0)), 100);
        assert_eq!(
            layout.links_from(IncomingId::new(0)),
            &[LinkId::new(0), LinkId::new(1)]
        );
        assert_eq!(layout.links_from(IncomingId::new(1)), &[LinkId::new(2)]);
        assert_eq!(
            layout.phase(PhaseId::new(0)),
            &[LinkId::new(0), LinkId::new(1)]
        );
        assert_eq!(layout.phase(PhaseId::new(1)), &[LinkId::new(2)]);
        let capacities: Vec<u32> = layout
            .link_ids()
            .map(|l| layout.link(l).capacity())
            .collect();
        assert_eq!(
            capacities,
            [100, 120, 100],
            "each link carries its exit's W"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_phase_past_the_table_panics() {
        let layout = two_by_two().build().expect("layout is valid");
        let _ = layout.phase(PhaseId::new(2));
    }

    #[test]
    fn rejects_empty_structures() {
        assert_eq!(
            IntersectionLayout::builder().build().unwrap_err(),
            LayoutError::NoIncomingRoads
        );

        let mut b = IntersectionLayout::builder();
        b.add_incoming();
        assert_eq!(b.build().unwrap_err(), LayoutError::NoOutgoingRoads);

        let mut b = IntersectionLayout::builder();
        b.add_incoming();
        b.add_outgoing(10);
        assert_eq!(b.build().unwrap_err(), LayoutError::NoPhases);
    }

    #[test]
    fn rejects_dangling_references() {
        let mut b = IntersectionLayout::builder();
        let _ = b.add_incoming();
        let o = b.add_outgoing(10);
        b.add_link(IncomingId::new(9), o, 1.0);
        b.add_phase(&[LinkId::new(0)]);
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::UnknownIncoming(IncomingId::new(9))
        );

        let mut b = IntersectionLayout::builder();
        let i = b.add_incoming();
        b.add_outgoing(10);
        b.add_link(i, OutgoingId::new(7), 1.0);
        b.add_phase(&[LinkId::new(0)]);
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::UnknownOutgoing(OutgoingId::new(7))
        );

        let mut b = IntersectionLayout::builder();
        let i = b.add_incoming();
        let o = b.add_outgoing(10);
        b.add_link(i, o, 1.0);
        b.add_phase(&[LinkId::new(5)]);
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::UnknownLink(LinkId::new(5))
        );
        let _ = i;
    }

    #[test]
    fn rejects_bad_rates_capacities_and_duplicates() {
        let mut b = IntersectionLayout::builder();
        let i = b.add_incoming();
        let o = b.add_outgoing(10);
        b.add_link(i, o, 0.0);
        b.add_phase(&[LinkId::new(0)]);
        assert_eq!(b.build().unwrap_err(), LayoutError::InvalidServiceRate(0.0));

        let mut b = IntersectionLayout::builder();
        let i = b.add_incoming();
        let o = b.add_outgoing(0);
        b.add_link(i, o, 1.0);
        b.add_phase(&[LinkId::new(0)]);
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::ZeroCapacity(OutgoingId::new(0))
        );

        let mut b = IntersectionLayout::builder();
        let i = b.add_incoming();
        let o = b.add_outgoing(10);
        let l0 = b.add_link(i, o, 1.0);
        b.add_link(i, o, 1.0);
        b.add_phase(&[l0]);
        assert_eq!(b.build().unwrap_err(), LayoutError::DuplicateLink(i, o));
    }

    #[test]
    fn rejects_degenerate_phases() {
        let mut b = IntersectionLayout::builder();
        let i = b.add_incoming();
        let o = b.add_outgoing(10);
        b.add_link(i, o, 1.0);
        b.add_phase(&[]);
        assert_eq!(b.build().unwrap_err(), LayoutError::EmptyPhase(0));

        let mut b = IntersectionLayout::builder();
        let i = b.add_incoming();
        let o = b.add_outgoing(10);
        let l = b.add_link(i, o, 1.0);
        b.add_phase(&[l, l]);
        assert_eq!(
            b.build().unwrap_err(),
            LayoutError::DuplicateLinkInPhase(0, l)
        );
    }

    #[test]
    fn error_display_is_informative() {
        let err = LayoutError::DuplicateLink(IncomingId::new(1), OutgoingId::new(2));
        assert!(err.to_string().contains("duplicate link"));
        let err = LayoutError::InvalidServiceRate(-1.0);
        assert!(err.to_string().contains("-1"));
    }
}
