//! Intersection-local identifiers.
//!
//! The paper's intersection graph has incoming roads `N_i ∈ N_I`, outgoing
//! roads `N_{i'} ∈ N_O`, feasible links `L_i^{i'}` (turning movements), and
//! control phases `c_j`. These newtypes index into an
//! [`IntersectionLayout`](crate::IntersectionLayout)'s tables and are only
//! meaningful relative to one layout.

use std::fmt;

/// Identifier of an incoming road (`N_i ∈ N_I`) at one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IncomingId(u8);

impl IncomingId {
    /// Creates an incoming-road id from its index in the layout table.
    pub const fn new(index: u8) -> Self {
        IncomingId(index)
    }

    /// Returns the index into the layout's incoming-road table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for IncomingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in{}", self.0)
    }
}

/// Identifier of an outgoing road (`N_{i'} ∈ N_O`) at one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OutgoingId(u8);

impl OutgoingId {
    /// Creates an outgoing-road id from its index in the layout table.
    pub const fn new(index: u8) -> Self {
        OutgoingId(index)
    }

    /// Returns the index into the layout's outgoing-road table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OutgoingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "out{}", self.0)
    }
}

/// Identifier of a feasible link `L_i^{i'}` (one turning movement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(u16);

impl LinkId {
    /// Creates a link id from its index in the layout's link table.
    pub const fn new(index: u16) -> Self {
        LinkId(index)
    }

    /// Returns the index into the layout's link table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifier of a control phase `c_j ∈ C`.
///
/// The transition (amber) phase `c0` is *not* a `PhaseId`; it is represented
/// by [`PhaseDecision::Transition`](crate::PhaseDecision::Transition) because
/// it activates no links and carries distinct timing semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhaseId(u8);

impl PhaseId {
    /// Creates a phase id from its index in the layout's phase table.
    pub const fn new(index: u8) -> Self {
        PhaseId(index)
    }

    /// Returns the index into the layout's phase table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Paper numbering: phases are c1..c4, transition is c0.
        write!(f, "c{}", self.0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_their_index() {
        assert_eq!(IncomingId::new(3).index(), 3);
        assert_eq!(OutgoingId::new(2).index(), 2);
        assert_eq!(LinkId::new(11).index(), 11);
        assert_eq!(PhaseId::new(1).index(), 1);
    }

    #[test]
    fn phase_display_uses_paper_numbering() {
        assert_eq!(PhaseId::new(0).to_string(), "c1");
        assert_eq!(PhaseId::new(3).to_string(), "c4");
    }

    #[test]
    fn displays_are_nonempty_and_distinct() {
        assert_eq!(IncomingId::new(1).to_string(), "in1");
        assert_eq!(OutgoingId::new(1).to_string(), "out1");
        assert_eq!(LinkId::new(1).to_string(), "L1");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(LinkId::new(1) < LinkId::new(2));
        assert!(PhaseId::new(0) < PhaseId::new(3));
    }
}
