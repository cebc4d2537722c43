//! Vehicle routes through a network.

use serde::{Deserialize, Serialize};
use utilbp_core::LinkId;

use crate::topology::{IntersectionId, RoadId};

/// An ordered sequence of intersection crossings: the movement (link) a
/// vehicle takes at each junction from its entry road to the boundary.
///
/// Simulators advance a cursor through the hops; [`Route::hop`] yields the
/// movement to queue for at the `n`-th intersection of the journey.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    entry: RoadId,
    hops: Vec<(IntersectionId, LinkId)>,
}

impl Route {
    /// Creates a route from its entry road and crossing sequence.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty — a vehicle that enters the network must
    /// cross at least one intersection.
    pub fn new(entry: RoadId, hops: Vec<(IntersectionId, LinkId)>) -> Self {
        assert!(
            !hops.is_empty(),
            "a route must cross at least one intersection"
        );
        Route { entry, hops }
    }

    /// The boundary entry road where the vehicle appears.
    pub fn entry(&self) -> RoadId {
        self.entry
    }

    /// All crossings in order.
    pub fn hops(&self) -> &[(IntersectionId, LinkId)] {
        &self.hops
    }

    /// The `n`-th crossing, if the route is that long.
    pub fn hop(&self, n: usize) -> Option<(IntersectionId, LinkId)> {
        self.hops.get(n).copied()
    }

    /// Number of intersections crossed.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Routes are never empty; this always returns `false` and exists for
    /// API symmetry with collections.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serializes the route into a durable word stream.
    pub fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push_u32(self.entry.index() as u32);
        writer.push_usize(self.hops.len());
        for &(i, l) in &self.hops {
            writer.push_u32(i.index() as u32);
            writer.push(l.index() as u64);
        }
    }

    /// Deserializes a route saved by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`](utilbp_core::state::StateError) on a
    /// truncated stream, an empty hop list, or a link word out of
    /// `u16` range.
    pub fn load_state(
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<Self, utilbp_core::state::StateError> {
        use utilbp_core::state::StateError;
        let entry = RoadId::new(reader.take_u32()?);
        let len = reader.take_len(2, "route hop count")?;
        if len == 0 {
            return Err(StateError::Invalid {
                what: "route hop count",
                word: 0,
            });
        }
        let mut hops = Vec::with_capacity(len);
        for _ in 0..len {
            let i = IntersectionId::new(reader.take_u32()?);
            let word = reader.take()?;
            let link = u16::try_from(word).map_err(|_| StateError::Invalid {
                what: "route link",
                word,
            })?;
            hops.push((i, LinkId::new(link)));
        }
        Ok(Route { entry, hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        let hops = vec![
            (IntersectionId::new(0), LinkId::new(1)),
            (IntersectionId::new(3), LinkId::new(7)),
        ];
        let r = Route::new(RoadId::new(9), hops.clone());
        assert_eq!(r.entry(), RoadId::new(9));
        assert_eq!(r.hops(), &hops[..]);
        assert_eq!(r.hop(1), Some((IntersectionId::new(3), LinkId::new(7))));
        assert_eq!(r.hop(2), None);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one intersection")]
    fn rejects_empty_routes() {
        let _ = Route::new(RoadId::new(0), Vec::new());
    }

    #[test]
    fn crafted_huge_hop_count_is_an_error_not_an_abort() {
        use utilbp_core::state::{StateError, StateReader, StateWriter};
        let mut w = StateWriter::new();
        w.push_u32(0);
        w.push(1 << 40);
        w.push(0);
        w.push(0);
        assert!(matches!(
            Route::load_state(&mut StateReader::new(w.bytes())),
            Err(StateError::Invalid {
                what: "route hop count",
                ..
            })
        ));
    }
}
