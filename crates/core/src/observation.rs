//! Per-instant queue state of one intersection (the paper's `Q(k)`).
//!
//! The controller is a state-feedback law `c(k) = φ(Q(k))` (Eq. 3). Its
//! state input consists of the per-movement queue lengths `q_i^{i'}(k)` for
//! every feasible link and the total occupancy `q_{i'}(k)` of every outgoing
//! road. A [`QueueObservation`] holds exactly that, and an
//! [`IntersectionView`] pairs it with the static
//! [`IntersectionLayout`](crate::IntersectionLayout) for convenient queries.

use std::error::Error;
use std::fmt;

use crate::ids::{IncomingId, LinkId, OutgoingId};
use crate::layout::IntersectionLayout;

/// Error returned when an observation's shape does not match a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservationShapeError {
    expected_links: usize,
    got_links: usize,
    expected_outgoing: usize,
    got_outgoing: usize,
}

impl fmt::Display for ObservationShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "observation shape mismatch: expected {} movement queues and {} outgoing \
             occupancies, got {} and {}",
            self.expected_links, self.expected_outgoing, self.got_links, self.got_outgoing
        )
    }
}

impl Error for ObservationShapeError {}

/// The measured queue state `Q(k)` of one intersection at one instant.
///
/// # Examples
///
/// ```
/// use utilbp_core::{standard, QueueObservation};
///
/// let layout = standard::four_way(120, 1.0);
/// let mut obs = QueueObservation::zeros(&layout);
/// obs.set_movement(utilbp_core::LinkId::new(0), 7);
/// assert_eq!(obs.movement(utilbp_core::LinkId::new(0)), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueObservation {
    /// `q_i^{i'}(k)` per feasible link, indexed by `LinkId`.
    movement: Vec<u32>,
    /// `q_{i'}(k)` per outgoing road, indexed by `OutgoingId`.
    outgoing: Vec<u32>,
}

impl QueueObservation {
    /// An all-empty observation shaped for `layout`.
    pub fn zeros(layout: &IntersectionLayout) -> Self {
        QueueObservation {
            movement: vec![0; layout.num_links()],
            outgoing: vec![0; layout.num_outgoing()],
        }
    }

    /// The movement queue length `q_i^{i'}(k)` for `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range for the layout this observation was
    /// shaped for.
    pub fn movement(&self, link: LinkId) -> u32 {
        self.movement[link.index()]
    }

    /// Sets the movement queue length for `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_movement(&mut self, link: LinkId, value: u32) {
        self.movement[link.index()] = value;
    }

    /// The total occupancy `q_{i'}(k)` of outgoing road `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is out of range.
    pub fn outgoing(&self, out: OutgoingId) -> u32 {
        self.outgoing[out.index()]
    }

    /// Sets the total occupancy of outgoing road `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is out of range.
    pub fn set_outgoing(&mut self, out: OutgoingId, value: u32) {
        self.outgoing[out.index()] = value;
    }

    /// Appends the observation's shape and values to a checkpoint
    /// stream (see [`state`](crate::state)).
    pub fn save_state(&self, writer: &mut crate::state::StateWriter) {
        writer.push_usize(self.movement.len());
        for &q in &self.movement {
            writer.push_u32(q);
        }
        writer.push_usize(self.outgoing.len());
        for &q in &self.outgoing {
            writer.push_u32(q);
        }
    }

    /// Reads an observation written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`state::StateError`](crate::state::StateError) when the stream
    /// is truncated or malformed.
    pub fn load_state(
        reader: &mut crate::state::StateReader<'_>,
    ) -> Result<Self, crate::state::StateError> {
        let links = reader.take_len(1, "observation link count")?;
        let mut movement = Vec::with_capacity(links);
        for _ in 0..links {
            movement.push(reader.take_u32()?);
        }
        let outgoing_len = reader.take_len(1, "observation outgoing count")?;
        let mut outgoing = Vec::with_capacity(outgoing_len);
        for _ in 0..outgoing_len {
            outgoing.push(reader.take_u32()?);
        }
        Ok(QueueObservation { movement, outgoing })
    }

    /// Whether the observation has `layout`'s shape: one reading per
    /// link and per outgoing road.
    pub fn fits(&self, layout: &IntersectionLayout) -> bool {
        self.movement.len() == layout.num_links() && self.outgoing.len() == layout.num_outgoing()
    }

    /// Raw movement-queue slice, indexed by `LinkId`.
    pub fn movements(&self) -> &[u32] {
        &self.movement
    }

    /// Raw outgoing-occupancy slice, indexed by `OutgoingId`.
    pub fn outgoings(&self) -> &[u32] {
        &self.outgoing
    }

    /// Mutable movement-queue slice, indexed by `LinkId` — for sensors
    /// that rewrite every reading in one gather. The shape is fixed.
    pub fn movements_mut(&mut self) -> &mut [u32] {
        &mut self.movement
    }

    /// Mutable outgoing-occupancy slice, indexed by `OutgoingId` — for
    /// sensors that rewrite every reading in one gather. The shape is
    /// fixed.
    pub fn outgoings_mut(&mut self) -> &mut [u32] {
        &mut self.outgoing
    }

    /// Reshapes this observation for `layout`, zeroing all readings. The
    /// existing allocations are reused when large enough, so reshaping to
    /// the same layout every tick never allocates.
    pub(crate) fn reshape_for(&mut self, layout: &IntersectionLayout) {
        self.movement.clear();
        self.movement.resize(layout.num_links(), 0);
        self.outgoing.clear();
        self.outgoing.resize(layout.num_outgoing(), 0);
    }
}

/// A reusable pool of per-intersection observations.
///
/// Simulators shape the buffer once per network and then rewrite the
/// same observations every tick, so the steady-state step path performs
/// no observation-related heap allocation. The buffer also
/// decouples the *sense* phase (write, `&mut self`) from the *decide*
/// phase (read-only views), so every controller decides from the same
/// tick's sensing.
///
/// The buffer also keeps the *due set*: a bitset over the intersections
/// whose controller the next decide phase calls. Every mutable access
/// marks its intersection due ([`get_mut`](Self::get_mut),
/// [`as_mut_slice`](Self::as_mut_slice), or [`sense`](Self::sense) when
/// its gather reports a difference); the decide phase clears a bit when
/// it calls the controller and sets it again when the controller is not
/// at rest (see [`decide_all`](crate::decide::decide_all)).
#[derive(Debug, Clone, Default)]
pub struct ObservationBuffer {
    observations: Vec<QueueObservation>,
    /// Intersection `i` is due when bit `i % 64` of word `i / 64` is
    /// set; bits past the last intersection stay clear.
    due: Vec<u64>,
}

impl ObservationBuffer {
    /// An empty buffer; call [`shape_for`](Self::shape_for) before use.
    pub fn new() -> Self {
        ObservationBuffer::default()
    }

    /// Shapes one observation per layout, reusing allocations, and marks
    /// every one due. Call once at construction (or whenever the
    /// network changes); calling again with the same layouts is
    /// allocation-free after the first time.
    pub fn shape_for<'a>(&mut self, layouts: impl Iterator<Item = &'a IntersectionLayout>) {
        let mut n = 0;
        for layout in layouts {
            if n == self.observations.len() {
                self.observations.push(QueueObservation::zeros(layout));
            } else {
                self.observations[n].reshape_for(layout);
            }
            n += 1;
        }
        self.observations.truncate(n);
        self.due.resize(n.div_ceil(64), 0);
        self.mark_all_due();
    }

    /// Number of observations in the buffer.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Mutable observation for intersection index `i`; marks it due.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get_mut(&mut self, i: usize) -> &mut QueueObservation {
        let obs = &mut self.observations[i];
        self.due[i / 64] |= 1 << (i % 64);
        obs
    }

    /// Rewrites intersection `i`'s readings with `gather`, which returns
    /// whether any reading differs from the one it overwrote; marks the
    /// intersection due only then.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sense(&mut self, i: usize, gather: impl FnOnce(&mut QueueObservation) -> bool) {
        if gather(&mut self.observations[i]) {
            self.due[i / 64] |= 1 << (i % 64);
        }
    }

    /// Marks every intersection due.
    pub(crate) fn mark_all_due(&mut self) {
        let n = self.observations.len();
        for (w, word) in self.due.iter_mut().enumerate() {
            let bits = (n - w * 64).min(64);
            *word = if bits == 64 { !0 } else { (1 << bits) - 1 };
        }
    }

    /// The due set as words: intersection `i` is due when bit `i % 64`
    /// of word `i / 64` is set.
    pub fn due_words(&self) -> &[u64] {
        &self.due
    }

    /// Calls `visit(i, observation)` for every due intersection `i`, in
    /// ascending order, clearing its bit first; `visit` returns whether
    /// to mark `i` due again.
    pub(crate) fn visit_due(&mut self, mut visit: impl FnMut(usize, &QueueObservation) -> bool) {
        for (w, word) in self.due.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                let i = w * 64 + bits.trailing_zeros() as usize;
                if visit(i, &self.observations[i]) {
                    *word |= bit;
                }
                bits ^= bit;
            }
        }
    }

    /// All observations, indexed by intersection.
    pub fn as_slice(&self) -> &[QueueObservation] {
        &self.observations
    }

    /// All observations, mutably; marks every one due.
    pub fn as_mut_slice(&mut self) -> &mut [QueueObservation] {
        self.mark_all_due();
        &mut self.observations
    }
}

/// A layout plus one observation: everything a controller may read at `k`.
///
/// All controller implementations in this workspace take an
/// `IntersectionView`, keeping them decentralized by construction — a view
/// exposes only quantities local to one intersection, exactly as the paper
/// requires ("all the inputs are local to the intersection").
#[derive(Debug, Clone, Copy)]
pub struct IntersectionView<'a> {
    layout: &'a IntersectionLayout,
    queues: &'a QueueObservation,
}

impl<'a> IntersectionView<'a> {
    /// Pairs a layout with an observation.
    ///
    /// # Errors
    ///
    /// Returns [`ObservationShapeError`] if the observation was not shaped
    /// for this layout.
    pub fn new(
        layout: &'a IntersectionLayout,
        queues: &'a QueueObservation,
    ) -> Result<Self, ObservationShapeError> {
        if queues.movement.len() != layout.num_links()
            || queues.outgoing.len() != layout.num_outgoing()
        {
            return Err(ObservationShapeError {
                expected_links: layout.num_links(),
                got_links: queues.movement.len(),
                expected_outgoing: layout.num_outgoing(),
                got_outgoing: queues.outgoing.len(),
            });
        }
        Ok(IntersectionView { layout, queues })
    }

    /// The static layout.
    pub fn layout(&self) -> &'a IntersectionLayout {
        self.layout
    }

    /// `q_i^{i'}(k)` for `link`.
    pub fn movement_queue(&self, link: LinkId) -> u32 {
        self.queues.movement(link)
    }

    /// `q_{i'}(k)` for outgoing road `out`.
    pub fn outgoing_occupancy(&self, out: OutgoingId) -> u32 {
        self.queues.outgoing(out)
    }

    /// Total queue `q_i(k) = Σ_{i'} q_i^{i'}(k)` at incoming road `id`
    /// (Eq. 1).
    pub fn incoming_total(&self, id: IncomingId) -> u32 {
        self.layout
            .links_from(id)
            .iter()
            .map(|&l| self.queues.movement(l))
            .sum()
    }

    /// Whether outgoing road `out` has reached its capacity
    /// (`q_{i'}(k) = W_{i'}`).
    pub(crate) fn is_full(&self, out: OutgoingId) -> bool {
        self.queues.outgoing(out) >= self.layout.capacity(out)
    }

    /// Remaining storage on outgoing road `out`
    /// (`W_{i'} − q_{i'}(k)`, saturating at zero).
    pub(crate) fn residual_capacity(&self, out: OutgoingId) -> u32 {
        self.layout
            .capacity(out)
            .saturating_sub(self.queues.outgoing(out))
    }

    /// Whether activating `link` would serve at least one vehicle in the
    /// next mini-slot: its movement queue is non-empty and its outgoing road
    /// is not full.
    pub fn link_servable(&self, link: LinkId) -> bool {
        let l = self.layout.link(link);
        self.queues.movement(link) > 0 && !self.is_full(l.to())
    }

    /// Number of vehicles an activated `link` could transfer in one
    /// mini-slot: `min(⌊µ⌋ servable, queue, residual downstream capacity)`.
    pub fn link_service_bound(&self, link: LinkId) -> u32 {
        let l = self.layout.link(link);
        let mu = l.service_rate().floor().max(0.0) as u32;
        mu.min(self.queues.movement(link))
            .min(self.residual_capacity(l.to()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard;

    #[test]
    fn zeros_matches_layout_shape() {
        let layout = standard::four_way(120, 1.0);
        let obs = QueueObservation::zeros(&layout);
        assert_eq!(obs.movements().len(), layout.num_links());
        assert_eq!(obs.outgoings().len(), layout.num_outgoing());
    }

    #[test]
    fn incoming_total_sums_movements_per_eq1() {
        let layout = standard::four_way(120, 1.0);
        let mut obs = QueueObservation::zeros(&layout);
        let from_north = IncomingId::new(0);
        for (n, &l) in layout.links_from(from_north).iter().enumerate() {
            obs.set_movement(l, (n + 1) as u32);
        }
        let view = IntersectionView::new(&layout, &obs).unwrap();
        assert_eq!(view.incoming_total(from_north), 1 + 2 + 3);
        assert_eq!(view.incoming_total(IncomingId::new(1)), 0);
    }

    #[test]
    fn fullness_and_residual_capacity() {
        let layout = standard::four_way(10, 1.0);
        let mut obs = QueueObservation::zeros(&layout);
        let out = OutgoingId::new(2);
        obs.set_outgoing(out, 10);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        assert!(view.is_full(out));
        assert_eq!(view.residual_capacity(out), 0);
        assert!(!view.is_full(OutgoingId::new(0)));
        assert_eq!(view.residual_capacity(OutgoingId::new(0)), 10);
    }

    #[test]
    fn servability_requires_queue_and_space() {
        let layout = standard::four_way(5, 1.0);
        let mut obs = QueueObservation::zeros(&layout);
        let link = LinkId::new(0);
        let out = layout.link(link).to();

        let view = IntersectionView::new(&layout, &obs).unwrap();
        assert!(!view.link_servable(link), "empty movement queue");

        obs.set_movement(link, 3);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        assert!(view.link_servable(link));
        assert_eq!(view.link_service_bound(link), 1, "bounded by µ=1");

        obs.set_outgoing(out, 5);
        let view = IntersectionView::new(&layout, &obs).unwrap();
        assert!(!view.link_servable(link), "full outgoing road");
        assert_eq!(view.link_service_bound(link), 0);
    }

    #[test]
    fn view_rejects_mismatched_observation() {
        let four = standard::four_way(120, 1.0);
        let tiny = {
            let mut b = IntersectionLayout::builder();
            let i = b.add_incoming();
            let o = b.add_outgoing(10);
            let l = b.add_link(i, o, 1.0);
            b.add_phase(&[l]);
            b.build().unwrap()
        };
        let obs = QueueObservation::zeros(&tiny);
        assert!(IntersectionView::new(&four, &obs).is_err());
    }

    use crate::layout::IntersectionLayout;

    #[test]
    fn crafted_huge_shape_is_an_error_not_an_abort() {
        use crate::state::{StateError, StateReader, StateWriter};
        let mut w = StateWriter::new();
        w.push(u64::MAX);
        assert!(matches!(
            QueueObservation::load_state(&mut StateReader::new(w.bytes())),
            Err(StateError::Invalid {
                what: "observation link count",
                ..
            })
        ));
    }
}
