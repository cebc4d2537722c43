//! Per-vehicle queuing-time accounting.
//!
//! The paper's headline metric is the **average queuing time of a vehicle**
//! over the whole network (Fig. 2, Table III). A [`WaitingLedger`] tracks
//! each vehicle from network entry to exit; the *accumulation* of waiting
//! ticks lives with the simulator (each active vehicle carries its own
//! wait accumulator through the hot loop) and is flushed into the ledger
//! once, at journey completion, via [`WaitingLedger::complete`]. Queries
//! that must count vehicles still in the network —
//! [`WaitingLedger::mean_waiting_including_active`] — fold the live
//! accumulators in at query time, so the per-tick step path never touches
//! the ledger for waiting vehicles.

use utilbp_core::Tick;

use crate::{Histogram, SummaryStats};

/// Bin width of the waiting-time histogram, in ticks.
const WAIT_HISTOGRAM_BIN: f64 = 10.0;
/// Number of bins (covers 0–600 ticks; longer waits land in overflow).
const WAIT_HISTOGRAM_BINS: usize = 60;

/// Opaque vehicle identifier, unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VehicleId(u64);

impl VehicleId {
    /// Creates an id from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        VehicleId(raw)
    }

    /// The raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "veh{}", self.0)
    }
}

/// Tracks per-vehicle journey times and completed-vehicle waiting
/// statistics across a run.
///
/// Waiting ticks are accumulated *outside* the ledger (the simulators
/// carry one accumulator per active vehicle, updated in the same pass
/// that moves the vehicle) and handed over at [`complete`](Self::complete)
/// time. The ledger itself only needs each active vehicle's entry tick,
/// so entering and completing are O(1) slab operations and nothing in the
/// per-tick hot path writes here.
///
/// # Examples
///
/// ```
/// use utilbp_core::Tick;
/// use utilbp_metrics::{VehicleId, WaitingLedger};
///
/// let mut ledger = WaitingLedger::new();
/// let v = VehicleId::new(0);
/// ledger.enter(v, Tick::new(10));
/// ledger.complete(v, Tick::new(40), 5);
/// assert_eq!(ledger.completed(), 1);
/// assert_eq!(ledger.waiting_stats().mean(), 5.0);
/// assert_eq!(ledger.journey_stats().mean(), 30.0);
/// ```
#[derive(Debug, Clone)]
pub struct WaitingLedger {
    /// Entry ticks of active vehicles in a dense slab indexed by the raw
    /// [`VehicleId`]. Ids are handed out sequentially by the demand
    /// generators, so the slab stays compact and both `enter` and
    /// `complete` are cache-friendly vector indexing instead of hash
    /// lookups. A restored slab ends at its last live slot; `id_bound`
    /// keeps the length it had when saved.
    active: Vec<Option<Tick>>,
    /// One past the largest raw id entered (0 before the first).
    id_bound: usize,
    /// Number of `Some` entries in `active`.
    active_count: usize,
    waiting: SummaryStats,
    journey: SummaryStats,
    waiting_histogram: Histogram,
}

impl Default for WaitingLedger {
    fn default() -> Self {
        WaitingLedger {
            active: Vec::new(),
            id_bound: 0,
            active_count: 0,
            waiting: SummaryStats::new(),
            journey: SummaryStats::new(),
            waiting_histogram: Histogram::new(WAIT_HISTOGRAM_BIN, WAIT_HISTOGRAM_BINS),
        }
    }
}

impl WaitingLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        WaitingLedger::default()
    }

    /// Registers a vehicle entering the network at `tick`.
    ///
    /// Ids are expected to be (roughly) sequential — the slab grows to
    /// the largest raw id seen, so sparse gigantic ids would waste
    /// memory, not break correctness.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vehicle is already active (ids must be
    /// unique per run).
    pub fn enter(&mut self, id: VehicleId, tick: Tick) {
        let slot = id.raw() as usize;
        if slot >= self.active.len() {
            self.active.resize(slot + 1, None);
            self.id_bound = self.id_bound.max(slot + 1);
        }
        let previous = self.active[slot].replace(tick);
        if previous.is_none() {
            self.active_count += 1;
        }
        debug_assert!(previous.is_none(), "vehicle {id} entered twice");
    }

    /// Completes a vehicle's journey at `tick`, folding its journey time
    /// and its externally accumulated `waited` ticks into the run
    /// statistics. Returns `waited` back, or `None` if the id was not
    /// active (unknown ids are ignored).
    pub fn complete(&mut self, id: VehicleId, tick: Tick, waited: u64) -> Option<u64> {
        let entered = self.active.get_mut(id.raw() as usize)?.take()?;
        self.active_count -= 1;
        self.waiting.record(waited as f64);
        self.waiting_histogram.record(waited as f64);
        self.journey
            .record(tick.saturating_since(entered).count() as f64);
        Some(waited)
    }

    /// Number of vehicles that completed their journey.
    pub fn completed(&self) -> u64 {
        self.waiting.count()
    }

    /// Number of vehicles still in the network.
    pub fn active(&self) -> usize {
        self.active_count
    }

    /// One past the largest raw vehicle id entered, 0 before the first:
    /// the number of vehicles seen when ids are issued densely from 0.
    pub fn id_bound(&self) -> usize {
        self.id_bound
    }

    /// Waiting-time statistics over completed vehicles (ticks).
    pub fn waiting_stats(&self) -> SummaryStats {
        self.waiting
    }

    /// Journey-time statistics over completed vehicles (ticks).
    pub fn journey_stats(&self) -> SummaryStats {
        self.journey
    }

    /// Waiting-time distribution over completed vehicles (10-tick bins up
    /// to 600 ticks, then overflow) — means hide the tail that matters.
    pub fn waiting_histogram(&self) -> &Histogram {
        &self.waiting_histogram
    }

    /// Appends the full ledger — the completed-run statistics and the
    /// active slab — to a checkpoint stream. The statistics come first,
    /// so a reader knows the completed count before the slab. The slab
    /// is written sparsely: its id bound, the live count, then `(slot,
    /// entry tick)` for live slots only, in slot order, so the size
    /// follows the vehicles on the network rather than every vehicle ever
    /// entered.
    pub fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        self.waiting.save_state(writer);
        self.journey.save_state(writer);
        self.waiting_histogram.save_state(writer);
        writer.push_usize(self.id_bound);
        writer.push_usize(self.active_count);
        for (slot, entry) in self.active.iter().enumerate() {
            if let Some(tick) = entry {
                writer.push_usize(slot);
                writer.push(tick.index());
            }
        }
    }

    /// Reads a ledger written by [`save_state`](Self::save_state).
    ///
    /// A capture holds vehicles whose ids were issued densely from 0, as
    /// both demand generators issue them, so its id bound is the number
    /// of vehicles it has seen: the live count plus the completed count.
    /// The bound is checked against them before the slab is allocated,
    /// and the slab only up to its last live slot, so no crafted length
    /// or slot sizes an allocation on its own.
    ///
    /// # Errors
    ///
    /// [`StateError`](utilbp_core::state::StateError) when the stream
    /// is truncated or malformed: a live count larger than the pairs the
    /// stream holds, an id bound other than the vehicles seen, a slot
    /// outside the slab, or a slot out of order or repeated.
    pub fn load_state(
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<Self, utilbp_core::state::StateError> {
        use utilbp_core::state::StateError;
        let waiting = SummaryStats::load_state(reader)?;
        let journey = SummaryStats::load_state(reader)?;
        let waiting_histogram = Histogram::load_state(reader)?;
        let id_bound = reader.take_usize()?;
        let active_count = reader.take_usize()?;
        if active_count > reader.remaining() / 2 {
            return Err(StateError::Invalid {
                what: "ledger live count",
                word: active_count as u64,
            });
        }
        if id_bound as u64 != active_count as u64 + waiting.count() {
            return Err(StateError::Invalid {
                what: "ledger id bound",
                word: id_bound as u64,
            });
        }
        // Slots are written in ascending order, so each must lie past the
        // previous one: this rejects repeats along with out-of-range slots.
        // The slab is then allocated up to the last live slot only.
        let mut pairs = reader.clone();
        let mut next_free = 0;
        for _ in 0..active_count {
            let word = reader.take()?;
            next_free = usize::try_from(word)
                .ok()
                .filter(|slot| (next_free..id_bound).contains(slot))
                .ok_or(StateError::Invalid {
                    what: "ledger slot",
                    word,
                })?
                + 1;
            reader.take()?;
        }
        let mut active = Vec::new();
        active
            .try_reserve_exact(next_free)
            .map_err(|_| StateError::Invalid {
                what: "ledger slot",
                word: next_free as u64 - 1,
            })?;
        active.resize(next_free, None);
        for _ in 0..active_count {
            let slot = pairs.take()? as usize;
            active[slot] = Some(Tick::new(pairs.take()?));
        }
        Ok(WaitingLedger {
            active,
            id_bound,
            active_count,
            waiting,
            journey,
            waiting_histogram,
        })
    }

    /// Average waiting time including vehicles still in the network — the
    /// estimator used for the paper's "average queuing time of a vehicle
    /// (in the entire network)", which counts every vehicle inserted.
    ///
    /// `active_waits` must yield the current wait accumulator of **every**
    /// active vehicle (one element per vehicle; zeros included) — the
    /// simulators own those accumulators, so this fold happens at query
    /// time instead of costing a ledger write per waiting vehicle per
    /// tick. Vehicles still active contribute their waiting so far;
    /// without this, heavily congested controllers would look *better*
    /// because their stuck vehicles never complete.
    pub fn mean_waiting_including_active<I>(&self, active_waits: I) -> f64
    where
        I: IntoIterator<Item = u64>,
    {
        let mut active_total = 0u64;
        let mut active_n = 0u64;
        for w in active_waits {
            active_total += w;
            active_n += 1;
        }
        debug_assert_eq!(
            active_n as usize, self.active_count,
            "active_waits must yield one accumulator per active vehicle"
        );
        let total = self.waiting.mean() * self.waiting.count() as f64 + active_total as f64;
        let n = self.waiting.count() as f64 + active_n as f64;
        if n == 0.0 {
            0.0
        } else {
            total / n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_accounting() {
        let mut l = WaitingLedger::new();
        let a = VehicleId::new(1);
        let b = VehicleId::new(2);
        l.enter(a, Tick::new(0));
        l.enter(b, Tick::new(5));
        assert_eq!(l.active(), 2);

        assert_eq!(l.complete(a, Tick::new(50), 10), Some(10));
        assert_eq!(l.completed(), 1);
        assert_eq!(l.active(), 1);
        assert_eq!(l.journey_stats().mean(), 50.0);

        assert_eq!(l.complete(b, Tick::new(25), 4), Some(4));
        assert_eq!(l.waiting_stats().mean(), 7.0);
        assert_eq!(l.journey_stats().mean(), 35.0);
    }

    #[test]
    fn unknown_ids_are_ignored() {
        let mut l = WaitingLedger::new();
        assert_eq!(l.complete(VehicleId::new(9), Tick::new(1), 5), None);
        assert_eq!(l.completed(), 0);
    }

    #[test]
    fn active_vehicles_count_toward_snapshot_mean() {
        let mut l = WaitingLedger::new();
        let a = VehicleId::new(1);
        let b = VehicleId::new(2);
        l.enter(a, Tick::new(0));
        l.enter(b, Tick::new(0));
        l.complete(a, Tick::new(20), 10);
        // `b` is still stuck in the network with 30 accumulated ticks.
        assert_eq!(l.waiting_stats().mean(), 10.0, "completed-only mean");
        assert_eq!(l.mean_waiting_including_active([30u64]), 20.0);
    }

    #[test]
    fn empty_ledger_means_are_zero() {
        let l = WaitingLedger::new();
        assert_eq!(l.mean_waiting_including_active(std::iter::empty()), 0.0);
        assert_eq!(l.waiting_stats().mean(), 0.0);
    }

    fn load_all(words: &[u64]) -> Result<WaitingLedger, utilbp_core::state::StateError> {
        let mut w = utilbp_core::state::StateWriter::new();
        words.iter().for_each(|&word| w.push(word));
        let mut r = utilbp_core::state::StateReader::new(w.bytes());
        let ledger = WaitingLedger::load_state(&mut r)?;
        r.finish().map(|()| ledger)
    }

    fn saved_words(l: &WaitingLedger) -> Vec<u64> {
        let mut w = utilbp_core::state::StateWriter::new();
        l.save_state(&mut w);
        w.bytes()
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("whole words")))
            .collect()
    }

    /// Where the slab's words start: after the statistics, `live` pairs
    /// from the end.
    fn slab_at(words: &[u64], live: usize) -> usize {
        words.len() - 2 - 2 * live
    }

    #[test]
    fn state_is_sparse_and_a_fixed_point() {
        let mut l = WaitingLedger::new();
        for i in 0..4 {
            l.enter(VehicleId::new(i), Tick::new(10 + i));
        }
        l.complete(VehicleId::new(0), Tick::new(50), 7);
        l.complete(VehicleId::new(2), Tick::new(60), 9);
        let words = saved_words(&l);
        // After the statistics: id bound, live count, then (slot, entry
        // tick) per live slot.
        assert_eq!(words[slab_at(&words, 2)..], [4, 2, 1, 11, 3, 13]);
        let back = load_all(&words).unwrap();
        assert_eq!(back.active(), 2);
        assert_eq!(saved_words(&back), words, "save -> load -> save");
    }

    #[test]
    fn sparse_ids_round_trip_and_a_long_slab_is_not_allocated() {
        // The last vehicle entered completed: the saved slab runs past
        // every live slot, and a restored one ends at the last of them.
        let mut l = WaitingLedger::new();
        for id in 0..10 {
            l.enter(VehicleId::new(id), Tick::new(id));
        }
        for id in [0, 3, 4, 5, 6, 7, 8, 9] {
            l.complete(VehicleId::new(id), Tick::new(20), 3);
        }
        let words = saved_words(&l);
        let at = slab_at(&words, 2);
        assert_eq!(words[at..], [10, 2, 1, 1, 2, 2]);
        let mut back = load_all(&words).unwrap();
        assert_eq!((back.id_bound(), back.active.len()), (10, 3));
        assert_eq!(saved_words(&back), words, "save -> load -> save");
        back.enter(VehicleId::new(10), Tick::new(21));
        l.enter(VehicleId::new(10), Tick::new(21));
        assert_eq!(saved_words(&back), saved_words(&l), "entering resumes");
        // A bound other than the vehicles seen is rejected before the
        // slab is sized, even with the last live slot raised under it.
        let mut long = words.clone();
        long[at] = 1 << 40;
        long[at + 4] = (1 << 40) - 1;
        assert_eq!(
            load_all(&long).map(|_| ()),
            Err(utilbp_core::state::StateError::Invalid {
                what: "ledger id bound",
                word: 1 << 40,
            })
        );
    }

    #[test]
    fn malformed_sparse_slabs_are_typed_errors() {
        use utilbp_core::state::StateError;
        let mut l = WaitingLedger::new();
        for i in 0..4 {
            l.enter(VehicleId::new(i), Tick::new(10 + i));
        }
        l.complete(VehicleId::new(0), Tick::new(50), 7);
        l.complete(VehicleId::new(2), Tick::new(60), 9);
        let words = saved_words(&l);
        let at = slab_at(&words, 2);
        let patched = |i: usize, word: u64| {
            let mut w = words.clone();
            w[at + i] = word;
            load_all(&w)
        };
        let invalid = |what, word| Err(StateError::Invalid { what, word });
        assert_eq!(
            patched(4, 4).map(|_| ()),
            invalid("ledger slot", 4),
            "outside the slab"
        );
        assert_eq!(
            patched(4, 1).map(|_| ()),
            invalid("ledger slot", 1),
            "duplicate slot"
        );
        assert_eq!(
            patched(2, 3).map(|_| ()),
            invalid("ledger slot", 3),
            "out of order"
        );
        assert_eq!(
            patched(1, 5).map(|_| ()),
            invalid("ledger live count", 5),
            "more live than pairs"
        );
        assert_eq!(
            patched(1, 1).map(|_| ()),
            invalid("ledger id bound", 4),
            "bound past the vehicles seen"
        );
        for cut in 0..words.len() {
            assert!(load_all(&words[..cut]).is_err(), "truncated to {cut}");
        }
    }

    #[test]
    fn vehicle_id_display() {
        assert_eq!(VehicleId::new(3).to_string(), "veh3");
    }

    #[test]
    fn histogram_tracks_completed_waits() {
        let mut l = WaitingLedger::new();
        for (i, wait) in [5u64, 15, 15, 700].into_iter().enumerate() {
            let v = VehicleId::new(i as u64);
            l.enter(v, Tick::ZERO);
            l.complete(v, Tick::new(1000), wait);
        }
        let h = l.waiting_histogram();
        assert_eq!(h.count(), 4);
        assert_eq!(h.overflow(), 1, "700 ticks exceeds the last bin");
        assert_eq!(h.percentile(50.0), Some(20.0));
    }
}
