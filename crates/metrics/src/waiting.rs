//! Per-vehicle queuing-time accounting.
//!
//! The paper's headline metric is the **average queuing time of a vehicle**
//! over the whole network (Fig. 2, Table III). A [`WaitingLedger`] keeps
//! the completed-run statistics and counts the vehicles that entered; the
//! live vehicles themselves belong to the simulator, each carrying its
//! entry tick and its wait accumulator on its own record, and each
//! vehicle is flushed into the ledger once, at journey completion, via
//! [`WaitingLedger::complete`]. Queries that must count vehicles still in
//! the network — [`WaitingLedger::mean_waiting_including_active`] — fold
//! the live accumulators in at query time, so the per-tick step path
//! never touches the ledger for waiting vehicles.

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

/// Completed-run waiting and journey statistics, plus the number of
/// vehicles that entered.
///
/// The ledger keeps no per-vehicle state: each live vehicle carries its
/// own entry tick and wait accumulator on the simulator's vehicle record
/// and hands both over at [`complete`](Self::complete) time, so entering
/// and completing are O(1) updates of a few totals and nothing in the
/// per-tick hot path writes here. The entered count is also the next
/// vehicle id, since the demand generators issue ids densely from 0.
///
/// # Examples
///
/// ```
/// use utilbp_core::Tick;
/// use utilbp_metrics::WaitingLedger;
///
/// let mut ledger = WaitingLedger::new();
/// ledger.enter();
/// assert_eq!(ledger.active(), 1);
/// ledger.complete(Tick::new(10), Tick::new(40), 5);
/// assert_eq!(ledger.completed(), 1);
/// assert_eq!(ledger.waiting_stats().mean(), 5.0);
/// assert_eq!(ledger.journey_stats().mean(), 30.0);
/// ```
#[derive(Debug, Clone)]
pub struct WaitingLedger {
    /// Vehicles that entered the network, backlogged ones included.
    entered: u64,
    waiting: SummaryStats,
    journey: SummaryStats,
    /// Waiting-time distribution over completed vehicles (10-tick bins
    /// up to 600 ticks, then overflow). Captures carry it; nothing in the
    /// program reads it.
    histogram: Histogram,
}

impl Default for WaitingLedger {
    fn default() -> Self {
        WaitingLedger {
            entered: 0,
            waiting: SummaryStats::new(),
            journey: SummaryStats::new(),
            histogram: Histogram::new(WAIT_HISTOGRAM_BIN, WAIT_HISTOGRAM_BINS),
        }
    }
}

impl WaitingLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        WaitingLedger::default()
    }

    /// Counts a vehicle entering the network (or queueing outside a full
    /// entry).
    pub fn enter(&mut self) {
        self.entered += 1;
    }

    /// Completes the journey of a vehicle that entered at `entered`,
    /// folding its journey time up to `now` and its externally
    /// accumulated `waited` ticks into the run statistics.
    pub fn complete(&mut self, entered: Tick, now: Tick, waited: u64) {
        self.waiting.record(waited as f64);
        self.histogram.record(waited as f64);
        self.journey
            .record(now.saturating_since(entered).count() as f64);
    }

    /// Number of vehicles that completed their journey.
    pub fn completed(&self) -> u64 {
        self.waiting.count()
    }

    /// Number of vehicles that entered: the next vehicle id, since ids
    /// are issued densely from 0.
    pub fn entered(&self) -> u64 {
        self.entered
    }

    /// Number of vehicles still in the network: entered minus completed.
    pub fn active(&self) -> usize {
        self.entered.saturating_sub(self.completed()) as usize
    }

    /// Restore's conservation check: the vehicles the ledger counts as
    /// live must be the `fleet` a restored plant holds, on its roads and
    /// in its backlogs.
    ///
    /// # Errors
    ///
    /// [`StateError::Invalid`](utilbp_core::state::StateError::Invalid)
    /// `"ledger live count"`, with the entered count as its word.
    pub fn check_live(&self, fleet: usize) -> Result<(), utilbp_core::state::StateError> {
        if self.active() == fleet {
            Ok(())
        } else {
            Err(utilbp_core::state::StateError::Invalid {
                what: "ledger live count",
                word: self.entered,
            })
        }
    }

    /// Waiting-time statistics over completed vehicles (ticks).
    pub fn waiting_stats(&self) -> SummaryStats {
        self.waiting
    }

    /// Journey-time statistics over completed vehicles (ticks).
    pub fn journey_stats(&self) -> SummaryStats {
        self.journey
    }

    /// Appends the ledger to a checkpoint stream: the completed-run
    /// statistics, then the entered count.
    pub fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        self.waiting.save_state(writer);
        self.journey.save_state(writer);
        self.histogram.save_state(writer);
        writer.push(self.entered);
    }

    /// Reads a ledger written by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`StateError`](utilbp_core::state::StateError) when the stream
    /// is truncated or malformed, or when fewer vehicles entered than
    /// completed (`"ledger live count"`). Whether the live count matches
    /// the fleet is the restoring plant's [`check_live`](Self::check_live).
    pub fn load_state(
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<Self, utilbp_core::state::StateError> {
        let waiting = SummaryStats::load_state(reader)?;
        let journey = SummaryStats::load_state(reader)?;
        let histogram = Histogram::load_state(reader)?;
        let entered = reader.take_count("ledger entered count")?;
        if entered < waiting.count() {
            return Err(utilbp_core::state::StateError::Invalid {
                what: "ledger live count",
                word: entered,
            });
        }
        Ok(WaitingLedger {
            entered,
            waiting,
            journey,
            histogram,
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
            active_n as usize,
            self.active(),
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
        l.enter();
        l.enter();
        assert_eq!((l.entered(), l.active()), (2, 2));

        l.complete(Tick::new(0), Tick::new(50), 10);
        assert_eq!(l.completed(), 1);
        assert_eq!(l.active(), 1);
        assert_eq!(l.journey_stats().mean(), 50.0);

        l.complete(Tick::new(5), Tick::new(25), 4);
        assert_eq!(l.waiting_stats().mean(), 7.0);
        assert_eq!(l.journey_stats().mean(), 35.0);
        assert_eq!((l.entered(), l.active()), (2, 0));
    }

    #[test]
    fn active_vehicles_count_toward_snapshot_mean() {
        let mut l = WaitingLedger::new();
        l.enter();
        l.enter();
        l.complete(Tick::new(0), Tick::new(20), 10);
        // The other vehicle is still stuck in the network with 30
        // accumulated ticks.
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

    #[test]
    fn state_is_the_statistics_and_the_entered_count() {
        use utilbp_core::state::StateError;
        let mut l = WaitingLedger::new();
        (0..4).for_each(|_| l.enter());
        l.complete(Tick::new(10), Tick::new(50), 7);
        l.complete(Tick::new(12), Tick::new(60), 9);
        let mut words = saved_words(&l);
        assert_eq!(
            words.last(),
            Some(&4),
            "the entered count closes the section"
        );
        let back = load_all(&words).unwrap();
        assert_eq!((back.entered(), back.active()), (4, 2));
        assert!(back.check_live(2).is_ok() && back.check_live(3).is_err());
        assert_eq!(saved_words(&back), words, "save -> load -> save");
        // Fewer vehicles entered than completed is no live count at all.
        *words.last_mut().unwrap() = 1;
        assert_eq!(
            load_all(&words).map(|_| ()),
            Err(StateError::Invalid {
                what: "ledger live count",
                word: 1,
            })
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
        for wait in [5u64, 15, 15, 700] {
            l.enter();
            l.complete(Tick::ZERO, Tick::new(1000), wait);
        }
        let h = &l.histogram;
        assert_eq!(h.count(), 4);
        assert_eq!(h.overflow(), 1, "700 ticks exceeds the last bin");
        assert_eq!(h.percentile(50.0), Some(20.0));
    }
}
