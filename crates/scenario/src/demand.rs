//! Demand generation over arbitrary [`Network`]s with time-varying rates,
//! surge events, and closure-aware route choice.
//!
//! [`NetworkDemand`] is the topology-agnostic sibling of
//! [`utilbp_netgen::DemandGenerator`]: one exponential clock per boundary
//! entry, base rates from the network's [`NetEntry`]s, a piecewise-constant
//! [`RateSchedule`] multiplier on top, plus a runtime surge multiplier the
//! scenario engine drives from the event timeline. Routes are sampled from
//! each entry's precomputed weighted [`RouteOption`]s — sampling clones an
//! `Arc`, so injection is allocation-free — and options through closed
//! roads are excluded (re-normalizing the remaining weights), which is how
//! new traffic *reroutes around* a closure. A vehicle whose every route is
//! blocked (e.g. its entry road itself is closed) is suppressed and
//! counted, modeling drivers who never enter the closed area.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use utilbp_core::Tick;
use utilbp_metrics::VehicleId;
use utilbp_netgen::{Arrival, Network, RoadId};

use crate::spec::RateSchedule;

/// Seeded, deterministic, closure-aware arrival generator over a
/// [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkDemand {
    schedule: RateSchedule,
    dt_seconds: f64,
    /// Absolute time (seconds) of the next arrival per entry.
    clocks: Vec<f64>,
    /// Base mean inter-arrival seconds per entry.
    base_mean_s: Vec<f64>,
    /// Runtime surge multiplier (scenario events), on top of the schedule.
    surge: f64,
    /// Closure mask per road.
    closed: Vec<bool>,
    /// Per entry: cumulative weights over the *open* options under the
    /// current closure mask, paired with the option index — rebuilt once
    /// per closure-mask change and cached, so sampling is a binary search
    /// instead of a linear scan of the option list (ring networks with
    /// many spokes have dozens of options per entry).
    cum: Vec<Vec<(f64, u32)>>,
    /// Per entry: total weight of open options (0 = entry fully blocked).
    /// Always the last cumulative weight, kept separate for the O(1)
    /// blocked-entry check.
    open_weight: Vec<f64>,
    rng: SmallRng,
    next_vehicle: u64,
    suppressed: u64,
}

impl NetworkDemand {
    /// Creates a generator for `network`'s entries. The same
    /// `(network, schedule, seed)` triple always produces the same
    /// arrival stream.
    ///
    /// # Panics
    ///
    /// Panics if `dt_seconds` is not strictly positive and finite.
    pub fn new(network: &Network, schedule: RateSchedule, dt_seconds: f64, seed: u64) -> Self {
        assert!(
            dt_seconds.is_finite() && dt_seconds > 0.0,
            "dt_seconds must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let m0 = schedule.multiplier_at(Tick::ZERO);
        let base_mean_s: Vec<f64> = network
            .entries()
            .iter()
            .map(|e| e.base_inter_arrival_s)
            .collect();
        let clocks = base_mean_s
            .iter()
            .map(|&mean| exponential(&mut rng, mean / m0))
            .collect();
        let mut demand = NetworkDemand {
            schedule,
            dt_seconds,
            clocks,
            base_mean_s,
            surge: 1.0,
            closed: vec![false; network.topology().num_roads()],
            cum: vec![Vec::new(); network.num_entries()],
            open_weight: vec![0.0; network.num_entries()],
            rng,
            next_vehicle: 0,
            suppressed: 0,
        };
        demand.rebuild_open_tables(network);
        demand
    }

    /// Rebuilds every entry's cumulative-weight table for the current
    /// closure mask (the weights accumulate in option order, exactly as
    /// the former linear scan did, so sampled choices are unchanged).
    fn rebuild_open_tables(&mut self, network: &Network) {
        for i in 0..network.num_entries() {
            let table = &mut self.cum[i];
            table.clear();
            let mut acc = 0.0;
            for (j, opt) in network.route_options(i).iter().enumerate() {
                if opt.roads.iter().any(|r| self.closed[r.index()]) {
                    continue;
                }
                acc += opt.weight;
                table.push((acc, j as u32));
            }
            self.open_weight[i] = acc;
        }
    }

    /// Vehicles generated so far.
    pub(crate) fn generated(&self) -> u64 {
        self.next_vehicle
    }

    /// Would-be arrivals suppressed because every route was blocked by
    /// closures.
    pub(crate) fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Sets the runtime surge multiplier (1.0 = no surge).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn set_surge(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "surge factor must be positive"
        );
        self.surge = factor;
    }

    /// The current surge multiplier.
    pub(crate) fn surge(&self) -> f64 {
        self.surge
    }

    /// Marks a road closed/open for *route choice*: options traversing a
    /// closed road are excluded from sampling. (The simulator's own
    /// closure state is separate; the engine keeps both in sync.)
    ///
    /// # Panics
    ///
    /// Panics if `road` is out of range for the network.
    pub fn set_road_closed(&mut self, network: &Network, road: RoadId, closed: bool) {
        self.closed[road.index()] = closed;
        self.rebuild_open_tables(network);
    }

    /// Appends the arrivals of mini-slot `[tick, tick+1)` to `arrivals`
    /// (typically a cleared, reused buffer). Must be called with
    /// non-decreasing ticks.
    pub fn poll_into(&mut self, network: &Network, tick: Tick, arrivals: &mut Vec<Arrival>) {
        let window_end = (tick.index() + 1) as f64 * self.dt_seconds;
        let mult = self.schedule.multiplier_at(tick) * self.surge;
        for i in 0..self.clocks.len() {
            let mean = self.base_mean_s[i] / mult;
            while self.clocks[i] < window_end {
                if self.open_weight[i] > 0.0 {
                    let route = self.sample_route(network, i);
                    let vehicle = VehicleId::new(self.next_vehicle);
                    self.next_vehicle += 1;
                    arrivals.push(Arrival {
                        vehicle,
                        tick,
                        route,
                    });
                } else {
                    // Entry unreachable under the closure mask: the
                    // driver never enters (no route draw, so the RNG
                    // stream depends only on arrival times).
                    self.suppressed += 1;
                }
                let gap = exponential(&mut self.rng, mean);
                self.clocks[i] += gap;
            }
        }
    }

    /// Samples an open route of entry `i` by weight: one uniform draw,
    /// one binary search over the cached cumulative table.
    fn sample_route(
        &mut self,
        network: &Network,
        i: usize,
    ) -> std::sync::Arc<utilbp_netgen::Route> {
        let u: f64 = self.rng.gen::<f64>() * self.open_weight[i];
        let j = self.pick_option(i, u);
        std::sync::Arc::clone(&network.route_options(i)[j].route)
    }

    /// Serializes the generator's dynamic state — per-entry arrival
    /// clocks, the surge multiplier, the closure mask, the RNG stream
    /// position, and the suppression counter — into a durable word
    /// stream. The cached cumulative-weight tables are derived from the
    /// closure mask and are rebuilt on load; the next vehicle id is the
    /// plant ledger's entered count, which load takes from there.
    pub(crate) fn save_state(&self, writer: &mut utilbp_core::state::StateWriter) {
        writer.push_usize(self.clocks.len());
        for &clock in &self.clocks {
            writer.push_f64(clock);
        }
        writer.push_f64(self.surge);
        writer.push_usize(self.closed.len());
        for &closed in &self.closed {
            writer.push_bool(closed);
        }
        for &word in &self.rng.state() {
            writer.push(word);
        }
        writer.push(self.suppressed);
    }

    /// Restores the state written by [`save_state`](Self::save_state)
    /// into a generator built over the *same* network and schedule; the
    /// restored generator continues the arrival stream bit-identically
    /// from tick `now`, the next tick to be polled, issuing ids from
    /// `next_vehicle` on (every vehicle issued so far entered the plant,
    /// so that is the ledger's entered count).
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`](utilbp_core::state::StateError) on a
    /// truncated stream, an entry/road count that does not match this
    /// generator's network, or an arrival clock that is not finite or
    /// lies before `now` (every poll leaves each clock at or past the end
    /// of its window, and a far-past clock would make the next poll
    /// generate arrivals without bound).
    pub(crate) fn load_state(
        &mut self,
        network: &Network,
        now: Tick,
        next_vehicle: u64,
        reader: &mut utilbp_core::state::StateReader<'_>,
    ) -> Result<(), utilbp_core::state::StateError> {
        use utilbp_core::state::StateError;
        let entries = reader.take_usize()?;
        if entries != self.clocks.len() {
            return Err(StateError::Invalid {
                what: "demand entry count",
                word: entries as u64,
            });
        }
        let polled_until = now.index() as f64 * self.dt_seconds;
        for clock in &mut self.clocks {
            *clock = reader.take_f64()?;
            if !(clock.is_finite() && *clock >= polled_until) {
                return Err(StateError::Invalid {
                    what: "demand arrival clock",
                    word: clock.to_bits(),
                });
            }
        }
        self.surge = reader.take_f64()?;
        let roads = reader.take_usize()?;
        if roads != self.closed.len() {
            return Err(StateError::Invalid {
                what: "demand road count",
                word: roads as u64,
            });
        }
        for closed in &mut self.closed {
            *closed = reader.take_bool()?;
        }
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = reader.take()?;
        }
        self.rng = SmallRng::from_state(state);
        self.next_vehicle = next_vehicle;
        self.suppressed = reader.take_count("suppressed arrival count")?;
        self.rebuild_open_tables(network);
        Ok(())
    }

    /// The option index whose cumulative-weight interval contains `u`
    /// (the first open option with `u < cum`; the last open option for
    /// the floating-point edge `u ≥ total`, matching the linear scan this
    /// replaced).
    fn pick_option(&self, i: usize, u: f64) -> usize {
        let table = &self.cum[i];
        debug_assert!(!table.is_empty(), "open_weight > 0 implies an open option");
        let k = table.partition_point(|&(c, _)| c <= u).min(table.len() - 1);
        table[k].1 as usize
    }
}

/// Inverse-transform sample of an exponential with the given mean.
fn exponential(rng: &mut SmallRng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DemandProfile, RateSchedule};
    use utilbp_core::Ticks;
    use utilbp_netgen::{GridNetwork, GridSpec, Pattern};

    fn network() -> Network {
        Network::from_grid(&GridNetwork::new(GridSpec::paper()), Pattern::II)
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let net = network();
        let mut a = NetworkDemand::new(&net, RateSchedule::flat(), 1.0, 9);
        let mut b = NetworkDemand::new(&net, RateSchedule::flat(), 1.0, 9);
        let mut buf_a = Vec::new();
        let mut buf_b = Vec::new();
        for k in 0..200 {
            buf_a.clear();
            buf_b.clear();
            a.poll_into(&net, Tick::new(k), &mut buf_a);
            b.poll_into(&net, Tick::new(k), &mut buf_b);
            assert_eq!(buf_a, buf_b, "k={k}");
        }
        assert!(a.generated() > 0);
    }

    #[test]
    fn rates_follow_the_schedule() {
        let net = network();
        // 3× multiplier in the second half.
        let schedule =
            RateSchedule::from_segments(vec![(Ticks::new(3000), 1.0), (Ticks::new(3000), 3.0)]);
        let mut demand = NetworkDemand::new(&net, schedule, 1.0, 4);
        let mut halves = [0usize; 2];
        let mut buf = Vec::new();
        for k in 0..6000u64 {
            buf.clear();
            demand.poll_into(&net, Tick::new(k), &mut buf);
            halves[(k / 3000) as usize] += buf.len();
        }
        let ratio = halves[1] as f64 / halves[0] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.4,
            "3x multiplier must triple arrivals, got {ratio} ({halves:?})"
        );
    }

    #[test]
    fn surge_multiplies_on_top() {
        let net = network();
        let mut demand = NetworkDemand::new(&net, RateSchedule::flat(), 1.0, 5);
        let mut buf = Vec::new();
        let mut base = 0usize;
        for k in 0..2000u64 {
            buf.clear();
            demand.poll_into(&net, Tick::new(k), &mut buf);
            base += buf.len();
        }
        demand.set_surge(4.0);
        assert_eq!(demand.surge(), 4.0);
        let mut surged = 0usize;
        for k in 2000..4000u64 {
            buf.clear();
            demand.poll_into(&net, Tick::new(k), &mut buf);
            surged += buf.len();
        }
        assert!(
            surged as f64 > base as f64 * 2.5,
            "surge must amplify arrivals: {base} -> {surged}"
        );
    }

    #[test]
    fn closures_reroute_and_entry_closure_suppresses() {
        let net = network();
        let mut demand = NetworkDemand::new(&net, RateSchedule::flat(), 1.0, 6);
        // Close an internal road: every sampled route must avoid it.
        let internal = net
            .topology()
            .road_ids()
            .find(|&r| net.topology().road(r).is_internal())
            .unwrap();
        demand.set_road_closed(&net, internal, true);
        let mut buf = Vec::new();
        for k in 0..600u64 {
            buf.clear();
            demand.poll_into(&net, Tick::new(k), &mut buf);
            for a in &buf {
                let entry_idx = net
                    .entries()
                    .iter()
                    .position(|e| e.road == a.route.entry())
                    .unwrap();
                let opt = net
                    .route_options(entry_idx)
                    .iter()
                    .find(|o| o.route == a.route)
                    .expect("sampled routes come from the option table");
                assert!(
                    !opt.roads.contains(&internal),
                    "routes must avoid the closed road"
                );
            }
        }
        assert_eq!(demand.suppressed(), 0, "alternatives keep every entry open");
        // Close an entry road: its arrivals are suppressed.
        let entry_road = net.entries()[0].road;
        demand.set_road_closed(&net, entry_road, true);
        for k in 600..1200u64 {
            buf.clear();
            demand.poll_into(&net, Tick::new(k), &mut buf);
            assert!(buf.iter().all(|a| a.route.entry() != entry_road));
        }
        assert!(demand.suppressed() > 0, "closed entry turns drivers away");
        // Reopen: arrivals resume there.
        demand.set_road_closed(&net, entry_road, false);
        demand.set_road_closed(&net, internal, false);
        let mut reopened = false;
        for k in 1200..2400u64 {
            buf.clear();
            demand.poll_into(&net, Tick::new(k), &mut buf);
            reopened |= buf.iter().any(|a| a.route.entry() == entry_road);
        }
        assert!(reopened);
    }

    #[test]
    fn binary_search_sampling_matches_the_linear_scan() {
        use utilbp_netgen::RingSpec;
        let net = RingSpec::default().build();
        let mut demand = NetworkDemand::new(&net, RateSchedule::flat(), 1.0, 3);
        // Reference: the linear scan the cumulative table replaced.
        let linear_pick = |demand: &NetworkDemand, i: usize, u: f64| -> usize {
            let mut acc = 0.0;
            let mut chosen = None;
            for (j, opt) in net.route_options(i).iter().enumerate() {
                if opt.roads.iter().any(|r| demand.closed[r.index()]) {
                    continue;
                }
                acc += opt.weight;
                chosen = Some(j);
                if u < acc {
                    break;
                }
            }
            chosen.expect("an open option exists")
        };
        let closable: Vec<RoadId> = net
            .topology()
            .road_ids()
            .filter(|&r| net.topology().road(r).is_internal())
            .take(2)
            .collect();
        for mask in 0..4u32 {
            for (b, &road) in closable.iter().enumerate() {
                demand.set_road_closed(&net, road, mask & (1 << b) != 0);
            }
            for i in 0..net.num_entries() {
                let total = demand.open_weight[i];
                if total == 0.0 {
                    continue;
                }
                // Sweep the whole weight range including both edges.
                for step in 0..=400 {
                    let u = total * step as f64 / 400.0;
                    assert_eq!(
                        demand.pick_option(i, u),
                        linear_pick(&demand, i, u),
                        "mask {mask}, entry {i}, u {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_stream_matches_pre_table_golden() {
        // Golden captured from the linear-scan implementation on this
        // exact run (ring network, seed 13, closures toggled mid-run,
        // entry closure exercising suppression): the cached
        // cumulative-weight tables must reproduce the identical arrival
        // stream.
        use utilbp_netgen::RingSpec;
        let ring = RingSpec::default().build();
        let mut nd = NetworkDemand::new(&ring, RateSchedule::flat(), 1.0, 13);
        let mut buf = Vec::new();
        let mut checksum = 0u64;
        let closable: Vec<RoadId> = ring
            .topology()
            .road_ids()
            .filter(|&r| ring.topology().road(r).is_internal())
            .take(3)
            .collect();
        for k in 0..1200u64 {
            if k == 300 {
                nd.set_road_closed(&ring, closable[0], true);
            }
            if k == 500 {
                nd.set_road_closed(&ring, closable[1], true);
                nd.set_road_closed(&ring, closable[2], true);
            }
            if k == 800 {
                nd.set_road_closed(&ring, closable[0], false);
            }
            if k == 900 {
                nd.set_road_closed(&ring, ring.entries()[0].road, true);
            }
            if k == 1050 {
                nd.set_road_closed(&ring, ring.entries()[0].road, false);
            }
            buf.clear();
            nd.poll_into(&ring, Tick::new(k), &mut buf);
            for a in &buf {
                checksum = checksum
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(a.route.entry().index() as u64)
                    .wrapping_mul(0x100000001B3)
                    .wrapping_add(a.route.len() as u64)
                    .wrapping_add(a.vehicle.raw());
            }
        }
        assert_eq!(nd.generated(), 1690);
        assert_eq!(nd.suppressed(), 15);
        assert_eq!(checksum, 0xbc31026d473e5e5c);
    }

    #[test]
    fn profile_schedules_plug_in() {
        let net = network();
        let schedule = DemandProfile::Pulse {
            from: 100,
            len: 100,
            factor: 5.0,
        }
        .schedule(Ticks::new(400));
        let mut demand = NetworkDemand::new(&net, schedule, 1.0, 11);
        let mut counts = [0usize; 4];
        let mut buf = Vec::new();
        for k in 0..400u64 {
            buf.clear();
            demand.poll_into(&net, Tick::new(k), &mut buf);
            counts[(k / 100) as usize] += buf.len();
        }
        assert!(
            counts[1] as f64 > counts[0] as f64 * 2.0,
            "pulse window must spike: {counts:?}"
        );
        assert!(
            counts[3] < counts[1],
            "post-pulse demand falls back: {counts:?}"
        );
    }
}
