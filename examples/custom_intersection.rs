//! The model is not hard-wired to the paper's four-way junction: build a
//! custom T-intersection (three arms, no left turn from the minor road),
//! wire it into a network by hand, and control it with UTIL-BP.
//!
//! ```sh
//! cargo run --example custom_intersection
//! ```

use adaptive_backpressure::core::{IntersectionLayout, SignalController, Tick, UtilBp};
use adaptive_backpressure::metrics::VehicleId;
use adaptive_backpressure::netgen::{Arrival, IntersectionId, NetworkTopology, Road, Route};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};

fn main() {
    // ── 1. The junction ────────────────────────────────────────────────
    // A T-junction: a west–east major road meets a stub from the south.
    //   incoming: 0 = from west, 1 = from east, 2 = from south
    //   outgoing: 0 = to west,   1 = to east,   2 = to south
    let mut b = IntersectionLayout::builder();
    let from_west = b.add_incoming();
    let from_east = b.add_incoming();
    let from_south = b.add_incoming();
    let to_west = b.add_outgoing(60);
    let to_east = b.add_outgoing(60);
    let to_south = b.add_outgoing(40);

    // Feasible movements (no U-turns; minor road may only turn).
    let we = b.add_link(from_west, to_east, 1.0); // major straight →
    let ws = b.add_link(from_west, to_south, 0.5); // major right turn
    let ew = b.add_link(from_east, to_west, 1.0); // major straight ←
    let es = b.add_link(from_east, to_south, 0.5); // major left turn
    let sw = b.add_link(from_south, to_west, 0.5); // minor left
    let se = b.add_link(from_south, to_east, 0.5); // minor right

    // Two phases: major road flows, or the minor stub clears.
    let major = b.add_phase(&[we, ws, ew, es]);
    let minor = b.add_phase(&[sw, se]);
    let layout = b.build().expect("T-junction layout is consistent");
    println!(
        "T-junction: {} movements, {} phases (major={major}, minor={minor})",
        layout.num_links(),
        layout.num_phases(),
    );

    // ── 2. The network ─────────────────────────────────────────────────
    // One intersection, an entry and an exit road per arm.
    let iid = IntersectionId::new(0);
    let mut net = NetworkTopology::builder();
    let mut entries = Vec::new();
    for arm in [from_west, from_east, from_south] {
        entries.push(net.add_road(Road::new(None, Some((iid, arm)), 200.0, 60)));
    }
    for (arm, capacity) in [(to_west, 60), (to_east, 60), (to_south, 40)] {
        net.add_road(Road::new(Some((iid, arm)), None, 200.0, capacity));
    }
    net.add_intersection(layout, entries.clone(), {
        // Outgoing roads were added after the three entries, ids 3..6.
        (3..6)
            .map(adaptive_backpressure::netgen::RoadId::new)
            .collect()
    });
    let topology = net.build().expect("hand-wired topology validates");

    // ── 3. Drive it ────────────────────────────────────────────────────
    let controllers: Vec<Box<dyn SignalController>> = vec![Box::new(UtilBp::paper())];
    let mut sim = QueueSim::new(topology, controllers, QueueSimConfig::paper_exact());

    // Deterministic demand: the major road streams both ways; every 9 s a
    // vehicle pops out of the minor stub.
    let mut next_id = 0u64;
    let mut arrival = |entry: usize, link| {
        let id = VehicleId::new(next_id);
        next_id += 1;
        Arrival {
            vehicle: id,
            tick: Tick::ZERO, // informational; the sim uses the step clock
            route: std::sync::Arc::new(Route::new(entries[entry], vec![(iid, link)])),
        }
    };

    for k in 0..600u64 {
        let mut batch = Vec::new();
        if k % 3 == 0 {
            batch.push(arrival(0, we)); // west → east
        }
        if k % 4 == 0 {
            batch.push(arrival(1, ew)); // east → west
        }
        if k % 9 == 0 {
            batch.push(arrival(2, if k % 18 == 0 { sw } else { se }));
        }
        sim.step(batch);
    }

    let ledger = sim.ledger();
    println!("vehicles injected  : {next_id}");
    println!("journeys completed : {}", ledger.completed());
    println!(
        "avg queuing time   : {:.1} s",
        sim.mean_waiting_including_active()
    );
    println!(
        "minor-road service : UTIL-BP interleaves the stub's phase whenever \
         its queue pressure wins — no fixed cycle needed"
    );
}
