//! Watch UTIL-BP adapt: a demand surge arrives on one approach and the
//! controller stretches that phase, then snaps back once the surge
//! clears — the varying-length control phases of the paper's Algorithm 1.
//!
//! The same surge is also run under fixed-length CAP-BP for contrast.
//!
//! ```sh
//! cargo run --example adaptive_phases
//! ```

use adaptive_backpressure::baselines::CapBp;
use adaptive_backpressure::core::standard::{self, Approach, Turn};
use adaptive_backpressure::core::{
    IntersectionView, PhaseDecision, QueueObservation, SignalController, Tick, Ticks, UtilBp,
};
use adaptive_backpressure::metrics::PhaseTrace;

/// Replays a scripted queue scenario against a controller and records the
/// phase trace. The script: balanced light traffic, then a 40-vehicle
/// surge on the east-straight movement at t = 60 s that drains at the
/// service rate while green.
fn replay(controller: &mut dyn SignalController) -> PhaseTrace {
    let layout = standard::four_way(120, 1.0);
    let mut obs = QueueObservation::zeros(&layout);
    let east_straight = standard::link_id(Approach::East, Turn::Straight);
    let north_straight = standard::link_id(Approach::North, Turn::Straight);

    // Light background queues.
    obs.set_movement(north_straight, 3);
    obs.set_movement(standard::link_id(Approach::South, Turn::Straight), 2);
    obs.set_movement(east_straight, 2);

    let mut trace = PhaseTrace::new(controller.name());
    for k in 0..240u64 {
        if k == 60 {
            // The surge hits.
            obs.set_movement(east_straight, 40);
        }
        let view = IntersectionView::new(&layout, &obs).expect("same layout");
        let decision = controller.decide(&view, Tick::new(k));
        trace.record(Tick::new(k), decision);

        // Toy plant: a green movement drains at µ = 1 vehicle per second;
        // the background approaches trickle-refill every 15 s.
        if let PhaseDecision::Control(phase) = decision {
            for &link in layout.phase(phase) {
                let q = obs.movement(link);
                obs.set_movement(link, q.saturating_sub(1));
            }
        }
        if k % 15 == 0 {
            let q = obs.movement(north_straight);
            obs.set_movement(north_straight, q + 1);
        }
    }
    trace
}

fn summarize(trace: &PhaseTrace) {
    println!("controller: {}", trace.name());
    let values = trace.expand();
    let line: String = values
        .chunks(2)
        .map(|c| char::from_digit(c[0] as u32, 10).unwrap_or('?'))
        .collect();
    println!("  {line}");
    println!(
        "  switches: {} | ambers: {} | green on c3 (east-west): {} s",
        trace.num_switches(),
        trace.num_transitions(),
        trace.time_at(3).count(),
    );
    let dwells = trace.run_lengths(3);
    let longest = dwells.iter().map(|d| d.count()).max().unwrap_or(0);
    println!("  longest single c3 green: {longest} s\n");
}

fn main() {
    println!("— adaptive phases: 40-vehicle surge on the east approach at t=60 s —\n");
    println!("(digits are the applied phase per 2 s; 0 = amber)\n");

    let mut util = UtilBp::paper();
    let util_trace = replay(&mut util);
    summarize(&util_trace);

    let mut cap = CapBp::new(Ticks::new(16));
    let cap_trace = replay(&mut cap);
    summarize(&cap_trace);

    println!(
        "UTIL-BP holds the surge phase until the pressure difference clears; \
         CAP-BP must slice the same work into fixed 16 s slots, paying an \
         amber after every slice."
    );
}
