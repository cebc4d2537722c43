//! Steady-state allocation bound for both substrates' `step_into` hot
//! paths. Lives in its own integration-test binary because the counting
//! allocator is process-global: any concurrently running test would
//! pollute the count.
//!
//! The step path is designed to be allocation-free at steady state: SoA
//! lanes and the vehicle arena recycle storage, observation/report
//! buffers are reused, waiting is accumulated in place, and backlog
//! entries move (the `Arc<Route>` is never re-cloned on requeue). The
//! only permitted residue is amortized slab growth (the waiting ledger
//! and arena grow to the peak fleet / largest vehicle id), which doubles
//! capacity and therefore vanishes relative to tick count.
//!
//! Periodic checkpoint capture is held to a byte budget instead: once
//! the retention ring is full, each capture reuses the buffer of the one
//! it evicts, so what it allocates is small against what it writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adaptive_backpressure::core::{SignalController, Tick, Ticks, UtilBp};
use adaptive_backpressure::microsim::{MicroSim, MicroSimConfig};
use adaptive_backpressure::netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are relaxed atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 600;
const MEASURED: u64 = 300;
/// Amortized slab/backlog growth allowance over the measured window —
/// far below one allocation per tick (a regression to per-tick
/// allocation costs hundreds).
const BUDGET: u64 = 40;

fn controllers(n: usize) -> Vec<Box<dyn SignalController>> {
    (0..n)
        .map(|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>)
        .collect()
}

#[test]
fn steady_state_stepping_stays_within_the_allocation_budget() {
    let g = GridNetwork::new(GridSpec::with_size(3, 3));
    let n = g.topology().num_intersections();

    // --- Microscopic substrate. ---
    let mut sim = MicroSim::new(
        g.topology().clone(),
        controllers(n),
        MicroSimConfig::default(),
    );
    let mut gen = DemandGenerator::new(
        &g,
        DemandConfig::new(DemandSchedule::constant(
            Pattern::II,
            Ticks::new(WARMUP + MEASURED),
        )),
        7,
    );
    let mut arrivals = Vec::new();
    let mut report = adaptive_backpressure::microsim::StepReport::empty();
    let mut k = 0u64;
    for _ in 0..WARMUP {
        arrivals.clear();
        gen.poll_into(&g, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report, None);
        k += 1;
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        arrivals.clear();
        gen.poll_into(&g, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report, None);
        k += 1;
    }
    let micro_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        sim.vehicles_in_network() > 50,
        "the run must carry real load"
    );
    assert!(
        micro_allocs <= BUDGET,
        "microsim: {micro_allocs} allocations over {MEASURED} steady-state ticks \
         (budget {BUDGET}) — a per-tick allocation crept back into the hot path"
    );

    // --- Queueing substrate. ---
    let mut sim = QueueSim::new(
        g.topology().clone(),
        controllers(n),
        QueueSimConfig::paper_exact(),
    );
    let mut gen = DemandGenerator::new(
        &g,
        DemandConfig::new(DemandSchedule::constant(
            Pattern::II,
            Ticks::new(WARMUP + MEASURED),
        )),
        7,
    );
    let mut report = adaptive_backpressure::queueing::StepReport::empty();
    let mut k = 0u64;
    for _ in 0..WARMUP {
        arrivals.clear();
        gen.poll_into(&g, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report, None);
        k += 1;
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        arrivals.clear();
        gen.poll_into(&g, Tick::new(k), &mut arrivals);
        sim.step_into(&mut arrivals, &mut report, None);
        k += 1;
    }
    let queueing_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(sim.total_served() > 0, "the run must carry real load");
    assert!(
        queueing_allocs <= BUDGET,
        "queueing: {queueing_allocs} allocations over {MEASURED} steady-state ticks \
         (budget {BUDGET}) — a per-tick allocation crept back into the hot path"
    );

    // --- Scenario engine with recording off. ---
    // The telemetry plane's zero-cost-when-off claim, measured: with the
    // `NullRecorder` explicitly installed (the emission sites are gated
    // on its cached `enabled()`), the engine's steady-state step adds no
    // allocations of its own on top of the substrate budget above.
    let mut spec = adaptive_backpressure::scenario::builtin("paper-grid").expect("builtin exists");
    spec.set_horizon(Ticks::new(WARMUP + MEASURED));
    let mut engine = adaptive_backpressure::scenario::ScenarioEngine::new(
        spec,
        adaptive_backpressure::scenario::EngineConfig::new(
            adaptive_backpressure::scenario::Backend::Queueing,
        ),
        &|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>,
    )
    .expect("spec validates");
    engine.set_recorder(Box::new(adaptive_backpressure::telemetry::NullRecorder));
    for _ in 0..WARMUP {
        engine.step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        engine.step();
    }
    let engine_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        engine.demand_generated() > 0,
        "the run must carry real load"
    );
    assert!(
        engine_allocs <= BUDGET,
        "engine+NullRecorder: {engine_allocs} allocations over {MEASURED} steady-state ticks \
         (budget {BUDGET}) — recording-off must stay allocation-free per tick"
    );

    // --- Scenario engine with periodic checkpoints and a full ring. ---
    // Each policy capture is written into the buffer of the capture it
    // evicts, so a steady-state capture allocates only the small side
    // buffers of encoding (the spec text, sorted id sets), well under a
    // tenth of the bytes it writes.
    const PERIOD: u64 = 10;
    let mut spec = adaptive_backpressure::scenario::builtin("paper-grid").expect("builtin exists");
    spec.set_horizon(Ticks::new(WARMUP + MEASURED));
    let mut engine = adaptive_backpressure::scenario::ScenarioEngine::new(
        spec,
        adaptive_backpressure::scenario::EngineConfig::new(
            adaptive_backpressure::scenario::Backend::Microscopic,
        ),
        &|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>,
    )
    .expect("spec validates");
    engine.enable_recording(4096);
    engine.enable_checkpoints(adaptive_backpressure::scenario::CheckpointPolicy::every(
        PERIOD,
    ));
    for _ in 0..WARMUP {
        engine.step();
    }
    assert_eq!(engine.checkpoints().len(), 4, "the ring is full");
    let mut captured = 0u64;
    let mut allocated = 0u64;
    for _ in 0..MEASURED {
        let capturing = engine.now().index().is_multiple_of(PERIOD);
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        engine.step();
        if capturing {
            allocated += ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
            captured += engine.latest_checkpoint().expect("captured").1.len() as u64;
        }
    }
    assert!(captured > 0, "the window must contain captures");
    assert!(
        allocated * 10 < captured,
        "policy captures allocated {allocated} B while writing {captured} B — \
         a capture must reuse the evicted buffer, not allocate its own"
    );
}
