//! Steady-state allocation bound for both substrates' `step_into` hot
//! paths. Lives in its own integration-test binary because the counting
//! allocator is process-global: any concurrently running test would
//! pollute the count.
//!
//! The step path is designed to be allocation-free at steady state: SoA
//! lanes and the vehicle arena recycle storage, observation/report
//! buffers are reused, waiting is accumulated in place, and backlog
//! entries move (the `Arc<Route>` is never re-cloned on requeue). The
//! only permitted residue is amortized growth (the arena and the
//! backlogs grow to the peak fleet), which doubles capacity and therefore
//! vanishes relative to tick count.
//!
//! Periodic checkpoint capture is held to a byte budget instead: once
//! the retention ring is full, each capture reuses the buffer of the one
//! it evicts, so what it allocates is small against what it writes.
//!
//! Setup is held to an allocation count: building a 20×20 network and
//! its engine allocates a fixed number of blocks per junction and road,
//! and that number is pinned. The tests take one lock, so no count sees
//! another test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use adaptive_backpressure::core::{SignalController, Tick, Ticks, UtilBp};
use adaptive_backpressure::microsim::{MicroSim, MicroSimConfig};
use adaptive_backpressure::netgen::{
    DemandConfig, DemandGenerator, DemandSchedule, GridNetwork, GridSpec, Pattern,
};
use adaptive_backpressure::queueing::{QueueSim, QueueSimConfig};
use adaptive_backpressure::substrate::{StepReport, TrafficSubstrate};

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

/// Held by every test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

const WARMUP: u64 = 600;
const MEASURED: u64 = 300;
/// Amortized arena/backlog growth allowance over the measured window —
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    let mut report = StepReport::empty();
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
    let mut report = StepReport::empty();
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
    // The telemetry plane's zero-cost-when-off claim, measured: the
    // default engine has no recorder (every emission site tests for
    // one before building an event), and its steady-state step adds no
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
    assert!(engine.recorder().is_none(), "recording is off by default");
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
        "engine, recording off: {engine_allocs} allocations over {MEASURED} steady-state ticks \
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

/// Allocations per junction allowed while building a 20×20 network
/// and its queueing engine. The build makes about 44: each junction's
/// layout is four blocks (capacities, link records, one shared
/// link-list array and its bounds), and no road or junction carries a
/// formatted name. A nested layout (a vector per phase and per
/// approach) with a name string per road and junction made about 72.
const SETUP_ALLOCATIONS_PER_JUNCTION: u64 = 50;

#[test]
fn building_a_20x20_network_and_engine_stays_within_its_allocation_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let text = "scenario setup-count\nseed 1\nhorizon 1000\n\
                topology asym-grid rows=20 cols=20\ndemand constant\n";
    let spec = adaptive_backpressure::scenario::parse_scenario(text).expect("scenario parses");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let engine = adaptive_backpressure::scenario::ScenarioEngine::new(
        spec,
        adaptive_backpressure::scenario::EngineConfig::new(
            adaptive_backpressure::scenario::Backend::Queueing,
        ),
        &|_| Box::new(UtilBp::paper()) as Box<dyn SignalController>,
    )
    .expect("spec validates");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(engine.demand_generated(), 0, "nothing stepped yet");
    let budget = SETUP_ALLOCATIONS_PER_JUNCTION * 400;
    assert!(
        allocations <= budget,
        "building a 20×20 network and engine made {allocations} allocations \
         (budget {budget}): a per-junction or per-road allocation crept into setup"
    );
}
