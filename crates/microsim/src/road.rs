//! The data-oriented vehicle arena, the network-wide segmented SoA lane
//! storage, and the car-following update: the head advance and the
//! roads-in-flight follower sweep.
//!
//! ## Layout
//!
//! Vehicle state is split by access pattern instead of being stored as an
//! array of `Vehicle` structs:
//!
//! - **Hot, per-tick state** — position, speed, and the waiting-tick
//!   accumulator — lives in parallel arrays owned by *the network*
//!   ([`NetworkLanes`]): one contiguous allocation per array for every
//!   road in the simulation, segmented into one fixed-stride span per
//!   lane, with each road owning a contiguous run of lane segments
//!   ([`RoadSpan`]). The Krauss car-following phase therefore streams
//!   the whole fleet through cache-linear storage, road after road and
//!   lane after lane, with no pointer hops between per-road heap
//!   allocations (the pre-arena layout paid ~5× its hot-cache cost in
//!   situ to exactly that pointer-chase).
//! - **Cold, per-journey state** — the external [`VehicleId`], the
//!   entry tick, the `Arc<Route>`, and the route cursor (`hop`) — lives
//!   in the [`VehicleArena`], a slab keyed by a compact `u32` slot
//!   carried in the lane arrays. Only head release, landings, insertions
//!   and completions dereference it; car-following never does.
//! - The movement link a vehicle queues for is fixed while it is on a
//!   road, so each lane also caches it as a `u16` per vehicle — the
//!   `SharedMixed` movement counters never chase the `Arc<Route>` in the
//!   hot loop.
//!
//! Lanes are FIFO (single file, no overtaking): index order *is* position
//! order, head first. Dequeuing a crossed head advances a per-lane `head`
//! offset instead of shifting the arrays; segments are compacted
//! amortizedly (and a road's lane segments re-laid-out in the cold case
//! of a lane outgrowing its span, which steady-state traffic never
//! triggers — spans are sized at the offset-dequeue plateau).
//!
//! ## Occupancy-ordered iteration
//!
//! [`NetworkLanes`] keeps a sorted **active-road list**: the indices of
//! roads with at least one vehicle on their lanes, maintained
//! incrementally at the only points where a road's on-lane population
//! changes (push on landing/insertion, pop on crossing, lane restore).
//! The head and follower phases walk this list instead of all roads, so
//! an empty road costs zero cache lines — not even its lane metadata is
//! touched. This is safe because an empty road draws no randomness and
//! mutates nothing in either phase, and the one piece of intra-step
//! scratch a skipped road could carry (a stale `head_crossed` flag on a
//! lane that emptied via a crossing) is reset by `advance_head` before
//! any follower pass can observe it once the road re-activates.
//!
//! ## Incremental sensing
//!
//! Sensor counters (vehicles inside the detection window, halted
//! vehicles) live in [`LaneSensors`], flat network-wide arrays indexed by
//! global lane, not in the lane storage: the sense phase then gathers
//! from one contiguous array instead of walking lane storage. The advance
//! functions here compute per-step counter deltas — at the *only* points
//! where a vehicle's position or speed can change — and fold them once
//! per lane into those arrays and once per road into the road's halt sum,
//! with checked arithmetic ([`fold_counter`]); crossings, landings, and
//! insertions adjust them directly. The invariant (counter ≡ rescan
//! under the same [`SensorSpec`], via [`NetworkLanes::rescan_sensors`])
//! is enforced by `MicroSim::verify_sensors` and a dedicated regression
//! test.
//!
//! ## Waiting accumulators
//!
//! A vehicle's waiting ticks (speed below the SUMO threshold) accumulate
//! in the lane's `wait` array in the same pass that moves the vehicle,
//! ride along through junction boxes, and are flushed to the
//! `WaitingLedger` exactly once, at journey completion, with the entry
//! tick the vehicle's arena slot carries. Nothing scans the fleet per
//! tick to account waiting.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::{LinkId, Tick};
use utilbp_metrics::VehicleId;
use utilbp_netgen::{IntersectionId, RoadId, Route};

use crate::config::MicroSimConfig;
use crate::krauss::{next_speed, LeaderInfo};
use crate::sim::RoadSim;

/// Lane-cached movement link of vehicles on boundary exit roads (no
/// downstream junction, hence no movement).
pub(crate) const LINK_NONE: u16 = u16::MAX;

/// Slab of per-journey vehicle state, keyed by a compact `u32` slot.
///
/// Slots are recycled through a free list (LIFO), so the slab stays as
/// dense as the peak concurrent fleet. A freed slot keeps its stale
/// `Arc<Route>` in place until reuse — routes are shared from the demand
/// generators' caches, so the extra reference is a few bytes, and it
/// spares the slab an `Option` per entry.
#[derive(Debug, Clone, Default)]
pub(crate) struct VehicleArena {
    id: Vec<VehicleId>,
    /// The tick the vehicle entered the network (its arrival, before any
    /// backlog dwell): journey times run from here.
    entered: Vec<Tick>,
    route: Vec<Arc<Route>>,
    hop: Vec<u32>,
    free: Vec<u32>,
}

impl VehicleArena {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        VehicleArena::default()
    }

    /// Admits a vehicle that entered the network at `entered`, starting
    /// its route; returns its slot.
    pub(crate) fn insert(&mut self, id: VehicleId, entered: Tick, route: Arc<Route>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.id[i] = id;
                self.entered[i] = entered;
                self.route[i] = route;
                self.hop[i] = 0;
                slot
            }
            None => {
                self.id.push(id);
                self.entered.push(entered);
                self.route.push(route);
                self.hop.push(0);
                (self.id.len() - 1) as u32
            }
        }
    }

    /// Retires a slot (journey complete); returns the vehicle's entry
    /// tick.
    pub(crate) fn release(&mut self, slot: u32) -> Tick {
        self.free.push(slot);
        self.entered[slot as usize]
    }

    /// The external id of a live slot.
    pub(crate) fn id(&self, slot: u32) -> VehicleId {
        self.id[slot as usize]
    }

    /// The route of a live slot.
    pub(crate) fn route(&self, slot: u32) -> &Arc<Route> {
        &self.route[slot as usize]
    }

    /// The route cursor: index of the next intersection to cross
    /// (== route length once on a boundary exit road).
    pub(crate) fn hop(&self, slot: u32) -> usize {
        self.hop[slot as usize] as usize
    }

    /// Advances the route cursor past a crossed intersection.
    pub(crate) fn bump_hop(&mut self, slot: u32) {
        self.hop[slot as usize] += 1;
    }

    /// Replaces a live slot's route (en-route replanning). The caller
    /// must preserve every hop up to and including the current cursor —
    /// the vehicle's lane (and, while crossing, its destination lane) is
    /// bound to that movement, and the lanes cache its link index.
    pub(crate) fn set_route(&mut self, slot: u32, route: Arc<Route>) {
        let i = slot as usize;
        debug_assert!(
            route.hops()[..=self.hop[i] as usize] == self.route[i].hops()[..=self.hop[i] as usize],
            "replanned route must preserve the committed prefix"
        );
        self.route[i] = route;
    }

    /// Which slots hold a live vehicle (`mask[slot]`), for validating
    /// slot words read from a checkpoint before they index the slab.
    pub(crate) fn live_mask(&self) -> Vec<bool> {
        let mut mask = vec![true; self.id.len()];
        for &slot in &self.free {
            mask[slot as usize] = false;
        }
        mask
    }

    /// Serializes the slab: the free list exactly (its LIFO order decides
    /// future slot assignment, hence determinism), live slots in full,
    /// and freed slots not at all — their stale ids and routes are
    /// allocator residue, so normalizing them away makes
    /// save → load → save a byte-level fixed point.
    pub(crate) fn save_state(&self, writer: &mut StateWriter) {
        writer.push_usize(self.id.len());
        writer.push_usize(self.free.len());
        for &slot in &self.free {
            writer.push_u32(slot);
        }
        for (i, live) in self.live_mask().into_iter().enumerate() {
            if !live {
                continue;
            }
            writer.push(self.id[i].raw());
            writer.push(self.entered[i].index());
            writer.push_u32(self.hop[i]);
            self.route[i].save_state(writer);
        }
    }

    /// Restores a slab saved by [`save_state`](Self::save_state). Freed
    /// slots come back holding a shared placeholder route until reuse.
    /// Every live vehicle's id must be below `ids`, the number of ids
    /// issued, and its entry tick below `now`, the plant clock.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a truncated stream, a slab or free
    /// list longer than the stream could hold, a free-list entry out of
    /// range, or a live vehicle's id or entry tick out of range
    /// (`"vehicle id"`, `"vehicle entry tick"`).
    pub(crate) fn load_state(
        &mut self,
        reader: &mut StateReader<'_>,
        ids: u64,
        now: Tick,
    ) -> Result<(), StateError> {
        // Every slot is followed by at least one word: its free-list
        // entry or its live data.
        let len = reader.take_len(1, "arena slab length")?;
        let free_len = reader.take_len(1, "arena free list length")?;
        let mut free = Vec::with_capacity(free_len);
        for _ in 0..free_len {
            let slot = reader.take_u32()?;
            if slot as usize >= len {
                return Err(StateError::Invalid {
                    what: "arena free slot",
                    word: u64::from(slot),
                });
            }
            free.push(slot);
        }
        let placeholder = Arc::new(Route::new(
            RoadId::new(0),
            vec![(IntersectionId::new(0), LinkId::new(0))],
        ));
        let mut is_free = vec![false; len];
        for &slot in &free {
            is_free[slot as usize] = true;
        }
        self.id.clear();
        self.entered.clear();
        self.route.clear();
        self.hop.clear();
        self.id.resize(len, VehicleId::new(0));
        self.entered.resize(len, Tick::ZERO);
        self.route.resize(len, Arc::clone(&placeholder));
        self.hop.resize(len, 0);
        for (i, &freed) in is_free.iter().enumerate() {
            if freed {
                continue;
            }
            self.id[i] = VehicleId::new(reader.take_below(ids, "vehicle id")?);
            self.entered[i] = Tick::new(reader.take_below(now.index(), "vehicle entry tick")?);
            self.hop[i] = reader.take_u32()?;
            self.route[i] = Arc::new(Route::load_state(reader)?);
        }
        self.free = free;
        Ok(())
    }
}

/// The fixed sensor geometry of one road's lanes: everything needed to
/// classify a vehicle for the incremental counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SensorSpec {
    /// Stop-line-relative detector start: a vehicle at `pos >=
    /// detect_from` is inside the detection window. `NEG_INFINITY` for an
    /// infinite detector range.
    pub(crate) detect_from: f64,
    /// Speed below which a vehicle counts as halted.
    pub(crate) halt_speed: f64,
}

impl SensorSpec {
    /// The spec for a road of `length` under `cfg`.
    pub(crate) fn for_road(length: f64, cfg: &MicroSimConfig) -> Self {
        SensorSpec {
            detect_from: if cfg.detection_range_m.is_finite() {
                length - cfg.detection_range_m
            } else {
                f64::NEG_INFINITY
            },
            halt_speed: cfg.halt_speed_mps,
        }
    }
}

/// Bookkeeping of one lane's span inside [`NetworkLanes`]: a half-open
/// window `head..fill` of its fixed-stride segment holds the live
/// vehicles, head (closest to the stop line) first.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneMeta {
    /// Index of the current head vehicle within the segment (offset
    /// dequeue — popping the head does not shift the arrays).
    head: usize,
    /// One past the last occupied index within the segment.
    fill: usize,
    /// Whether this lane's head crossed the stop line in the current
    /// step's head phase — consumed by the follower phase.
    head_crossed: bool,
}

/// One road's region inside the [`NetworkLanes`] arena: a contiguous run
/// of `num_lanes` fixed-stride lane segments starting at element
/// `start`, plus the road's live-vehicle count backing the active-road
/// list. Strides are per-road (`seg`), sized from the road's geometry at
/// construction, so a road outgrowing its stride re-lays-out the arena
/// without disturbing any other road's logical content.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoadSpan {
    /// Element offset of the road's first lane segment in every array.
    pub(crate) start: usize,
    /// Index of the road's first lane in the network-wide lane-meta
    /// array.
    pub(crate) lane0: usize,
    /// Number of lanes.
    pub(crate) num_lanes: usize,
    /// Fixed per-lane stride of this road's segments.
    pub(crate) seg: usize,
    /// Vehicles currently on the road's lanes (excludes junction-box
    /// reservations — this is lane storage occupancy, not road
    /// occupancy).
    pub(crate) live: u32,
}

/// Every lane of every road in a single network-wide segmented
/// struct-of-arrays arena.
///
/// Each parallel array is one contiguous allocation for the *whole
/// network*; road `r` owns the element range described by its
/// [`RoadSpan`], and lane `l` of road `r` owns the fixed-stride span
/// `span.start + l·seg .. span.start + (l+1)·seg` of every array. Within
/// its span a lane is single file (no overtaking): index order *is*
/// position order, positions strictly decreasing from the head. The
/// arrays, split by access pattern:
///
/// - `pv` — `[position, speed]` per vehicle, interleaved: the
///   car-following update always reads and writes both, so pairing them
///   halves the cache lines a short lane touches.
/// - `wait` — accumulated waiting ticks (flushed to the ledger at
///   completion). `u32` on purpose: 2³² waiting ticks is 136 simulated
///   years, and the narrower accumulator keeps the array out of the hot
///   loop's cache budget except when a vehicle is actually waiting.
/// - `slot` — [`VehicleArena`] slot per vehicle (untouched by the
///   follower phase).
/// - `link` — cached movement link index at the road's destination
///   intersection ([`LINK_NONE`] on exit-road lanes). Never changes
///   on-road.
///
/// The sorted `active` list holds the indices of roads with `live > 0`
/// and is what the head and follower phases iterate — empty roads cost
/// nothing. Its backing storage is reserved at `num_roads` up front, so
/// activation/deactivation never allocates.
///
/// Segments are sized at the offset-dequeue plateau (compaction keeps
/// `head` below `max(32, live)`, bounding occupancy at twice the
/// resident capacity), so pushes never allocate in steady state; a lane
/// outgrowing its span first compacts and, failing that, its road's
/// region re-segments at double the stride — a cold path that changes
/// only the representation, never the logical content.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetworkLanes {
    pv: Vec<[f64; 2]>,
    wait: Vec<u32>,
    slot: Vec<u32>,
    link: Vec<u16>,
    lanes: Vec<LaneMeta>,
    spans: Vec<RoadSpan>,
    /// Sorted indices of roads with at least one on-lane vehicle.
    active: Vec<u32>,
}

impl NetworkLanes {
    /// Storage for a network whose road `r` has `shapes[r] = (num_lanes,
    /// capacity)` — `capacity` resident vehicles per lane, pre-sized at
    /// the offset-dequeue plateau so pushes never reallocate: a segment
    /// is compacted before `head` exceeds `max(32, fill - head)`,
    /// bounding occupancy at twice that (plus the entry in flight).
    pub(crate) fn new(shapes: &[(usize, usize)]) -> Self {
        let mut spans = Vec::with_capacity(shapes.len());
        let (mut start, mut lane0) = (0usize, 0usize);
        for &(num_lanes, capacity) in shapes {
            let seg = 2 * capacity.max(32) + 2;
            spans.push(RoadSpan {
                start,
                lane0,
                num_lanes,
                seg,
                live: 0,
            });
            start += num_lanes * seg;
            lane0 += num_lanes;
        }
        NetworkLanes {
            pv: vec![[0.0; 2]; start],
            wait: vec![0; start],
            slot: vec![0; start],
            link: vec![0; start],
            lanes: vec![LaneMeta::default(); lane0],
            spans,
            active: Vec::with_capacity(shapes.len()),
        }
    }

    /// Element index of the first slot of lane `l` of road `r`.
    #[inline]
    fn lane_base(&self, r: usize, l: usize) -> usize {
        let s = self.spans[r];
        s.start + l * s.seg
    }

    /// The lane metadata of lane `l` of road `r` (by value).
    #[inline]
    fn meta(&self, r: usize, l: usize) -> LaneMeta {
        self.lanes[self.spans[r].lane0 + l]
    }

    /// Global index of road `r`'s first lane: lane `l` of road `r` is
    /// lane `lane0(r) + l` of every network-wide per-lane array.
    pub(crate) fn lane0(&self, r: usize) -> usize {
        self.spans[r].lane0
    }

    /// Total lanes across the network.
    pub(crate) fn total_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of lanes of road `r`.
    pub(crate) fn num_lanes(&self, r: usize) -> usize {
        self.spans[r].num_lanes
    }

    /// Number of vehicles on lane `l` of road `r`.
    pub(crate) fn len(&self, r: usize, l: usize) -> usize {
        let m = self.meta(r, l);
        m.fill - m.head
    }

    /// Whether lane `l` of road `r` is empty.
    pub(crate) fn is_empty(&self, r: usize, l: usize) -> bool {
        let m = self.meta(r, l);
        m.head == m.fill
    }

    /// Vehicles on road `r`'s lanes (the incrementally maintained count
    /// behind the active-road list).
    pub(crate) fn road_len(&self, r: usize) -> usize {
        self.spans[r].live as usize
    }

    /// Total vehicles on lanes across the whole network.
    pub(crate) fn total_vehicles(&self) -> usize {
        self.spans.iter().map(|s| s.live as usize).sum()
    }

    /// Position of the `i`-th vehicle from the head of lane `l` of road
    /// `r`.
    pub(crate) fn pos_at(&self, r: usize, l: usize, i: usize) -> f64 {
        self.pv[self.lane_base(r, l) + self.meta(r, l).head + i][0]
    }

    /// Speed of the `i`-th vehicle from the head of lane `l` of road
    /// `r`.
    pub(crate) fn speed_at(&self, r: usize, l: usize, i: usize) -> f64 {
        self.pv[self.lane_base(r, l) + self.meta(r, l).head + i][1]
    }

    /// Arena slot of the `i`-th vehicle from the head of lane `l` of
    /// road `r`.
    pub(crate) fn slot_at(&self, r: usize, l: usize, i: usize) -> u32 {
        self.slot[self.lane_base(r, l) + self.meta(r, l).head + i]
    }

    /// Cached movement link index of the `i`-th vehicle from the head of
    /// lane `l` of road `r`.
    pub(crate) fn link_at(&self, r: usize, l: usize, i: usize) -> u16 {
        self.link[self.lane_base(r, l) + self.meta(r, l).head + i]
    }

    /// The active waiting accumulators of every vehicle in the network —
    /// roads in index order, lanes in order, head first (the canonical
    /// fleet-walk order shared with `fleet_digest` and `replan_routes`).
    pub(crate) fn all_waits(&self) -> impl Iterator<Item = u64> + '_ {
        self.spans.iter().flat_map(move |span| {
            (0..span.num_lanes).flat_map(move |l| {
                let m = self.lanes[span.lane0 + l];
                let base = span.start + l * span.seg;
                self.wait[base + m.head..base + m.fill]
                    .iter()
                    .map(|&w| w as u64)
            })
        })
    }

    /// Appends a vehicle at the entry of lane `l` of road `r` (landing
    /// or insertion). The caller must have updated the sensors via the
    /// road's `sensor_add`. Maintains the road's live count and the
    /// active-road list.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        r: usize,
        l: usize,
        pos: f64,
        speed: f64,
        wait: u64,
        slot: u32,
        link: u16,
    ) {
        if self.meta(r, l).fill == self.spans[r].seg {
            self.make_room(r, l);
        }
        let span = self.spans[r];
        let li = span.lane0 + l;
        let m = &mut self.lanes[li];
        let j = span.start + l * span.seg + m.fill;
        m.fill += 1;
        self.pv[j] = [pos, speed];
        self.wait[j] = wait as u32;
        self.slot[j] = slot;
        self.link[j] = link;
        self.road_live_add(r, 1);
    }

    /// Removes the head vehicle of lane `l` of road `r` (stop-line
    /// crossing); returns its arena slot and accumulated waiting.
    /// Segments are compacted amortizedly, so popping is O(1) and
    /// allocation-free. Maintains the live count / active-road list.
    pub(crate) fn pop_head(&mut self, r: usize, l: usize) -> (u32, u64) {
        let span = self.spans[r];
        let base = span.start + l * span.seg;
        let li = span.lane0 + l;
        let mut m = self.lanes[li];
        let j = base + m.head;
        let (slot, wait) = (self.slot[j], self.wait[j]);
        m.head += 1;
        if m.head == m.fill {
            m.head = 0;
            m.fill = 0;
            self.lanes[li] = m;
        } else if m.head >= 32 && m.head * 2 >= m.fill {
            self.lanes[li] = m;
            self.compact(r, l);
        } else {
            self.lanes[li] = m;
        }
        self.road_live_add(r, -1);
        (slot, wait as u64)
    }

    /// Position of the last vehicle of lane `l` of road `r` (smallest
    /// `pos`), or `length` if empty — the space available at the lane
    /// entry.
    pub(crate) fn tail_position(&self, r: usize, l: usize, length: f64) -> f64 {
        let m = self.meta(r, l);
        if m.head == m.fill {
            length
        } else {
            self.pv[self.lane_base(r, l) + m.fill - 1][0]
        }
    }

    /// Whether a new vehicle can be placed at `pos = 0` on lane `l` of
    /// road `r` while keeping jam spacing to the current tail.
    pub(crate) fn entry_clear(
        &self,
        r: usize,
        l: usize,
        length: f64,
        cfg: &MicroSimConfig,
    ) -> bool {
        self.tail_position(r, l, length) >= cfg.jam_spacing_m()
    }

    /// Recomputes lane `l` of road `r`'s sensor counters by rescanning
    /// (used when validating the incremental-sensing invariant kept in
    /// the road's dense counter arrays).
    pub(crate) fn rescan_sensors(&self, r: usize, l: usize, spec: SensorSpec) -> (u32, u32) {
        let live = self.live(r, l);
        let detected = live.iter().filter(|pv| pv[0] >= spec.detect_from).count() as u32;
        let halted = live.iter().filter(|pv| pv[1] < spec.halt_speed).count() as u32;
        (detected, halted)
    }

    /// Serializes lane `l` of road `r`'s logical content (head first).
    /// The `head` offset, the dequeued prefix, and the segment geometry
    /// (including the arena's road spans) are amortization artifacts,
    /// not state: restoring at `head = 0` yields identical physics, and
    /// canonicalizing makes save → load → save a fixed point.
    pub(crate) fn save_lane(&self, r: usize, l: usize, writer: &mut StateWriter) {
        let base = self.lane_base(r, l);
        let m = self.meta(r, l);
        writer.push_usize(m.fill - m.head);
        for j in base + m.head..base + m.fill {
            writer.push_f64(self.pv[j][0]);
            writer.push_f64(self.pv[j][1]);
            writer.push_u32(self.wait[j]);
            writer.push_u32(self.slot[j]);
            writer.push(u64::from(self.link[j]));
        }
    }

    /// Restores lane `l` of road `r` from a stream saved by
    /// [`save_lane`](Self::save_lane), replacing the current content.
    /// `head_crossed` is intra-step scratch and resets to `false`
    /// (checkpoints are taken at tick boundaries). The road's live count
    /// and the active list are maintained here, so a restore into a
    /// non-empty simulator stays consistent.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a truncated stream, a lane longer
    /// than the stream could hold, a waiting count above `max_wait` (the
    /// ticks simulated so far), a link word out of `u16` range, or a
    /// vehicle slot that is not a live arena slot still `unplaced` (it
    /// starts as [`VehicleArena::live_mask`]; each vehicle loaded clears
    /// its slot, so two vehicles cannot share one).
    pub(crate) fn load_lane(
        &mut self,
        r: usize,
        l: usize,
        unplaced: &mut [bool],
        max_wait: u64,
        reader: &mut StateReader<'_>,
    ) -> Result<(), StateError> {
        let len = reader.take_len(5, "lane length")?;
        let li = self.spans[r].lane0 + l;
        let old_len = self.lanes[li].fill - self.lanes[li].head;
        self.lanes[li] = LaneMeta::default();
        while self.spans[r].seg < len {
            self.grow_road(r);
        }
        let base = self.lane_base(r, l);
        for i in 0..len {
            let pos = reader.take_f64()?;
            let speed = reader.take_f64()?;
            let wait = reader.take_u32()?;
            if u64::from(wait) > max_wait {
                return Err(StateError::Invalid {
                    what: "lane vehicle waiting ticks",
                    word: u64::from(wait),
                });
            }
            let slot = reader.take_u32()?;
            claim_slot(unplaced, slot, "lane vehicle slot")?;
            let word = reader.take()?;
            let link = u16::try_from(word).map_err(|_| StateError::Invalid {
                what: "lane link",
                word,
            })?;
            self.pv[base + i] = [pos, speed];
            self.wait[base + i] = wait;
            self.slot[base + i] = slot;
            self.link[base + i] = link;
        }
        self.lanes[self.spans[r].lane0 + l].fill = len;
        self.road_live_add(r, len as i64 - old_len as i64);
        Ok(())
    }

    /// Number of roads currently holding vehicles.
    pub(crate) fn num_active(&self) -> usize {
        self.active.len()
    }

    /// The `ai`-th active road (ascending road-index order).
    pub(crate) fn active_road(&self, ai: usize) -> usize {
        self.active[ai] as usize
    }

    /// The sorted active-road list (diagnostics and tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn active_roads(&self) -> &[u32] {
        &self.active
    }

    /// Validates the occupancy bookkeeping: every road's live count must
    /// equal the sum of its lane windows, and the active list must hold
    /// exactly the roads with `live > 0`, sorted and without duplicates.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first divergent road.
    pub(crate) fn verify_active(&self) -> Result<(), String> {
        for (r, span) in self.spans.iter().enumerate() {
            let count: usize = (0..span.num_lanes)
                .map(|l| {
                    let m = self.lanes[span.lane0 + l];
                    m.fill - m.head
                })
                .sum();
            if count != span.live as usize {
                return Err(format!(
                    "road {r}: live count {} != lane sum {count}",
                    span.live
                ));
            }
            let listed = self.active.binary_search(&(r as u32)).is_ok();
            if listed != (span.live > 0) {
                return Err(format!(
                    "road {r}: live {} but active-listed {listed}",
                    span.live
                ));
            }
        }
        if !self.active.windows(2).all(|w| w[0] < w[1]) {
            return Err("active list not strictly sorted".to_string());
        }
        Ok(())
    }

    /// The follower phase's entry: a view over the hot arrays plus the
    /// road spans and the active list — everything the sweep needs,
    /// borrowed disjointly and allocation-free.
    pub(crate) fn follower_parts(&mut self) -> (LaneView<'_>, &[RoadSpan], &[u32]) {
        (
            LaneView {
                pv: &mut self.pv,
                wait: &mut self.wait,
                link: &self.link,
                lanes: &mut self.lanes,
            },
            &self.spans,
            &self.active,
        )
    }

    /// The live `[position, speed]` span of lane `l` of road `r`.
    fn live(&self, r: usize, l: usize) -> &[[f64; 2]] {
        let base = self.lane_base(r, l);
        let m = self.meta(r, l);
        &self.pv[base + m.head..base + m.fill]
    }

    /// Adjusts road `r`'s live count, (de)registering it in the sorted
    /// active list on the empty↔non-empty transitions. `insert`/`remove`
    /// shift at most `active.len()` (≤ roads) small words and never
    /// allocate (capacity is reserved at construction).
    fn road_live_add(&mut self, r: usize, delta: i64) {
        let span = &mut self.spans[r];
        let old = span.live;
        span.live = (i64::from(old) + delta) as u32;
        let new = span.live;
        if old == 0 && new > 0 {
            let i = self.active.partition_point(|&x| (x as usize) < r);
            self.active.insert(i, r as u32);
        } else if old > 0 && new == 0 {
            let i = self.active.partition_point(|&x| (x as usize) < r);
            debug_assert_eq!(self.active[i] as usize, r);
            self.active.remove(i);
        }
    }

    /// Shifts lane `l` of road `r`'s live window to the start of its
    /// segment.
    fn compact(&mut self, r: usize, l: usize) {
        let span = self.spans[r];
        let base = span.start + l * span.seg;
        let li = span.lane0 + l;
        let m = self.lanes[li];
        let src = base + m.head..base + m.fill;
        self.pv.copy_within(src.clone(), base);
        self.wait.copy_within(src.clone(), base);
        self.slot.copy_within(src.clone(), base);
        self.link.copy_within(src, base);
        self.lanes[li].fill = m.fill - m.head;
        self.lanes[li].head = 0;
    }

    /// Makes space for one more vehicle on lane `l` of road `r`:
    /// compacts the dequeued prefix away if there is one, otherwise
    /// re-segments the road's region at double the stride (cold path —
    /// segments are sized so steady-state traffic never outgrows them).
    fn make_room(&mut self, r: usize, l: usize) {
        if self.meta(r, l).head > 0 {
            self.compact(r, l);
        } else {
            self.grow_road(r);
        }
    }

    /// Re-lays-out the arena with road `r`'s stride doubled, compacting
    /// every lane to its new base (other roads keep their stride; their
    /// regions shift to make room). Representation-only: the logical
    /// content (and therefore the physics) is unchanged, as are the live
    /// counts and the active list.
    fn grow_road(&mut self, r: usize) {
        let mut new_spans = self.spans.clone();
        new_spans[r].seg = 2 * new_spans[r].seg.max(16) + 2;
        let mut start = 0usize;
        for span in new_spans.iter_mut() {
            span.start = start;
            start += span.num_lanes * span.seg;
        }
        let total = start;
        let mut pv = vec![[0.0; 2]; total];
        let mut wait = vec![0u32; total];
        let mut slot = vec![0u32; total];
        let mut link = vec![0u16; total];
        for (old, new) in self.spans.iter().zip(new_spans.iter()) {
            for l in 0..old.num_lanes {
                let li = old.lane0 + l;
                let m = self.lanes[li];
                let src = old.start + l * old.seg + m.head..old.start + l * old.seg + m.fill;
                let dst = new.start + l * new.seg;
                let live = src.len();
                pv[dst..dst + live].copy_from_slice(&self.pv[src.clone()]);
                wait[dst..dst + live].copy_from_slice(&self.wait[src.clone()]);
                slot[dst..dst + live].copy_from_slice(&self.slot[src.clone()]);
                link[dst..dst + live].copy_from_slice(&self.link[src]);
                self.lanes[li].head = 0;
                self.lanes[li].fill = live;
            }
        }
        self.pv = pv;
        self.wait = wait;
        self.slot = slot;
        self.link = link;
        self.spans = new_spans;
    }

    /// The head offset of lane `l` of road `r` (storage diagnostics for
    /// tests).
    #[cfg(test)]
    fn head(&self, r: usize, l: usize) -> usize {
        self.meta(r, l).head
    }

    /// The stride of road `r`'s segments (storage diagnostics for
    /// tests).
    #[cfg(test)]
    fn seg(&self, r: usize) -> usize {
        self.spans[r].seg
    }
}

/// The arena's follower-phase arrays, borrowed apart from the road spans
/// and the active list: the hot mutable state (`pv`, `wait`, lane
/// metadata) and the read-only per-vehicle link cache, indexed
/// by network-wide element and lane-meta indices. The `slot` array is
/// deliberately absent — the follower phase never touches it.
pub(crate) struct LaneView<'a> {
    pub(crate) pv: &'a mut [[f64; 2]],
    pub(crate) wait: &'a mut [u32],
    pub(crate) link: &'a [u16],
    pub(crate) lanes: &'a mut [LaneMeta],
}

/// Marks a restored vehicle's arena `slot` as placed: it must be live and
/// not yet claimed by another vehicle.
pub(crate) fn claim_slot(
    unplaced: &mut [bool],
    slot: u32,
    what: &'static str,
) -> Result<(), StateError> {
    match unplaced.get_mut(slot as usize) {
        Some(unplaced) if *unplaced => {
            *unplaced = false;
            Ok(())
        }
        _ => Err(StateError::Invalid {
            what,
            word: u64::from(slot),
        }),
    }
}

/// Per-(road, link) movement counters for mixed-lane roads.
///
/// Under [`LaneDiscipline::SharedMixed`](crate::LaneDiscipline) a
/// movement's vehicles may sit on any lane, so the per-lane counters
/// cannot answer "how many vehicles bound for link `l`?". These arrays —
/// indexed by `LinkId::index()` at the road's destination intersection —
/// are maintained incrementally at the same mutation points as the lane
/// sensors (advance, crossing, landing, insertion), turning the
/// SharedMixed detector read from a per-decision lane rescan into an O(1)
/// lookup. A vehicle's movement never changes while it is on the road,
/// which is why the lanes can cache it as a plain link index.
#[derive(Debug, Clone, Default)]
pub(crate) struct MovementCounters {
    /// Vehicles on the road bound for each link (any position).
    pub(crate) total: Vec<u32>,
    /// Vehicles bound for each link within the detection window.
    pub(crate) detected: Vec<u32>,
}

impl MovementCounters {
    /// Counters for a destination layout with `num_links` links.
    pub(crate) fn new(num_links: usize) -> Self {
        MovementCounters {
            total: vec![0; num_links],
            detected: vec![0; num_links],
        }
    }

    /// Registers a vehicle bound for `link` appearing on the road.
    pub(crate) fn add(&mut self, link: usize, pos: f64, spec: SensorSpec) {
        self.total[link] += 1;
        if pos >= spec.detect_from {
            self.detected[link] += 1;
        }
    }

    /// Registers a vehicle bound for `link` leaving the road from `pos`
    /// (crossings happen at or past the stop line, which is always inside
    /// the detector window).
    fn remove(&mut self, link: usize, pos: f64, spec: SensorSpec) {
        self.total[link] -= 1;
        if pos >= spec.detect_from {
            self.detected[link] -= 1;
        }
    }

    /// Registers an in-place movement across the detector boundary.
    fn moved(&mut self, link: usize, old_pos: f64, new_pos: f64, spec: SensorSpec) {
        match (old_pos >= spec.detect_from, new_pos >= spec.detect_from) {
            (false, true) => self.detected[link] += 1,
            (true, false) => self.detected[link] -= 1,
            _ => {}
        }
    }
}

/// What the head vehicle of a lane faces this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadMode {
    /// Green with space downstream: the head may drive through the stop
    /// line (and is returned as crossed when its front passes it).
    Release,
    /// Red/amber or blocked downstream: the stop line is a wall.
    Blocked,
}

/// The outcome of one head advance: the crossed vehicle (arena slot +
/// accumulated waiting), if any, plus the lane's sensor-counter deltas
/// for the caller to fold into the road's dense counter arrays.
pub(crate) struct HeadOutcome {
    /// `Some((slot, wait))` if the head crossed the stop line.
    pub(crate) crossed: Option<(u32, u64)>,
    /// Detection-window occupancy delta.
    pub(crate) detected_delta: i32,
    /// Halted-count delta.
    pub(crate) halted_delta: i32,
}

/// Advances only the head vehicle of lane `l` of road `r` by one step,
/// popping it and returning it in the outcome if it crossed the stop
/// line under [`HeadMode::Release`]. Records the crossing on the lane so
/// the follower phase ([`sweep_followers`]) can run later without
/// re-deriving it.
///
/// The head draws its dawdle sample from `rng`, the road's stream (iff
/// `σ > 0`), before any follower of the road: draw order is part of the
/// bit-level contract.
///
/// If the head stays on the lane at waiting speed, its wait accumulator
/// is incremented in place (a crossed head is in the junction box, not
/// waiting).
#[allow(clippy::too_many_arguments)]
pub(crate) fn advance_head(
    net: &mut NetworkLanes,
    r: usize,
    l: usize,
    length: f64,
    head_mode: HeadMode,
    cfg: &MicroSimConfig,
    spec: SensorSpec,
    rng: &mut SmallRng,
    mut movements: Option<&mut MovementCounters>,
) -> HeadOutcome {
    let span = net.spans[r];
    let li = span.lane0 + l;
    net.lanes[li].head_crossed = false;
    if net.lanes[li].head == net.lanes[li].fill {
        return HeadOutcome {
            crossed: None,
            detected_delta: 0,
            halted_delta: 0,
        };
    }

    let j = span.start + l * span.seg + net.lanes[li].head;
    let [old_pos, old_speed] = net.pv[j];
    let leader = match head_mode {
        HeadMode::Release => LeaderInfo::Free,
        HeadMode::Blocked => LeaderInfo::Wall {
            distance_m: length - old_pos,
        },
    };
    let xi = if cfg.sigma > 0.0 {
        rng.gen::<f64>()
    } else {
        0.0
    };
    let new_speed = next_speed(old_speed, leader, xi, cfg);
    let new_pos = old_pos + new_speed * cfg.dt_seconds;
    net.pv[j] = [new_pos, new_speed];
    let link = net.link[j];
    if let Some(mv) = movements.as_deref_mut() {
        mv.moved(link as usize, old_pos, new_pos, spec);
    }

    let was_detected = (old_pos >= spec.detect_from) as i32;
    let was_halted = (old_speed < spec.halt_speed) as i32;
    if head_mode == HeadMode::Release && new_pos >= length {
        net.lanes[li].head_crossed = true;
        if let Some(mv) = movements {
            mv.remove(link as usize, new_pos, spec);
        }
        // Moved then left: the net effect is removing the old state.
        return HeadOutcome {
            crossed: Some(net.pop_head(r, l)),
            detected_delta: -was_detected,
            halted_delta: -was_halted,
        };
    }
    net.wait[j] += u32::from(new_speed < cfg.waiting_speed_mps);
    HeadOutcome {
        crossed: None,
        detected_delta: (new_pos >= spec.detect_from) as i32 - was_detected,
        halted_delta: (new_speed < spec.halt_speed) as i32 - was_halted,
    }
}

/// Per-lane detector counters for every lane in the network, indexed by
/// global lane (`RoadSpan::lane0 + l`, like the lane metadata): vehicles
/// inside the detection window, and halted vehicles over the whole lane.
/// Flat and network-wide, so the sense phase gathers from one array
/// instead of chasing a per-road allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LaneSensors {
    /// Vehicles inside the detection window, per lane.
    pub(crate) detected: Vec<u32>,
    /// Halted vehicles, per lane.
    pub(crate) halted: Vec<u32>,
}

impl LaneSensors {
    /// Zeroed counters for `lanes` lanes.
    pub(crate) fn new(lanes: usize) -> Self {
        LaneSensors {
            detected: vec![0; lanes],
            halted: vec![0; lanes],
        }
    }
}

/// Adds a signed delta to a counter (a sensor counter or a road
/// occupancy). A result outside `u32` means the counter invariant broke;
/// that panics in every build profile instead of wrapping, naming the
/// counter via `site`.
#[inline]
pub(crate) fn fold_counter(counter: &mut u32, delta: i64, site: impl FnOnce() -> String) {
    match i32::try_from(delta)
        .ok()
        .and_then(|d| counter.checked_add_signed(d))
    {
        Some(value) => *counter = value,
        None => panic!("counter {} {delta:+} leaves u32 at {}", *counter, site()),
    }
}

/// Roads the follower sweep advances side by side. A lane's
/// followers form one dependent chain (each reads its leader's new state
/// through two divisions), so a road-at-a-time sweep leaves the core
/// waiting on the divider; interleaving independent roads overlaps their
/// chains.
const IN_FLIGHT: usize = 4;

/// Marks an idle [`Flight`].
const IDLE: usize = usize::MAX;

/// The follower kernel's config scalars, hoisted once per sweep. `a_dt` and
/// `sigma_a_dt` associate exactly as the expressions in [`next_speed`]
/// (`speed + a·Δt` computes `a·Δt` first; `σ·a·Δt·ξ` associates left), so
/// results are bit-identical.
#[derive(Clone, Copy)]
struct Krauss {
    dt: f64,
    veh_len: f64,
    min_gap: f64,
    waiting_speed: f64,
    free_speed: f64,
    a_dt: f64,
    sigma_a_dt: f64,
    tau: f64,
    decel: f64,
    /// Whether dawdling is on (`σ > 0`): draws happen iff it is.
    dawdling: bool,
}

impl Krauss {
    fn new(cfg: &MicroSimConfig) -> Self {
        Krauss {
            dt: cfg.dt_seconds,
            veh_len: cfg.vehicle_length_m,
            min_gap: cfg.min_gap_m,
            waiting_speed: cfg.waiting_speed_mps,
            free_speed: cfg.free_speed_mps,
            a_dt: cfg.max_accel * cfg.dt_seconds,
            sigma_a_dt: cfg.sigma * cfg.max_accel * cfg.dt_seconds,
            tau: cfg.reaction_time_s,
            decel: cfg.max_decel,
            dawdling: cfg.sigma > 0.0,
        }
    }
}

/// One road in flight in [`sweep_followers`]: the road's follower state,
/// moved in for the road's turn (a copy of its dawdle stream, its
/// movement counters), and a cursor over the open lane's followers.
struct Flight {
    /// The road, or [`IDLE`].
    road: usize,
    length: f64,
    spec: SensorSpec,
    rng: SmallRng,
    moves: Option<MovementCounters>,
    span: RoadSpan,
    /// Next lane to open, and the open lane whose deltas are pending.
    next: usize,
    open: usize,
    /// Element cursor and end over the open lane's followers.
    i: usize,
    end: usize,
    leader_pos: f64,
    leader_speed: f64,
    /// Sensor deltas of the open lane, and the halt delta of the road's
    /// folded lanes.
    lane_detected: i64,
    lane_halted: i64,
    road_halted: i64,
}

/// What every flight shares: the arena's hot arrays, the road table and
/// the counters lanes fold into.
struct Sweep<'s, 'v> {
    view: LaneView<'v>,
    spans: &'s [RoadSpan],
    roads: &'s mut [RoadSim],
    sensors: &'s mut LaneSensors,
    cfg: &'s MicroSimConfig,
    k: Krauss,
}

impl Flight {
    fn idle() -> Self {
        Flight {
            road: IDLE,
            length: 0.0,
            spec: SensorSpec {
                detect_from: 0.0,
                halt_speed: 0.0,
            },
            rng: SmallRng::from_state([0; 4]),
            moves: None,
            span: RoadSpan {
                start: 0,
                lane0: 0,
                num_lanes: 0,
                seg: 0,
                live: 0,
            },
            next: 0,
            open: 0,
            i: 0,
            end: 0,
            leader_pos: 0.0,
            leader_speed: 0.0,
            lane_detected: 0,
            lane_halted: 0,
            road_halted: 0,
        }
    }

    /// Boards the next queued road with a follower to advance; goes idle
    /// when the queue is empty. A road holding heads only is passed over
    /// without loading it, and one whose only followers are peeled while
    /// opening its lanes is landed at once.
    fn board(&mut self, sweep: &mut Sweep<'_, '_>, queue: &mut impl Iterator<Item = usize>) {
        for r in queue {
            let span = sweep.spans[r];
            let metas = &mut sweep.view.lanes[span.lane0..span.lane0 + span.num_lanes];
            if !metas
                .iter()
                .any(|m| m.fill - m.head > usize::from(!m.head_crossed))
            {
                // Heads only: nothing to advance and no stream to touch,
                // so the road is never loaded.
                metas.iter_mut().for_each(|m| m.head_crossed = false);
                continue;
            }
            let road = &mut sweep.roads[r];
            self.road = r;
            self.length = road.length;
            self.spec = road.spec;
            self.rng = road.rng.clone();
            self.moves = road.move_counts.take();
            self.span = span;
            self.next = 0;
            self.open = 0;
            if self.open_next_lane(sweep) {
                return;
            }
            self.land(sweep);
        }
        self.road = IDLE;
    }

    /// Writes the road's state back: its stream position, movement
    /// counters and folded halt sum.
    fn land(&mut self, sweep: &mut Sweep<'_, '_>) {
        let r = self.road;
        let road = &mut sweep.roads[r];
        road.rng = self.rng.clone();
        road.move_counts = self.moves.take();
        fold_counter(&mut road.halted_sum, self.road_halted, || {
            format!("road {r} halted sum")
        });
        self.road_halted = 0;
    }

    /// Folds the open lane's deltas, then opens the road's next lane
    /// with a follower left to advance (after peeling a crossed head's
    /// successor against the stop line). `false` once the road's lanes
    /// are exhausted. Every lane of the road passes through here, so
    /// every `head_crossed` flag is consumed.
    fn open_next_lane(&mut self, sweep: &mut Sweep<'_, '_>) -> bool {
        self.fold_lane(sweep.sensors);
        while self.next < self.span.num_lanes {
            let l = self.next;
            self.next += 1;
            let li = self.span.lane0 + l;
            let m = sweep.view.lanes[li];
            sweep.view.lanes[li].head_crossed = false;
            let first = if m.head_crossed { 0 } else { 1 };
            if m.fill - m.head <= first {
                continue;
            }
            let base = self.span.start + l * self.span.seg;
            self.open = l;
            self.i = base + m.head + first;
            self.end = base + m.fill;
            if !m.head_crossed {
                [self.leader_pos, self.leader_speed] = sweep.view.pv[base + m.head];
                return true;
            }
            // The new head right after a crossing faces the stop line,
            // not a vehicle; it is re-evaluated for release next step.
            let i = self.i;
            let [old_pos, old_speed] = sweep.view.pv[i];
            let xi = if sweep.k.dawdling {
                self.rng.gen::<f64>()
            } else {
                0.0
            };
            let wall = LeaderInfo::Wall {
                distance_m: self.length - old_pos,
            };
            let v = next_speed(old_speed, wall, xi, sweep.cfg);
            let p = old_pos + v * sweep.cfg.dt_seconds;
            self.record(
                &mut sweep.view,
                i,
                [old_pos, old_speed],
                [p, v],
                sweep.cfg.waiting_speed_mps,
            );
            if self.i < self.end {
                return true;
            }
            self.fold_lane(sweep.sensors);
        }
        false
    }

    /// Folds the open lane's sensor deltas into its counters and the
    /// road's running halt total (unconditionally: a zero delta is a
    /// no-op, and a data-dependent skip would be one more mispredicted
    /// branch).
    fn fold_lane(&mut self, sensors: &mut LaneSensors) {
        let g = self.span.lane0 + self.open;
        let (r, l) = (self.road, self.open);
        fold_counter(&mut sensors.detected[g], self.lane_detected, || {
            format!("road {r} lane {l} detected")
        });
        fold_counter(&mut sensors.halted[g], self.lane_halted, || {
            format!("road {r} lane {l} halted")
        });
        self.road_halted += self.lane_halted;
        self.lane_detected = 0;
        self.lane_halted = 0;
    }

    /// Advances the follower under the cursor behind its leader: the
    /// Krauss update inlined with the same operations, in the same order,
    /// as `next_speed`/`safe_speed`, plus the anti-overlap clamp.
    #[inline(always)]
    fn follow(&mut self, view: &mut LaneView<'_>, k: &Krauss) {
        let i = self.i;
        let [old_pos, old_speed] = view.pv[i];
        let xi = if k.dawdling {
            self.rng.gen::<f64>()
        } else {
            0.0
        };
        let (leader_pos, leader_speed) = (self.leader_pos, self.leader_speed);
        let net_gap = leader_pos - old_pos - k.veh_len - k.min_gap;
        let v_bar = (old_speed + leader_speed) / 2.0;
        let v_safe = leader_speed + (net_gap - leader_speed * k.tau) / (v_bar / k.decel + k.tau);
        let v_des = k.free_speed.min(old_speed + k.a_dt).min(v_safe);
        let mut v = (v_des - k.sigma_a_dt * xi).max(0.0);
        let mut p = old_pos + v * k.dt;
        // Anti-overlap safety clamp (numerical guard; Krauss alone is
        // collision-free for consistent inputs).
        let max_pos = leader_pos - k.veh_len - 0.05;
        if p > max_pos {
            p = max_pos.max(old_pos);
            v = ((p - old_pos) / k.dt).max(0.0);
        }
        self.record(view, i, [old_pos, old_speed], [p, v], k.waiting_speed);
    }

    /// Stores vehicle `i`'s new state, tallies its sensor and movement
    /// deltas and waiting tick, and makes it the next follower's leader.
    #[inline(always)]
    fn record(
        &mut self,
        view: &mut LaneView<'_>,
        i: usize,
        [old_pos, old_speed]: [f64; 2],
        [p, v]: [f64; 2],
        waiting_speed: f64,
    ) {
        let spec = self.spec;
        view.pv[i] = [p, v];
        self.lane_detected += (p >= spec.detect_from) as i64 - (old_pos >= spec.detect_from) as i64;
        self.lane_halted += (v < spec.halt_speed) as i64 - (old_speed < spec.halt_speed) as i64;
        if let Some(mv) = self.moves.as_mut() {
            mv.moved(view.link[i] as usize, old_pos, p, spec);
        }
        // Branch-free: a queue's stop-and-creep pattern mispredicts a
        // branch here often enough to flush the other flights' work.
        view.wait[i] += u32::from(v < waiting_speed);
        self.leader_pos = p;
        self.leader_speed = v;
        self.i = i + 1;
    }
}

/// The follower phase: advances every vehicle that the head phase
/// left in place, on every active road.
///
/// Each lane is the sequential front-to-back Krauss update with an
/// anti-overlap clamp; a follower reacts to its leader's already-advanced
/// state, and the new head after a crossing faces the stop line. Up to
/// [`IN_FLIGHT`] roads are advanced in lock step, one follower each per
/// round. Roads share nothing in this phase (each has its own dawdle
/// stream, lanes, counters and movement counters) and each flight walks
/// its road's lanes in order, so every stream is drawn in the road-at-a-
/// time order and every vehicle computes the same operations in the same
/// order: the interleaving changes the schedule, never a bit.
///
/// Vehicles ending the step at waiting speed accumulate a waiting tick in
/// place. Per-lane sensor deltas fold into `sensors` once per lane and
/// into the road's halt sum once per road.
pub(crate) fn sweep_followers(
    net: &mut NetworkLanes,
    roads: &mut [RoadSim],
    sensors: &mut LaneSensors,
    cfg: &MicroSimConfig,
) {
    let (view, spans, active) = net.follower_parts();
    let mut queue = active.iter().map(|&r| r as usize);
    let mut sweep = Sweep {
        view,
        spans,
        roads,
        sensors,
        cfg,
        k: Krauss::new(cfg),
    };
    let mut flights: [Flight; IN_FLIGHT] = std::array::from_fn(|_| Flight::idle());
    for flight in &mut flights {
        flight.board(&mut sweep, &mut queue);
    }
    loop {
        let mut busy = false;
        for flight in &mut flights {
            if flight.i < flight.end {
                flight.follow(&mut sweep.view, &sweep.k);
            } else if flight.road != IDLE {
                if !flight.open_next_lane(&mut sweep) {
                    flight.land(&mut sweep);
                    flight.board(&mut sweep, &mut queue);
                }
            } else {
                continue;
            }
            busy = true;
        }
        if !busy {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> MicroSimConfig {
        MicroSimConfig::deterministic()
    }

    /// A one-road, one-lane arena for the storage-level tests.
    fn lane() -> NetworkLanes {
        NetworkLanes::new(&[(1, 1)])
    }

    /// Pushes a vehicle without touching any sensor counter.
    fn push(net: &mut NetworkLanes, slot: u32, pos: f64, speed: f64) {
        net.push(0, 0, pos, speed, 0, slot, 0);
    }

    fn spec300() -> SensorSpec {
        SensorSpec::for_road(300.0, &cfg())
    }

    /// The scalar per-lane follower kernel, kept as the reference the
    /// roads-in-flight sweep must match bit for bit: advances every remaining
    /// vehicle of lane `l` of the road described by `span` (sequential
    /// front-to-back Krauss update with an anti-overlap clamp). Must run
    /// once after [`advance_head`] for every lane of an occupied road.
    /// Returns `(detected_delta, halted_delta)`.
    #[allow(clippy::too_many_arguments)]
    fn advance_followers(
        view: &mut LaneView<'_>,
        span: &RoadSpan,
        l: usize,
        length: f64,
        cfg: &MicroSimConfig,
        spec: SensorSpec,
        rng: &mut SmallRng,
        mut movements: Option<&mut MovementCounters>,
    ) -> (i64, i64) {
        let li = span.lane0 + l;
        let m = view.lanes[li];
        let start = if m.head_crossed { 0 } else { 1 };
        view.lanes[li].head_crossed = false;
        if m.fill - m.head <= start {
            return (0, 0);
        }
        let mut detected_delta = 0i64;
        let mut halted_delta = 0i64;
        // Leader state of vehicle `i` (updated before `i` moves, so each
        // follower reacts to its leader's already-advanced state, as in the
        // sequential front-to-back Krauss update). `INFINITY` position marks
        // "no leader; the stop line is the obstacle" — the case right after
        // the head crossed (its successor is re-evaluated for release next
        // step).
        let mut leader_pos = f64::INFINITY;
        let mut leader_speed = 0.0;

        let base = span.start + l * span.seg;
        let n = m.fill - m.head;
        let pv = &mut view.pv[base + m.head..base + m.fill];
        let wait = &mut view.wait[base + m.head..base + m.fill];
        let link = &view.link[base + m.head..base + m.fill];
        if start == 1 {
            [leader_pos, leader_speed] = pv[0];
        }
        // Hoisted config scalars. `a_dt` and `sigma_a_dt` associate exactly as
        // the inline expressions they replace (`speed + a·Δt` computes `a·Δt`
        // first; `σ·a·Δt·ξ` associates left), so results are bit-identical.
        let dt = cfg.dt_seconds;
        let veh_len = cfg.vehicle_length_m;
        let min_gap = cfg.min_gap_m;
        let waiting_speed = cfg.waiting_speed_mps;
        let free_speed = cfg.free_speed_mps;
        let a_dt = cfg.max_accel * cfg.dt_seconds;
        let sigma_a_dt = cfg.sigma * cfg.max_accel * cfg.dt_seconds;
        let dawdling = cfg.sigma > 0.0;
        let tau = cfg.reaction_time_s;
        let decel = cfg.max_decel;
        let (detect_from, halt_speed) = (spec.detect_from, spec.halt_speed);

        let mut i = start;
        // At most one follower faces the stop line instead of a vehicle: the
        // new head right after a crossing (`leader_pos` infinite). Peeling it
        // keeps the main loop free of the leader-kind branch.
        if !leader_pos.is_finite() && i < n {
            let [old_pos, old_speed] = pv[i];
            let xi = dawdle(cfg, rng);
            let v = next_speed(
                old_speed,
                LeaderInfo::Wall {
                    distance_m: length - old_pos,
                },
                xi,
                cfg,
            );
            let p = old_pos + v * dt;
            pv[i] = [p, v];
            detected_delta += (p >= detect_from) as i64 - (old_pos >= detect_from) as i64;
            halted_delta += (v < halt_speed) as i64 - (old_speed < halt_speed) as i64;
            if let Some(mv) = movements.as_deref_mut() {
                mv.moved(link[i] as usize, old_pos, p, spec);
            }
            if v < waiting_speed {
                wait[i] += 1;
            }
            (leader_pos, leader_speed) = (p, v);
            i += 1;
        }
        // Tight vehicle-leader loop: the Krauss update inlined with the same
        // operation order as `next_speed`/`safe_speed`.
        for i in i..n {
            let [old_pos, old_speed] = pv[i];
            let xi = if dawdling { rng.gen::<f64>() } else { 0.0 };
            let net_gap = leader_pos - old_pos - veh_len - min_gap;
            let v_bar = (old_speed + leader_speed) / 2.0;
            let v_safe = leader_speed + (net_gap - leader_speed * tau) / (v_bar / decel + tau);
            let v_des = free_speed.min(old_speed + a_dt).min(v_safe);
            let mut v = (v_des - sigma_a_dt * xi).max(0.0);
            let mut p = old_pos + v * dt;
            // Anti-overlap safety clamp (numerical guard; Krauss alone is
            // collision-free for consistent inputs).
            let max_pos = leader_pos - veh_len - 0.05;
            if p > max_pos {
                p = max_pos.max(old_pos);
                v = ((p - old_pos) / dt).max(0.0);
            }
            pv[i] = [p, v];
            detected_delta += (p >= detect_from) as i64 - (old_pos >= detect_from) as i64;
            halted_delta += (v < halt_speed) as i64 - (old_speed < halt_speed) as i64;
            if let Some(mv) = movements.as_deref_mut() {
                mv.moved(link[i] as usize, old_pos, p, spec);
            }
            if v < waiting_speed {
                wait[i] += 1;
            }
            (leader_pos, leader_speed) = (p, v);
        }
        (detected_delta, halted_delta)
    }

    fn dawdle(cfg: &MicroSimConfig, rng: &mut SmallRng) -> f64 {
        if cfg.sigma > 0.0 {
            rng.gen::<f64>()
        } else {
            0.0
        }
    }

    /// A network of roads with consistent sensor counters, stepped through
    /// the simulator's head phase plus either follower path.
    #[derive(Clone)]
    struct Rig {
        net: NetworkLanes,
        roads: Vec<RoadSim>,
        sensors: LaneSensors,
        cfg: MicroSimConfig,
    }

    impl Rig {
        /// Roads of `length` m with `lanes[r]` lanes each; roads listed in
        /// `mixed` keep movement counters over four links.
        fn new(lanes: &[usize], length: f64, cfg: MicroSimConfig, mixed: &[usize]) -> Self {
            let shapes: Vec<(usize, usize)> = lanes.iter().map(|&n| (n, 8)).collect();
            let net = NetworkLanes::new(&shapes);
            let total = lanes.iter().sum();
            let roads = (0..lanes.len())
                .map(|r| {
                    let moves = mixed.contains(&r).then(|| MovementCounters::new(4));
                    RoadSim::new(length, 1000, &cfg, SmallRng::seed_from_u64(r as u64), moves)
                })
                .collect();
            Rig {
                net,
                roads,
                sensors: LaneSensors::new(total),
                cfg,
            }
        }

        /// Places a vehicle bound for `link` at the back of lane `l` of
        /// road `r`, registering it with every counter.
        fn push(&mut self, r: usize, l: usize, pos: f64, speed: f64, link: u16) {
            let slot = self.net.total_vehicles() as u32;
            let g = self.net.lane0(r) + l;
            let road = &mut self.roads[r];
            road.sensor_add(&mut self.sensors, g, pos, speed);
            if let Some(mv) = road.move_counts.as_mut() {
                mv.add(link as usize, pos, road.spec);
            }
            self.net.push(r, l, pos, speed, 0, slot, link);
        }

        /// One step: the head phase on every occupied lane (release
        /// decided by `mode`), then the follower phase — the sweep, or the
        /// per-lane reference kernel road by road. Returns the crossed
        /// `(slot, wait)` pairs.
        fn step(
            &mut self,
            mode: impl Fn(usize, usize) -> HeadMode,
            sweep: bool,
        ) -> Vec<(u32, u64)> {
            let mut crossed = Vec::new();
            // Walk the active list as the simulator does: a road emptied
            // by its last crossing leaves the list, so the cursor only
            // advances past a road still listed under it.
            let mut ai = 0;
            while let Some(&r) = self.net.active_roads().get(ai) {
                let r = r as usize;
                for l in 0..self.net.num_lanes(r) {
                    if self.net.is_empty(r, l) {
                        continue;
                    }
                    let road = &mut self.roads[r];
                    let outcome = advance_head(
                        &mut self.net,
                        r,
                        l,
                        road.length,
                        mode(r, l),
                        &self.cfg,
                        road.spec,
                        &mut road.rng,
                        road.move_counts.as_mut(),
                    );
                    let g = self.net.lane0(r) + l;
                    let site = || String::new();
                    fold_counter(
                        &mut self.sensors.detected[g],
                        outcome.detected_delta.into(),
                        site,
                    );
                    fold_counter(
                        &mut self.sensors.halted[g],
                        outcome.halted_delta.into(),
                        site,
                    );
                    fold_counter(&mut road.halted_sum, outcome.halted_delta.into(), site);
                    crossed.extend(outcome.crossed);
                }
                if self.net.active_roads().get(ai) == Some(&(r as u32)) {
                    ai += 1;
                }
            }
            if sweep {
                sweep_followers(&mut self.net, &mut self.roads, &mut self.sensors, &self.cfg);
            } else {
                let (mut view, spans, active) = self.net.follower_parts();
                for &r in active {
                    let (r, span) = (r as usize, spans[r as usize]);
                    let road = &mut self.roads[r];
                    for l in 0..span.num_lanes {
                        let (dd, hd) = advance_followers(
                            &mut view,
                            &span,
                            l,
                            road.length,
                            &self.cfg,
                            road.spec,
                            &mut road.rng,
                            road.move_counts.as_mut(),
                        );
                        let g = span.lane0 + l;
                        let site = || String::new();
                        fold_counter(&mut self.sensors.detected[g], dd, site);
                        fold_counter(&mut self.sensors.halted[g], hd, site);
                        fold_counter(&mut road.halted_sum, hd, site);
                    }
                }
            }
            crossed
        }

        /// Every counter equals a from-scratch rescan.
        fn assert_counters(&self) {
            for (r, road) in self.roads.iter().enumerate() {
                let mut halted = 0;
                for l in 0..self.net.num_lanes(r) {
                    let g = self.net.lane0(r) + l;
                    let rescan = self.net.rescan_sensors(r, l, road.spec);
                    assert_eq!(
                        (self.sensors.detected[g], self.sensors.halted[g]),
                        rescan,
                        "road {r} lane {l}"
                    );
                    halted += rescan.1;
                }
                assert_eq!(road.halted_sum, halted, "road {r}");
            }
        }

        /// Everything the follower phase may write, bit for bit.
        fn state(&self) -> (Vec<u64>, Vec<u32>, LaneSensors, Vec<String>) {
            let bits = self
                .net
                .pv
                .iter()
                .flat_map(|pv| pv.map(f64::to_bits))
                .collect();
            let roads = self
                .roads
                .iter()
                .map(|road| {
                    format!(
                        "{:?} {:?} {}",
                        road.rng.state(),
                        road.move_counts,
                        road.halted_sum
                    )
                })
                .collect();
            (bits, self.net.wait.clone(), self.sensors.clone(), roads)
        }
    }

    /// The single-lane rig the kernel tests step (300 m road).
    fn one_lane(c: MicroSimConfig) -> Rig {
        Rig::new(&[1], 300.0, c, &[])
    }

    #[test]
    fn empty_lane_is_a_noop() {
        let mut rig = one_lane(cfg());
        assert!(rig.step(|_, _| HeadMode::Release, true).is_empty());
    }

    #[test]
    fn blocked_head_stops_at_the_line() {
        let c = cfg();
        let mut rig = one_lane(c);
        rig.push(0, 0, 250.0, c.free_speed_mps, 0);
        for _ in 0..30 {
            let crossed = rig.step(|_, _| HeadMode::Blocked, true);
            assert!(crossed.is_empty(), "blocked head must never cross");
        }
        let net = &rig.net;
        assert!(net.speed_at(0, 0, 0) < 0.05);
        assert!(net.pos_at(0, 0, 0) <= 300.0 + 1e-9);
        assert!(
            net.pos_at(0, 0, 0) > 290.0,
            "head pos {}",
            net.pos_at(0, 0, 0)
        );
    }

    #[test]
    fn released_head_crosses_and_is_returned() {
        let mut rig = one_lane(cfg());
        rig.push(0, 0, 295.0, 10.0, 0);
        let crossed = rig.step(|_, _| HeadMode::Release, true);
        assert_eq!(crossed.len(), 1, "head must cross");
        assert_eq!(crossed[0].0, 0);
        assert!(rig.net.is_empty(0, 0));
        assert_eq!(rig.net.rescan_sensors(0, 0, spec300()), (0, 0));
        rig.assert_counters();
    }

    #[test]
    fn queue_compacts_without_collisions() {
        let c = cfg();
        let mut rig = one_lane(c);
        // Five vehicles strung out; head blocked at the line.
        for pos in [280.0, 220.0, 160.0, 100.0, 40.0] {
            rig.push(0, 0, pos, 10.0, 0);
        }
        let net = |rig: &Rig| rig.net.clone();
        for _ in 0..80 {
            rig.step(|_, _| HeadMode::Blocked, true);
            // Strict ordering with at least a vehicle length between
            // consecutive front bumpers.
            let net = net(&rig);
            for w in 0..net.len(0, 0) - 1 {
                let gap = net.pos_at(0, 0, w) - net.pos_at(0, 0, w + 1);
                assert!(
                    gap >= c.vehicle_length_m - 1e-6,
                    "overlap after step: gap {gap}"
                );
            }
        }
        // All stopped in a jam near the line at ~7.5 m spacing.
        let net = net(&rig);
        for w in 0..net.len(0, 0) - 1 {
            let gap = net.pos_at(0, 0, w) - net.pos_at(0, 0, w + 1);
            assert!(
                (gap - c.jam_spacing_m()).abs() < 0.6,
                "jam spacing violated: {gap}"
            );
        }
    }

    #[test]
    fn detection_counts_only_near_the_stop_line() {
        let mut net = lane();
        net.push(0, 0, 295.0, 0.0, 0, 0, 0);
        net.push(0, 0, 287.0, 0.0, 0, 1, 0);
        net.push(0, 0, 100.0, 10.0, 0, 2, 0); // far upstream
        let detected = |range: f64| {
            let spec = SensorSpec {
                detect_from: 300.0 - range,
                halt_speed: 0.1,
            };
            net.rescan_sensors(0, 0, spec).0
        };
        assert_eq!(detected(100.0), 2);
        assert_eq!(detected(300.0), 3);
        assert_eq!(detected(1.0), 0);
    }

    #[test]
    fn entry_clearance_respects_jam_spacing() {
        let c = cfg();
        let mut net = lane();
        assert!(net.entry_clear(0, 0, 300.0, &c), "empty lane is clear");
        net.push(0, 0, 8.0, 0.0, 0, 0, 0);
        assert!(net.entry_clear(0, 0, 300.0, &c));
        net.push(0, 0, 6.0, 0.0, 0, 1, 0);
        assert!(!net.entry_clear(0, 0, 300.0, &c), "tail at 6 m < 7.5 m");
        assert_eq!(net.tail_position(0, 0, 300.0), 6.0);
    }

    #[test]
    fn successor_of_crossed_head_sees_the_line() {
        let mut rig = one_lane(cfg());
        rig.push(0, 0, 296.0, 12.0, 0);
        rig.push(0, 0, 285.0, 12.0, 0);
        let crossed = rig.step(|_, _| HeadMode::Release, true);
        assert_eq!(crossed.len(), 1);
        assert_eq!(rig.net.len(0, 0), 1);
        // The successor advanced but is still on the lane.
        assert!(rig.net.pos_at(0, 0, 0) < 300.0);
        assert!(rig.net.pos_at(0, 0, 0) > 285.0);
    }

    #[test]
    fn advance_deltas_track_every_mutation() {
        // The head phase and the sweep fold sensor-counter deltas; the
        // folded counters must match a from-scratch rescan every step —
        // the invariant `MicroSim` relies on for its dense counter arrays.
        let mut rig = one_lane(cfg());
        // One vehicle upstream of the 50 m window, one inside it, halted.
        rig.push(0, 0, 270.0, 0.0, 0);
        rig.push(0, 0, 100.0, 13.0, 0);
        assert_eq!((rig.sensors.detected[0], rig.sensors.halted[0]), (1, 1));
        for _ in 0..60 {
            rig.step(|_, _| HeadMode::Blocked, true);
            rig.assert_counters();
        }
        // Both vehicles end up jammed inside the window.
        assert_eq!((rig.sensors.detected[0], rig.sensors.halted[0]), (2, 2));
    }

    #[test]
    fn waiting_accumulates_in_place_for_stopped_vehicles() {
        let c = cfg();
        let mut rig = one_lane(c);
        rig.push(0, 0, 299.0, 0.0, 0);
        rig.push(0, 0, 150.0, c.free_speed_mps, 0);
        for _ in 0..40 {
            rig.step(|_, _| HeadMode::Blocked, true);
        }
        // The head sat at the line the whole time; the follower drove,
        // then queued behind it.
        let waits: Vec<u64> = rig.net.all_waits().collect();
        assert!(waits[0] >= 39, "head wait {waits:?}");
        assert!(
            waits[1] > 0 && waits[1] < waits[0],
            "follower waits less: {waits:?}"
        );
    }

    /// The roads-in-flight sweep against the per-lane reference kernel on
    /// seeded random traffic: more roads than flights, one to four lanes
    /// each, single-vehicle and empty lanes, heads released (so crossed
    /// heads' successors are peeled) or blocked at random, fresh entries
    /// every step, and mixed-lane movement counters on some roads. Every
    /// position, speed, waiting tick, counter and stream position must
    /// agree bit for bit after every step.
    #[test]
    fn sweep_matches_the_per_lane_reference_bit_for_bit() {
        use rand::Rng;
        for seed in 0..6u64 {
            let mut gen = SmallRng::seed_from_u64(seed);
            let lanes: Vec<usize> = (0..11).map(|_| gen.gen_range(1..5usize)).collect();
            let c = MicroSimConfig::default();
            let mut sweep = Rig::new(&lanes, 300.0, c, &[1, 4, 7, 8]);
            for (r, &n) in lanes.iter().enumerate() {
                for l in 0..n {
                    let mut pos = 299.0 - gen.gen_range(0.0..40.0);
                    for _ in 0..gen.gen_range(0..12usize) {
                        let speed = if gen.gen_bool(0.6) {
                            0.0
                        } else {
                            gen.gen_range(0.0..13.9)
                        };
                        sweep.push(r, l, pos, speed, gen.gen_range(0..4u16));
                        pos -= c.jam_spacing_m() + gen.gen_range(0.0..25.0);
                        if pos < 0.0 {
                            break;
                        }
                    }
                }
            }
            let mut reference = sweep.clone();
            let mut crossed = 0;
            for step in 0..80 {
                let release: Vec<Vec<bool>> = lanes
                    .iter()
                    .map(|&n| (0..n).map(|_| gen.gen_bool(0.4)).collect())
                    .collect();
                let mode = |r: usize, l: usize| {
                    if release[r][l] {
                        HeadMode::Release
                    } else {
                        HeadMode::Blocked
                    }
                };
                let a = sweep.step(mode, true);
                let b = reference.step(mode, false);
                assert_eq!(a, b, "seed {seed} step {step}: crossings");
                crossed += a.len();
                assert_eq!(sweep.state(), reference.state(), "seed {seed} step {step}");
                sweep.assert_counters();
                for (r, &n) in lanes.iter().enumerate() {
                    let l = gen.gen_range(0..n);
                    if gen.gen_bool(0.5) && sweep.net.entry_clear(r, l, 300.0, &c) {
                        let (speed, link) = (gen.gen_range(0.0..13.9), gen.gen_range(0..4u16));
                        sweep.push(r, l, 0.0, speed, link);
                        reference.push(r, l, 0.0, speed, link);
                    }
                }
            }
            assert!(
                crossed > 20,
                "seed {seed}: only {crossed} crossings to peel after"
            );
        }
    }

    #[test]
    #[should_panic(expected = "road 3 lane 1 detected")]
    fn counter_fold_out_of_range_names_the_lane() {
        let mut counter = 2u32;
        fold_counter(&mut counter, -3, || "road 3 lane 1 detected".to_string());
    }

    #[test]
    fn crafted_lane_slot_must_be_live() {
        // A CRC-valid checkpoint can carry any slot word; a lane must
        // refuse one that is not a live arena slot before anything
        // indexes the slab with it.
        let mut src = NetworkLanes::new(&[(1, 4)]);
        src.push(0, 0, 120.0, 5.0, 0, 2, 0);
        let mut w = StateWriter::new();
        src.save_lane(0, 0, &mut w);
        let load = |unplaced: &mut [bool]| {
            NetworkLanes::new(&[(1, 4)]).load_lane(
                0,
                0,
                unplaced,
                0,
                &mut StateReader::new(w.bytes()),
            )
        };
        let mut unplaced = [true, true, true];
        assert!(load(&mut unplaced).is_ok());
        assert_eq!(unplaced, [true, true, false], "loading places the slot");
        for unplaced in [&mut [true, true][..], &mut [true, true, false][..]] {
            assert!(matches!(
                load(unplaced),
                Err(StateError::Invalid {
                    what: "lane vehicle slot",
                    word: 2
                })
            ));
        }
    }

    #[test]
    fn pop_head_compacts_storage() {
        let c = cfg();
        let mut net = lane();
        for i in 0..100u32 {
            push(&mut net, i, 299.0 - f64::from(i) * c.jam_spacing_m(), 0.0);
        }
        for expect in 0..60u32 {
            let (slot, _) = net.pop_head(0, 0);
            assert_eq!(slot, expect);
            assert_eq!(net.len(0, 0), (99 - expect) as usize);
        }
        // Offset-based dequeue must have compacted by now.
        assert!(
            net.head(0, 0) < 40,
            "storage not compacted: head {}",
            net.head(0, 0)
        );
        assert_eq!(net.slot_at(0, 0, 0), 60);
        assert_eq!(
            net.tail_position(0, 0, 300.0),
            net.pos_at(0, 0, net.len(0, 0) - 1)
        );
    }

    #[test]
    fn segmented_storage_grows_without_losing_content() {
        // A road sized for a single resident vehicle per lane must
        // re-segment transparently when overfilled from a head-zero
        // state (the cold growth path), preserving order and content.
        let mut net = NetworkLanes::new(&[(2, 1)]);
        let initial_seg = net.seg(0);
        for i in 0..(2 * initial_seg) as u32 {
            net.push(0, 1, 1000.0 - f64::from(i), 3.0, u64::from(i), i, 2);
        }
        assert!(net.seg(0) > initial_seg, "road must have re-segmented");
        assert_eq!(net.len(0, 1), 2 * initial_seg);
        assert!(net.is_empty(0, 0), "other lanes untouched");
        for i in 0..net.len(0, 1) {
            assert_eq!(net.pos_at(0, 1, i), 1000.0 - i as f64);
            assert_eq!(net.slot_at(0, 1, i), i as u32);
            assert_eq!(net.link_at(0, 1, i), 2);
        }
        let waits: Vec<u64> = net.all_waits().collect();
        assert_eq!(waits.len(), net.len(0, 1));
        assert_eq!(waits[5], 5);
    }

    #[test]
    fn growth_relayouts_without_disturbing_other_roads() {
        // Overflow road 0 while roads 1 and 2 hold traffic: only road
        // 0's stride changes; every road's logical content survives the
        // re-layout (regions shift, content does not).
        let mut net = NetworkLanes::new(&[(1, 1), (2, 1), (1, 1)]);
        net.push(1, 1, 42.0, 3.0, 9, 100, 4);
        net.push(2, 0, 77.0, 1.0, 2, 200, 5);
        let (seg1, seg2) = (net.seg(1), net.seg(2));
        let overfill = net.seg(0) + 1;
        for i in 0..overfill as u32 {
            net.push(0, 0, 900.0 - f64::from(i), 2.0, 0, i, 0);
        }
        assert!(net.seg(0) > seg1, "road 0 re-segmented");
        assert_eq!(net.seg(1), seg1, "road 1 stride untouched");
        assert_eq!(net.seg(2), seg2, "road 2 stride untouched");
        assert_eq!(net.len(0, 0), overfill);
        for i in 0..overfill {
            assert_eq!(net.pos_at(0, 0, i), 900.0 - i as f64);
            assert_eq!(net.slot_at(0, 0, i), i as u32);
        }
        assert_eq!(net.pos_at(1, 1, 0), 42.0);
        assert_eq!(net.slot_at(1, 1, 0), 100);
        assert_eq!(net.link_at(1, 1, 0), 4);
        assert_eq!(net.pos_at(2, 0, 0), 77.0);
        let waits: Vec<u64> = net.all_waits().collect();
        assert_eq!(waits[overfill], 9, "road 1's wait survives the re-layout");
        net.verify_active().unwrap();
        assert_eq!(net.active_roads(), &[0, 1, 2]);
    }

    #[test]
    fn active_list_tracks_occupancy() {
        let mut net = NetworkLanes::new(&[(2, 4), (1, 4), (3, 4)]);
        assert!(net.active_roads().is_empty());
        net.push(1, 0, 50.0, 0.0, 0, 0, 0);
        assert_eq!(net.active_roads(), &[1]);
        net.push(2, 2, 10.0, 1.0, 0, 1, 0);
        net.push(0, 1, 20.0, 2.0, 0, 2, 0);
        assert_eq!(net.active_roads(), &[0, 1, 2], "sorted registration");
        net.verify_active().unwrap();
        net.pop_head(1, 0);
        assert_eq!(net.active_roads(), &[0, 2], "drained road deregisters");
        // A road with several occupied lanes stays active until the last
        // vehicle pops.
        net.push(0, 0, 30.0, 0.0, 0, 3, 0);
        net.pop_head(0, 1);
        assert_eq!(net.active_roads(), &[0, 2]);
        net.pop_head(0, 0);
        net.pop_head(2, 2);
        assert!(net.active_roads().is_empty());
        net.verify_active().unwrap();
        assert_eq!(net.total_vehicles(), 0);
    }

    #[test]
    fn steady_churn_never_regrows_storage() {
        // Landing/crossing churn at the plateau: the offset dequeue plus
        // amortized compaction keeps the arena's stride and allocation
        // fixed — the property `tests/perf_alloc.rs` measures end to end.
        let mut net = NetworkLanes::new(&[(1, 8)]);
        let seg0 = net.seg(0);
        for i in 0..8u32 {
            net.push(0, 0, 300.0 - f64::from(i) * 8.0, 0.0, 0, i, 0);
        }
        let ptr = net.pv.as_ptr();
        for i in 8..5000u32 {
            net.pop_head(0, 0);
            net.push(0, 0, 0.0, 0.0, 0, i, 0);
        }
        assert_eq!(net.seg(0), seg0, "stride stable under churn");
        assert!(
            std::ptr::eq(ptr, net.pv.as_ptr()),
            "no reallocation under churn"
        );
        assert_eq!(net.len(0, 0), 8);
        net.verify_active().unwrap();
    }

    #[test]
    fn load_lane_keeps_the_active_list_consistent() {
        // Restoring a lane over existing content must reconcile the live
        // count and the active list, both directions (emptying a road,
        // filling an empty one).
        let mut src = NetworkLanes::new(&[(1, 4), (1, 4)]);
        src.push(0, 0, 120.0, 5.0, 3, 11, 1);
        src.push(0, 0, 80.0, 4.0, 0, 12, 1);
        let mut w = StateWriter::new();
        src.save_lane(0, 0, &mut w);
        let empty = {
            let mut w = StateWriter::new();
            NetworkLanes::new(&[(1, 4)]).save_lane(0, 0, &mut w);
            w
        };

        let mut dst = NetworkLanes::new(&[(1, 4), (1, 4)]);
        dst.push(1, 0, 10.0, 0.0, 0, 99, 0);
        dst.load_lane(0, 0, &mut [true; 13], 3, &mut StateReader::new(w.bytes()))
            .unwrap();
        assert_eq!(dst.active_roads(), &[0, 1]);
        assert_eq!(dst.len(0, 0), 2);
        assert_eq!(dst.pos_at(0, 0, 0), 120.0);
        dst.verify_active().unwrap();
        // Now overwrite the occupied lane with an empty snapshot: the
        // road must deactivate.
        dst.load_lane(1, 0, &mut [], 0, &mut StateReader::new(empty.bytes()))
            .unwrap();
        assert_eq!(dst.active_roads(), &[0]);
        dst.verify_active().unwrap();
    }

    #[test]
    fn arena_recycles_slots() {
        use utilbp_core::LinkId;
        use utilbp_netgen::{IntersectionId, RoadId};
        let route = Arc::new(Route::new(
            RoadId::new(0),
            vec![(IntersectionId::new(0), LinkId::new(0))],
        ));
        let mut arena = VehicleArena::new();
        let a = arena.insert(VehicleId::new(10), Tick::new(3), Arc::clone(&route));
        let b = arena.insert(VehicleId::new(11), Tick::new(4), Arc::clone(&route));
        assert_ne!(a, b);
        assert_eq!(arena.id(a), VehicleId::new(10));
        arena.bump_hop(a);
        assert_eq!(arena.hop(a), 1);
        assert_eq!(arena.release(a), Tick::new(3));
        // The freed slot is reused (LIFO) and starts a fresh cursor.
        let c = arena.insert(VehicleId::new(12), Tick::new(5), route);
        assert_eq!(c, a);
        assert_eq!(arena.hop(c), 0);
        assert_eq!(arena.id(c), VehicleId::new(12));
        assert_eq!(arena.id(b), VehicleId::new(11));
    }

    #[test]
    fn crafted_huge_lengths_are_errors_not_aborts() {
        // A CRC-valid checkpoint can still carry any length word: readers
        // must refuse a length the stream cannot hold before allocating
        // (or re-segmenting) for it.
        let huge = |prefix: &[u64]| {
            let mut w = StateWriter::new();
            for &word in prefix {
                w.push(word);
            }
            w.push(0);
            w
        };
        let slab = huge(&[1 << 50]);
        assert!(matches!(
            VehicleArena::new().load_state(&mut StateReader::new(slab.bytes()), 1, Tick::new(1)),
            Err(StateError::Invalid {
                what: "arena slab length",
                ..
            })
        ));
        let free = huge(&[1, 1 << 50]);
        assert!(matches!(
            VehicleArena::new().load_state(&mut StateReader::new(free.bytes()), 1, Tick::new(1)),
            Err(StateError::Invalid {
                what: "arena free list length",
                ..
            })
        ));
        let lane = huge(&[1 << 40]);
        assert!(matches!(
            NetworkLanes::new(&[(1, 4)]).load_lane(
                0,
                0,
                &mut [],
                0,
                &mut StateReader::new(lane.bytes())
            ),
            Err(StateError::Invalid {
                what: "lane length",
                ..
            })
        ));
    }
}
