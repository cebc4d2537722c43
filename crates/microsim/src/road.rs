//! The data-oriented vehicle arena, the network-wide segmented SoA lane
//! storage, and the per-lane car-following update.
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
//!   `Arc<Route>`, and the route cursor (`hop`) — lives in the
//!   [`VehicleArena`], a slab keyed by a compact `u32` slot carried in the
//!   lane arrays. Only head release, landings, insertions and
//!   completions dereference it; car-following never does.
//! - The movement link a vehicle queues for is fixed while it is on a
//!   road, so each lane also caches it as a `u16` per vehicle — the
//!   `SharedMixed` movement counters never chase the `Arc<Route>` in the
//!   hot loop. The external id is cached alongside (a `u64` per vehicle)
//!   for the batched fidelity's counter-based dawdle streams, which key
//!   on `(seed, vehicle_id, tick)`.
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
//! vehicles) live as dense per-lane arrays on the *road* (see
//! `RoadSim` in the simulator), not in the lane storage: the sense phase
//! then reads short contiguous arrays instead of walking lane storage.
//! The advance functions here return per-step counter deltas — computed
//! at the *only* points where a vehicle's position or speed can change —
//! which the road folds into its arrays and sums; crossings, landings,
//! and insertions adjust them directly. The invariant (counter ≡ rescan
//! under the same [`SensorSpec`], via [`NetworkLanes::rescan_sensors`])
//! is enforced by `MicroSim::verify_sensors` and a dedicated regression
//! test.
//!
//! ## Waiting accumulators
//!
//! A vehicle's waiting ticks (speed below the SUMO threshold) accumulate
//! in the lane's `wait` array in the same pass that moves the vehicle,
//! ride along through junction boxes, and are flushed to the
//! `WaitingLedger` exactly once, at journey completion. Nothing scans the
//! fleet per tick to account waiting.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use utilbp_core::state::{StateError, StateReader, StateWriter};
use utilbp_core::LinkId;
use utilbp_metrics::VehicleId;
use utilbp_netgen::{IntersectionId, RoadId, Route};

use crate::config::MicroSimConfig;
use crate::counter_rng;
use crate::krauss::{next_speed, LeaderInfo};

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
    route: Vec<Arc<Route>>,
    hop: Vec<u32>,
    free: Vec<u32>,
}

impl VehicleArena {
    /// An empty arena.
    pub fn new() -> Self {
        VehicleArena::default()
    }

    /// Admits a vehicle starting its route; returns its slot.
    pub fn insert(&mut self, id: VehicleId, route: Arc<Route>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.id[i] = id;
                self.route[i] = route;
                self.hop[i] = 0;
                slot
            }
            None => {
                self.id.push(id);
                self.route.push(route);
                self.hop.push(0);
                (self.id.len() - 1) as u32
            }
        }
    }

    /// Retires a slot (journey complete); returns the external id.
    pub fn release(&mut self, slot: u32) -> VehicleId {
        self.free.push(slot);
        self.id[slot as usize]
    }

    /// The external id of a live slot.
    pub fn id(&self, slot: u32) -> VehicleId {
        self.id[slot as usize]
    }

    /// The route of a live slot.
    pub fn route(&self, slot: u32) -> &Arc<Route> {
        &self.route[slot as usize]
    }

    /// The route cursor: index of the next intersection to cross
    /// (== route length once on a boundary exit road).
    pub fn hop(&self, slot: u32) -> usize {
        self.hop[slot as usize] as usize
    }

    /// Advances the route cursor past a crossed intersection.
    pub fn bump_hop(&mut self, slot: u32) {
        self.hop[slot as usize] += 1;
    }

    /// Replaces a live slot's route (en-route replanning). The caller
    /// must preserve every hop up to and including the current cursor —
    /// the vehicle's lane (and, while crossing, its destination lane) is
    /// bound to that movement, and the lanes cache its link index.
    pub fn set_route(&mut self, slot: u32, route: Arc<Route>) {
        let i = slot as usize;
        debug_assert!(
            route.hops()[..=self.hop[i] as usize] == self.route[i].hops()[..=self.hop[i] as usize],
            "replanned route must preserve the committed prefix"
        );
        self.route[i] = route;
    }

    /// Serializes the slab: the free list exactly (its LIFO order decides
    /// future slot assignment, hence determinism), live slots in full,
    /// and freed slots not at all — their stale ids and routes are
    /// allocator residue, so normalizing them away makes
    /// save → load → save a byte-level fixed point.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.push_usize(self.id.len());
        writer.push_usize(self.free.len());
        for &slot in &self.free {
            writer.push_u32(slot);
        }
        let mut is_free = vec![false; self.id.len()];
        for &slot in &self.free {
            is_free[slot as usize] = true;
        }
        for (i, &freed) in is_free.iter().enumerate() {
            if freed {
                continue;
            }
            writer.push(self.id[i].raw());
            writer.push_u32(self.hop[i]);
            self.route[i].save_state(writer);
        }
    }

    /// Restores a slab saved by [`save_state`](Self::save_state). Freed
    /// slots come back holding a shared placeholder route until reuse.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a truncated stream, a slab or free
    /// list longer than the stream could hold, or a free-list entry out
    /// of range.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
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
        self.route.clear();
        self.hop.clear();
        self.id.resize(len, VehicleId::new(0));
        self.route.resize(len, Arc::clone(&placeholder));
        self.hop.resize(len, 0);
        for (i, &freed) in is_free.iter().enumerate() {
            if freed {
                continue;
            }
            self.id[i] = VehicleId::new(reader.take()?);
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
    pub detect_from: f64,
    /// Speed below which a vehicle counts as halted.
    pub halt_speed: f64,
}

impl SensorSpec {
    /// The spec for a road of `length` under `cfg`.
    pub fn for_road(length: f64, cfg: &MicroSimConfig) -> Self {
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
    /// step's head phase — consumed by [`advance_followers`].
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
/// - `id` — cached external [`VehicleId`] per vehicle, the batched
///   fidelity's dawdle-stream key. Maintained in exact mode too (one
///   store per admission) so switching fidelity never re-shapes storage.
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
    id: Vec<u64>,
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
    pub fn new(shapes: &[(usize, usize)]) -> Self {
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
            id: vec![0; start],
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

    /// Number of lanes of road `r`.
    pub fn num_lanes(&self, r: usize) -> usize {
        self.spans[r].num_lanes
    }

    /// Number of vehicles on lane `l` of road `r`.
    pub fn len(&self, r: usize, l: usize) -> usize {
        let m = self.meta(r, l);
        m.fill - m.head
    }

    /// Whether lane `l` of road `r` is empty.
    pub fn is_empty(&self, r: usize, l: usize) -> bool {
        let m = self.meta(r, l);
        m.head == m.fill
    }

    /// Vehicles on road `r`'s lanes (the incrementally maintained count
    /// behind the active-road list).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn road_len(&self, r: usize) -> usize {
        self.spans[r].live as usize
    }

    /// Total vehicles on lanes across the whole network.
    pub fn total_vehicles(&self) -> usize {
        self.spans.iter().map(|s| s.live as usize).sum()
    }

    /// Position of the `i`-th vehicle from the head of lane `l` of road
    /// `r`.
    pub fn pos_at(&self, r: usize, l: usize, i: usize) -> f64 {
        self.pv[self.lane_base(r, l) + self.meta(r, l).head + i][0]
    }

    /// Speed of the `i`-th vehicle from the head of lane `l` of road
    /// `r`.
    pub fn speed_at(&self, r: usize, l: usize, i: usize) -> f64 {
        self.pv[self.lane_base(r, l) + self.meta(r, l).head + i][1]
    }

    /// Arena slot of the `i`-th vehicle from the head of lane `l` of
    /// road `r`.
    pub fn slot_at(&self, r: usize, l: usize, i: usize) -> u32 {
        self.slot[self.lane_base(r, l) + self.meta(r, l).head + i]
    }

    /// Cached movement link index of the `i`-th vehicle from the head of
    /// lane `l` of road `r`.
    pub fn link_at(&self, r: usize, l: usize, i: usize) -> u16 {
        self.link[self.lane_base(r, l) + self.meta(r, l).head + i]
    }

    /// The active waiting accumulators of every vehicle in the network —
    /// roads in index order, lanes in order, head first (the canonical
    /// fleet-walk order shared with `fleet_digest` and `replan_routes`).
    pub fn all_waits(&self) -> impl Iterator<Item = u64> + '_ {
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
    pub fn push(
        &mut self,
        r: usize,
        l: usize,
        pos: f64,
        speed: f64,
        wait: u64,
        slot: u32,
        link: u16,
        id: u64,
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
        self.id[j] = id;
        self.road_live_add(r, 1);
    }

    /// Removes the head vehicle of lane `l` of road `r` (stop-line
    /// crossing); returns its arena slot and accumulated waiting.
    /// Segments are compacted amortizedly, so popping is O(1) and
    /// allocation-free. Maintains the live count / active-road list.
    pub fn pop_head(&mut self, r: usize, l: usize) -> (u32, u64) {
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
    pub fn tail_position(&self, r: usize, l: usize, length: f64) -> f64 {
        let m = self.meta(r, l);
        if m.head == m.fill {
            length
        } else {
            self.pv[self.lane_base(r, l) + m.fill - 1][0]
        }
    }

    /// Whether a new vehicle can be placed at `pos = 0` on lane `l` of
    /// road `r` while keeping jam spacing to the current tail.
    pub fn entry_clear(&self, r: usize, l: usize, length: f64, cfg: &MicroSimConfig) -> bool {
        self.tail_position(r, l, length) >= cfg.jam_spacing_m()
    }

    /// Number of vehicles on lane `l` of road `r` within `range` meters
    /// of the stop line — what a presence detector reports. O(n) rescan
    /// for arbitrary ranges; the road's dense counters answer the
    /// configured detector in O(1).
    pub fn detected(&self, r: usize, l: usize, length: f64, range: f64) -> u32 {
        self.live(r, l)
            .iter()
            .filter(|pv| pv[0] >= length - range)
            .count() as u32
    }

    /// Number of *halted* vehicles (speed below `halt_speed`) on lane
    /// `l` of road `r` within `range` meters of the stop line — what a
    /// SUMO-style jam detector reports. O(n) rescan; the road's dense
    /// counters answer whole-lane reads under the configured halt speed
    /// in O(1).
    #[allow(dead_code)] // kept for ad-hoc detector queries and tests
    pub fn halted(&self, r: usize, l: usize, length: f64, range: f64, halt_speed: f64) -> u32 {
        self.live(r, l)
            .iter()
            .filter(|pv| pv[0] >= length - range && pv[1] < halt_speed)
            .count() as u32
    }

    /// Recomputes lane `l` of road `r`'s sensor counters by rescanning
    /// (used when validating the incremental-sensing invariant kept in
    /// the road's dense counter arrays).
    pub fn rescan_sensors(&self, r: usize, l: usize, spec: SensorSpec) -> (u32, u32) {
        let live = self.live(r, l);
        let detected = live.iter().filter(|pv| pv[0] >= spec.detect_from).count() as u32;
        let halted = live.iter().filter(|pv| pv[1] < spec.halt_speed).count() as u32;
        (detected, halted)
    }

    /// Serializes lane `l` of road `r`'s logical content (head first).
    /// The `head` offset, the dequeued prefix, and the segment geometry
    /// (including the arena's road spans) are amortization artifacts,
    /// not state: restoring at `head = 0` yields identical physics, and
    /// canonicalizing makes save → load → save a fixed point. Cached ids
    /// are not written — they are derivable from the arena
    /// ([`refresh_ids_road`](Self::refresh_ids_road)), which keeps the
    /// wire format identical to the pre-arena per-road layout.
    pub fn save_lane(&self, r: usize, l: usize, writer: &mut StateWriter) {
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
    /// (checkpoints are taken at tick boundaries). Cached ids are left
    /// stale — the simulator rebuilds them from the restored arena via
    /// [`refresh_ids_road`](Self::refresh_ids_road) once both sides are
    /// loaded. The road's live count and the active list are maintained
    /// here, so a restore into a non-empty simulator stays consistent.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a truncated stream, a lane longer
    /// than the stream could hold, or a link word out of `u16` range.
    pub fn load_lane(
        &mut self,
        r: usize,
        l: usize,
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
            let slot = reader.take_u32()?;
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

    /// Rebuilds road `r`'s cached vehicle ids from the arena (slot →
    /// external id). Called once per road after a state restore, when
    /// both the lanes and the arena are loaded.
    pub fn refresh_ids_road(&mut self, r: usize, arena: &VehicleArena) {
        let span = self.spans[r];
        for l in 0..span.num_lanes {
            let m = self.lanes[span.lane0 + l];
            let base = span.start + l * span.seg;
            for j in base + m.head..base + m.fill {
                self.id[j] = arena.id(self.slot[j]).raw();
            }
        }
    }

    /// Number of roads currently holding vehicles.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// The `ai`-th active road (ascending road-index order).
    pub fn active_road(&self, ai: usize) -> usize {
        self.active[ai] as usize
    }

    /// The sorted active-road list (diagnostics and tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn active_roads(&self) -> &[u32] {
        &self.active
    }

    /// Validates the occupancy bookkeeping: every road's live count must
    /// equal the sum of its lane windows, and the active list must hold
    /// exactly the roads with `live > 0`, sorted and without duplicates.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first divergent road.
    pub fn verify_active(&self) -> Result<(), String> {
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
    pub fn follower_parts(&mut self) -> (LaneView<'_>, &[RoadSpan], &[u32]) {
        (
            LaneView {
                pv: &mut self.pv,
                wait: &mut self.wait,
                link: &self.link,
                id: &self.id,
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
        self.link.copy_within(src.clone(), base);
        self.id.copy_within(src, base);
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
        let mut id = vec![0u64; total];
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
                link[dst..dst + live].copy_from_slice(&self.link[src.clone()]);
                id[dst..dst + live].copy_from_slice(&self.id[src]);
                self.lanes[li].head = 0;
                self.lanes[li].fill = live;
            }
        }
        self.pv = pv;
        self.wait = wait;
        self.slot = slot;
        self.link = link;
        self.id = id;
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
/// metadata) and the read-only per-vehicle caches (`link`, `id`), indexed
/// by network-wide element and lane-meta indices. The `slot` array is
/// deliberately absent — the follower phase never touches it.
pub(crate) struct LaneView<'a> {
    pub(crate) pv: &'a mut [[f64; 2]],
    pub(crate) wait: &'a mut [u32],
    pub(crate) link: &'a [u16],
    pub(crate) id: &'a [u64],
    pub(crate) lanes: &'a mut [LaneMeta],
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
    pub total: Vec<u32>,
    /// Vehicles bound for each link within the detection window.
    pub detected: Vec<u32>,
}

impl MovementCounters {
    /// Counters for a destination layout with `num_links` links.
    pub fn new(num_links: usize) -> Self {
        MovementCounters {
            total: vec![0; num_links],
            detected: vec![0; num_links],
        }
    }

    /// Registers a vehicle bound for `link` appearing on the road.
    pub fn add(&mut self, link: usize, pos: f64, spec: SensorSpec) {
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

    /// Serializes both counter arrays.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.push_usize(self.total.len());
        for &v in &self.total {
            writer.push_u32(v);
        }
        for &v in &self.detected {
            writer.push_u32(v);
        }
    }

    /// Restores counters saved by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on a truncated stream or a link count
    /// that disagrees with this road's layout.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        let len = reader.take_usize()?;
        if len != self.total.len() {
            return Err(StateError::Invalid {
                what: "movement counter width",
                word: len as u64,
            });
        }
        for v in &mut self.total {
            *v = reader.take_u32()?;
        }
        for v in &mut self.detected {
            *v = reader.take_u32()?;
        }
        Ok(())
    }
}

/// Where a head vehicle's dawdle sample comes from — the one
/// fidelity-dependent ingredient of the (cold) head phase, so
/// the phase itself is shared between modes.
#[derive(Debug)]
pub(crate) enum DawdleSource<'a> {
    /// Exact mode: the road's sequential stream. Draw order is part of
    /// the bit-level contract.
    Stream(&'a mut SmallRng),
    /// Batched mode: stateless counter draws keyed on
    /// `(seed, vehicle_id, tick)` — see [`crate::counter_rng`].
    Counter {
        /// The configured dawdle seed.
        seed: u64,
        /// The tick being simulated.
        tick: u64,
    },
}

impl DawdleSource<'_> {
    /// The dawdle sample for `vehicle_id`, or 0 when dawdling is off.
    /// In exact mode this consumes one sequential draw (iff `σ > 0`),
    /// exactly like the pre-fidelity code path; `vehicle_id` is ignored.
    #[inline]
    fn draw(&mut self, cfg: &MicroSimConfig, vehicle_id: u64) -> f64 {
        if cfg.sigma <= 0.0 {
            return 0.0;
        }
        match self {
            DawdleSource::Stream(rng) => rng.gen::<f64>(),
            DawdleSource::Counter { seed, tick } => {
                counter_rng::dawdle_xi(*seed, vehicle_id, *tick)
            }
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
    pub crossed: Option<(u32, u64)>,
    /// Detection-window occupancy delta.
    pub detected_delta: i32,
    /// Halted-count delta.
    pub halted_delta: i32,
}

/// Advances only the head vehicle of lane `l` of road `r` by one step,
/// popping it and returning it in the outcome if it crossed the stop
/// line under [`HeadMode::Release`]. Records the crossing on the lane so
/// the follower phase ([`advance_followers`]) can run later without
/// re-deriving it.
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
    noise: &mut DawdleSource<'_>,
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
    let xi = noise.draw(cfg, net.id[j]);
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
    if new_speed < cfg.waiting_speed_mps {
        net.wait[j] += 1;
    }
    HeadOutcome {
        crossed: None,
        detected_delta: (new_pos >= spec.detect_from) as i32 - was_detected,
        halted_delta: (new_speed < spec.halt_speed) as i32 - was_halted,
    }
}

/// Advances every remaining vehicle of lane `l` of the road described by
/// `span` (sequential front-to-back Krauss update with an anti-overlap
/// clamp), streaming over the lane's contiguous position/speed/wait
/// spans inside `view`. Must be called exactly once after
/// [`advance_head`] each step for every lane of an *occupied* road
/// (roads skipped by the active list carry no vehicles and no pending
/// scratch that matters — see the module docs); independent across lanes
/// and roads. Vehicles ending the step at waiting speed accumulate a
/// waiting tick in place. Returns `(detected_delta, halted_delta)` for
/// the caller's dense counter arrays.
#[allow(clippy::too_many_arguments)]
pub(crate) fn advance_followers(
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

/// Residual net gap (meters) below which a stopped vehicle behind a
/// stationary leader freezes in the batched fidelity, instead of
/// creeping it shut at the exact dynamics\' ever-shrinking
/// running-minimum pace. Half a meter is well under the 2.5 m
/// standstill gap, is closed by a single tick of ordinary driving once
/// the queue discharges, and captures a stopping vehicle within a few
/// draws (each draw has a ~38% chance of landing at or below it).
const QUIESCE_GAP: f64 = 0.5;

/// The batched-fidelity counterpart of [`advance_followers`]: one call
/// advances every lane of a road under the batched numerical contract.
///
/// The recurrence is the *same* sequential front-to-back Krauss update
/// as exact mode — each follower reads its leader's already-advanced
/// state — so the car-following dynamics are identical and statistical
/// equivalence is inherited rather than approximated. What changes is
/// everything around the formula:
///
/// - **Road-granular dispatch.** Urban lanes are short (mean occupied
///   length is ~4 on the 10x10 bench workload), so a per-lane entry
///   point pays its call and setup cost once per handful of vehicles.
///   This kernel hoists every config-derived coefficient once per
///   *road* and streams all lanes from one frame.
/// - **Counter-based dawdling.** The draw for vehicle `v` at tick `t`
///   is a pure hash of `(seed, vehicle_id, tick)`
///   ([`counter_rng::dawdle_xi`]) — no generator state advances, so the
///   noise a vehicle sees is independent of visitation order, lane
///   membership, and (crucially) of *which vehicles were skipped*.
/// - **Queue freezing.** Exact Krauss queues never truly park: a
///   stopped follower's residual gap evolves as the running *minimum*
///   of its dawdle draws (`net_gap ← min(net_gap, ξ)`), so red-phase
///   queues creep forever at ever-smaller speeds, and every queued
///   vehicle pays the full update every tick. The batched contract cuts
///   this tail off: a vehicle at speed exactly `0` behind a stationary
///   leader with `net_gap ≤` [`QUIESCE_GAP`] *freezes* — speed and
///   position hold, only the waiting tick accrues — until the leader
///   moves again. The residual creep this suppresses is below
///   [`QUIESCE_GAP`] of position (the running minimum is already there
///   and only shrinks) at speeds almost always below the waiting
///   threshold, so macroscopic metrics can't see it; what it buys is
///   that a red-phase queue costs three compares and an increment per
///   vehicle instead of a hash, a divide, and the full bookkeeping.
///   Because the counter RNG consumes no stream, skipping the draw
///   perturbs no other vehicle's noise — the freeze is a local,
///   deterministic rule, not a source of cross-vehicle divergence.
///
/// Exact mode can do none of this: its per-road `SmallRng` must draw
/// once per vehicle in visitation order to keep its stream (and thus
/// its goldens) stable, so every vehicle pays the full update.
///
/// Per-lane sensor deltas fold into `lane_detected` / `lane_halted`;
/// the road totals are returned. Bit-identical to itself across repeats
/// and checkpoint restores; *not* bit-compatible with
/// [`advance_followers`] (the dawdle streams differ), which the
/// statistical-equivalence harness validates distributionally.
#[allow(clippy::too_many_arguments)]
pub(crate) fn advance_followers_batched_road(
    view: &mut LaneView<'_>,
    span: &RoadSpan,
    length: f64,
    cfg: &MicroSimConfig,
    spec: SensorSpec,
    seed: u64,
    tick: u64,
    mut movements: Option<&mut MovementCounters>,
    lane_detected: &mut [u32],
    lane_halted: &mut [u32],
) -> (i64, i64) {
    let LaneView {
        pv,
        wait,
        link,
        id,
        lanes,
    } = view;
    let seg = span.seg;
    let road_base = span.start;
    let meta = &mut lanes[span.lane0..span.lane0 + span.num_lanes];

    let dt = cfg.dt_seconds;
    let free_speed = cfg.free_speed_mps;
    let a_dt = cfg.max_accel * dt;
    let sigma_a_dt = cfg.sigma * cfg.max_accel * dt;
    let tau = cfg.reaction_time_s;
    // Reciprocal-multiply: exact mode's `v_bar = (v + v_l)/2` then
    // `v_bar/b` become one multiply by `0.5/b`.
    let half_inv_decel = 0.5 / cfg.max_decel;
    let gap_off = cfg.vehicle_length_m + cfg.min_gap_m;
    let inv_dt = 1.0 / dt;
    let waiting_speed = cfg.waiting_speed_mps;
    let clamp_off = cfg.vehicle_length_m + 0.05;
    let (detect_from, halt_speed) = (spec.detect_from, spec.halt_speed);
    // The `(seed, tick)` half of every draw key is the same for the
    // whole road-tick; only the per-vehicle fold remains in the loop.
    let xi_base = counter_rng::base(seed, tick);

    let mut road_detected = 0i64;
    let mut road_halted = 0i64;
    for (l, m) in meta.iter_mut().enumerate() {
        let start = if m.head_crossed { 0 } else { 1 };
        m.head_crossed = false;
        let n = m.fill - m.head;
        if n <= start {
            continue;
        }
        let h = road_base + l * seg + m.head;
        let f = h + start;
        let e = road_base + l * seg + m.fill;
        // The first follower's leader: the head's post-head-phase state,
        // or the stop line encoded as a standing virtual vehicle at
        // `length + gap_off` — algebraically identical to the exact
        // `Wall` branch (`net_gap = length − pos`). A zero-speed leader
        // is stationary by construction (`p = po + 0·dt`), so its
        // pre/post positions agree and the quiescence proof below holds
        // against either.
        let (mut leader_pos, mut leader_speed) = if start == 0 {
            (length + gap_off, 0.0)
        } else {
            (pv[h][0], pv[h][1])
        };
        let mut clamp_pos = if start == 0 { f64::INFINITY } else { pv[h][0] };
        let mut detected_delta = 0i64;
        let mut halted_delta = 0i64;
        for i in f..e {
            let [po, vo] = pv[i];
            let net_gap = leader_pos - po - gap_off;
            // Queue freeze: stopped behind a stationary leader with the
            // following distance almost used up — hold in place. No
            // bookkeeping delta is nonzero; only waiting accrues (a
            // frozen vehicle is below the waiting threshold by
            // definition).
            if vo == 0.0 && leader_speed == 0.0 && net_gap <= QUIESCE_GAP {
                wait[i] += 1;
                leader_pos = po;
                clamp_pos = po;
                continue;
            }
            let v_safe = leader_speed
                + (net_gap - leader_speed * tau) / ((vo + leader_speed) * half_inv_decel + tau);
            let v_des = free_speed.min(vo + a_dt).min(v_safe);
            let xi = if sigma_a_dt > 0.0 {
                sigma_a_dt * counter_rng::uniform01(counter_rng::finish(xi_base, id[i]))
            } else {
                0.0
            };
            let mut v = (v_des - xi).max(0.0);
            let mut p = po + v * dt;
            let max_pos = clamp_pos - clamp_off;
            if p > max_pos {
                p = max_pos.max(po);
                v = ((p - po) * inv_dt).max(0.0);
            }
            pv[i] = [p, v];
            detected_delta += (p >= detect_from) as i64 - (po >= detect_from) as i64;
            halted_delta += (v < halt_speed) as i64 - (vo < halt_speed) as i64;
            if let Some(mv) = movements.as_deref_mut() {
                mv.moved(link[i] as usize, po, p, spec);
            }
            if v < waiting_speed {
                wait[i] += 1;
            }
            leader_pos = p;
            leader_speed = v;
            clamp_pos = p;
        }
        if detected_delta != 0 {
            lane_detected[l] = (lane_detected[l] as i64 + detected_delta) as u32;
        }
        if halted_delta != 0 {
            lane_halted[l] = (lane_halted[l] as i64 + halted_delta) as u32;
        }
        road_detected += detected_delta;
        road_halted += halted_delta;
    }
    (road_detected, road_halted)
}

/// Advances every vehicle in lane `l` of road `r` by one step. Returns
/// the head's `(slot, wait)` if it crossed the stop line under
/// [`HeadMode::Release`].
///
/// Composition of [`advance_head`] and [`advance_followers`]. The
/// simulator calls the two phases separately (all heads first, then all
/// followers) because the exact head phase must read every lane's tail
/// from before the followers advance: a released head checks room on
/// its destination lane against that pre-follower tail.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn update_lane(
    net: &mut NetworkLanes,
    r: usize,
    l: usize,
    length: f64,
    head_mode: HeadMode,
    cfg: &MicroSimConfig,
    rng: &mut SmallRng,
) -> Option<(u32, u64)> {
    let spec = SensorSpec::for_road(length, cfg);
    let mut noise = DawdleSource::Stream(rng);
    let outcome = advance_head(net, r, l, length, head_mode, cfg, spec, &mut noise, None);
    let DawdleSource::Stream(rng) = noise else {
        unreachable!()
    };
    let (mut view, spans, _) = net.follower_parts();
    let span = spans[r];
    advance_followers(&mut view, &span, l, length, cfg, spec, rng, None);
    outcome.crossed
}

fn dawdle(cfg: &MicroSimConfig, rng: &mut SmallRng) -> f64 {
    if cfg.sigma > 0.0 {
        rng.gen::<f64>()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> MicroSimConfig {
        MicroSimConfig::deterministic()
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    /// A one-road, one-lane arena for the lane-level tests.
    fn lane() -> NetworkLanes {
        NetworkLanes::new(&[(1, 1)])
    }

    /// Pushes a vehicle (slot doubles as the test's vehicle id). Sensor
    /// counters live in the road's dense arrays, which these lane-level
    /// tests validate through `rescan_sensors` instead.
    fn push(net: &mut NetworkLanes, slot: u32, pos: f64, speed: f64, _spec: SensorSpec) {
        net.push(0, 0, pos, speed, 0, slot, 0, slot as u64);
    }

    fn spec300() -> SensorSpec {
        SensorSpec::for_road(300.0, &cfg())
    }

    /// Runs the exact follower kernel for lane `l` of road `r` through a
    /// throwaway full-range view.
    fn followers(
        net: &mut NetworkLanes,
        r: usize,
        l: usize,
        length: f64,
        c: &MicroSimConfig,
        spec: SensorSpec,
        rng: &mut SmallRng,
    ) -> (i64, i64) {
        let (mut view, spans, _) = net.follower_parts();
        let span = spans[r];
        advance_followers(&mut view, &span, l, length, c, spec, rng, None)
    }

    /// Manual follower-kernel timing probe (not a correctness test):
    /// `cargo test -p utilbp-microsim --release -- --ignored --nocapture kernel_timing`.
    #[test]
    #[ignore = "timing probe; run manually in release"]
    fn kernel_timing_probe() {
        use std::time::Instant;
        let c = MicroSimConfig::default();
        // Bench-workload shape: a handful of short occupied lanes per
        // road (mean occupied length ~4 at 10x10).
        const LANES: usize = 4;
        const N: usize = 4;
        const ITERS: usize = 500_000;
        let mut net = NetworkLanes::new(&[(LANES, 2 * N)]);
        let spec = SensorSpec::for_road(1000.0, &c);
        for l in 0..LANES {
            for i in 0..N {
                let s = (l * N + i) as u32;
                net.push(0, l, 900.0 - 15.0 * i as f64, 8.0, 0, s, 0, s as u64);
            }
        }
        let saved_pv = net.pv.clone();
        let mut r = rng();
        let t = Instant::now();
        for k in 0..ITERS {
            if k % 64 == 0 {
                net.pv.copy_from_slice(&saved_pv);
            }
            let (mut view, spans, _) = net.follower_parts();
            let span = spans[0];
            for l in 0..LANES {
                advance_followers(&mut view, &span, l, 1000.0, &c, spec, &mut r, None);
            }
        }
        let per = (ITERS * LANES * N) as f64;
        let exact_ns = t.elapsed().as_secs_f64() * 1e9 / per;
        let mut ld = [0u32; LANES];
        let mut lh = [0u32; LANES];
        let t = Instant::now();
        for k in 0..ITERS {
            if k % 64 == 0 {
                net.pv.copy_from_slice(&saved_pv);
            }
            let (mut view, spans, _) = net.follower_parts();
            let span = spans[0];
            advance_followers_batched_road(
                &mut view, &span, 1000.0, &c, spec, 7, k as u64, None, &mut ld, &mut lh,
            );
        }
        let batched_ns = t.elapsed().as_secs_f64() * 1e9 / per;
        eprintln!("exact {exact_ns:.2} ns/vehicle, batched {batched_ns:.2} ns/vehicle");
    }

    #[test]
    fn empty_lane_is_a_noop() {
        let mut net = lane();
        assert!(
            update_lane(&mut net, 0, 0, 300.0, HeadMode::Release, &cfg(), &mut rng()).is_none()
        );
    }

    #[test]
    fn blocked_head_stops_at_the_line() {
        let c = cfg();
        let mut net = lane();
        push(&mut net, 0, 250.0, c.free_speed_mps, spec300());
        let mut r = rng();
        for _ in 0..30 {
            let crossed = update_lane(&mut net, 0, 0, 300.0, HeadMode::Blocked, &c, &mut r);
            assert!(crossed.is_none(), "blocked head must never cross");
        }
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
        let c = cfg();
        let mut net = lane();
        push(&mut net, 7, 295.0, 10.0, spec300());
        let mut r = rng();
        let crossed = update_lane(&mut net, 0, 0, 300.0, HeadMode::Release, &c, &mut r);
        let (slot, _wait) = crossed.expect("head must cross");
        assert_eq!(slot, 7);
        assert!(net.is_empty(0, 0));
        assert_eq!(net.rescan_sensors(0, 0, spec300()), (0, 0));
    }

    #[test]
    fn queue_compacts_without_collisions() {
        let c = cfg();
        let mut net = lane();
        // Five vehicles strung out; head blocked at the line.
        for (i, pos) in [280.0, 220.0, 160.0, 100.0, 40.0].iter().enumerate() {
            push(&mut net, i as u32, *pos, 10.0, spec300());
        }
        let mut r = rng();
        for _ in 0..80 {
            update_lane(&mut net, 0, 0, 300.0, HeadMode::Blocked, &c, &mut r);
            // Strict ordering with at least a vehicle length between
            // consecutive front bumpers.
            for w in 0..net.len(0, 0) - 1 {
                let gap = net.pos_at(0, 0, w) - net.pos_at(0, 0, w + 1);
                assert!(
                    gap >= c.vehicle_length_m - 1e-6,
                    "overlap after step: gap {gap}"
                );
            }
        }
        // All stopped in a jam near the line at ~7.5 m spacing.
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
        net.push(0, 0, 295.0, 0.0, 0, 0, 0, 0);
        net.push(0, 0, 287.0, 0.0, 0, 1, 0, 1);
        net.push(0, 0, 100.0, 10.0, 0, 2, 0, 2); // far upstream
        assert_eq!(net.detected(0, 0, 300.0, 100.0), 2);
        assert_eq!(net.detected(0, 0, 300.0, 300.0), 3);
        assert_eq!(net.detected(0, 0, 300.0, 1.0), 0);
    }

    #[test]
    fn entry_clearance_respects_jam_spacing() {
        let c = cfg();
        let mut net = lane();
        assert!(net.entry_clear(0, 0, 300.0, &c), "empty lane is clear");
        net.push(0, 0, 8.0, 0.0, 0, 0, 0, 0);
        assert!(net.entry_clear(0, 0, 300.0, &c));
        net.push(0, 0, 6.0, 0.0, 0, 1, 0, 1);
        assert!(!net.entry_clear(0, 0, 300.0, &c), "tail at 6 m < 7.5 m");
        assert_eq!(net.tail_position(0, 0, 300.0), 6.0);
    }

    #[test]
    fn successor_of_crossed_head_sees_the_line() {
        let c = cfg();
        let mut net = lane();
        push(&mut net, 0, 296.0, 12.0, spec300());
        push(&mut net, 1, 285.0, 12.0, spec300());
        let mut r = rng();
        let crossed = update_lane(&mut net, 0, 0, 300.0, HeadMode::Release, &c, &mut r);
        assert!(crossed.is_some());
        assert_eq!(net.len(0, 0), 1);
        // The successor advanced but is still on the lane.
        assert!(net.pos_at(0, 0, 0) < 300.0);
        assert!(net.pos_at(0, 0, 0) > 285.0);
    }

    #[test]
    fn advance_deltas_track_every_mutation() {
        // The advance functions report sensor-counter deltas; applied to a
        // running pair they must match a from-scratch rescan every step —
        // the invariant `MicroSim` relies on for its dense counter arrays.
        let c = cfg();
        let spec = spec300();
        let mut net = lane();
        // One vehicle upstream of the 50 m window, one inside it, halted.
        push(&mut net, 0, 270.0, 0.0, spec);
        push(&mut net, 1, 100.0, 13.0, spec);
        let (mut detected, mut halted) = net.rescan_sensors(0, 0, spec);
        assert_eq!((detected, halted), (1, 1));

        let mut r = rng();
        for _ in 0..60 {
            let outcome = {
                let mut noise = DawdleSource::Stream(&mut r);
                advance_head(
                    &mut net,
                    0,
                    0,
                    300.0,
                    HeadMode::Blocked,
                    &c,
                    spec,
                    &mut noise,
                    None,
                )
            };
            let (dd, hd) = followers(&mut net, 0, 0, 300.0, &c, spec, &mut r);
            detected = (detected as i64 + outcome.detected_delta as i64 + dd) as u32;
            halted = (halted as i64 + outcome.halted_delta as i64 + hd) as u32;
            assert_eq!(
                (detected, halted),
                net.rescan_sensors(0, 0, spec),
                "deltas diverged from rescan"
            );
        }
        // Both vehicles end up jammed inside the window.
        assert_eq!((detected, halted), (2, 2));
    }

    #[test]
    fn waiting_accumulates_in_place_for_stopped_vehicles() {
        let c = cfg();
        let spec = spec300();
        let mut net = lane();
        push(&mut net, 0, 299.0, 0.0, spec);
        push(&mut net, 1, 150.0, c.free_speed_mps, spec);
        let mut r = rng();
        for _ in 0..40 {
            update_lane(&mut net, 0, 0, 300.0, HeadMode::Blocked, &c, &mut r);
        }
        // The head sat at the line the whole time; the follower drove,
        // then queued behind it.
        let waits: Vec<u64> = net.all_waits().collect();
        assert!(waits[0] >= 39, "head wait {waits:?}");
        assert!(
            waits[1] > 0 && waits[1] < waits[0],
            "follower waits less: {waits:?}"
        );
    }

    #[test]
    fn pop_head_compacts_storage() {
        let spec = spec300();
        let c = cfg();
        let mut net = lane();
        for i in 0..100u32 {
            push(
                &mut net,
                i,
                299.0 - f64::from(i) * c.jam_spacing_m(),
                0.0,
                spec,
            );
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
            net.push(
                0,
                1,
                1000.0 - f64::from(i),
                3.0,
                u64::from(i),
                i,
                2,
                u64::from(i),
            );
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
        net.push(1, 1, 42.0, 3.0, 9, 100, 4, 100);
        net.push(2, 0, 77.0, 1.0, 2, 200, 5, 200);
        let (seg1, seg2) = (net.seg(1), net.seg(2));
        let overfill = net.seg(0) + 1;
        for i in 0..overfill as u32 {
            net.push(0, 0, 900.0 - f64::from(i), 2.0, 0, i, 0, u64::from(i));
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
        net.push(1, 0, 50.0, 0.0, 0, 0, 0, 0);
        assert_eq!(net.active_roads(), &[1]);
        net.push(2, 2, 10.0, 1.0, 0, 1, 0, 1);
        net.push(0, 1, 20.0, 2.0, 0, 2, 0, 2);
        assert_eq!(net.active_roads(), &[0, 1, 2], "sorted registration");
        net.verify_active().unwrap();
        net.pop_head(1, 0);
        assert_eq!(net.active_roads(), &[0, 2], "drained road deregisters");
        // A road with several occupied lanes stays active until the last
        // vehicle pops.
        net.push(0, 0, 30.0, 0.0, 0, 3, 0, 3);
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
            net.push(0, 0, 300.0 - f64::from(i) * 8.0, 0.0, 0, i, 0, u64::from(i));
        }
        let ptr = net.pv.as_ptr();
        for i in 8..5000u32 {
            net.pop_head(0, 0);
            net.push(0, 0, 0.0, 0.0, 0, i, 0, u64::from(i));
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
        src.push(0, 0, 120.0, 5.0, 3, 11, 1, 11);
        src.push(0, 0, 80.0, 4.0, 0, 12, 1, 12);
        let mut w = StateWriter::new();
        src.save_lane(0, 0, &mut w);
        let empty = {
            let mut w = StateWriter::new();
            NetworkLanes::new(&[(1, 4)]).save_lane(0, 0, &mut w);
            w
        };

        let mut dst = NetworkLanes::new(&[(1, 4), (1, 4)]);
        dst.push(1, 0, 10.0, 0.0, 0, 99, 0, 99);
        dst.load_lane(0, 0, &mut StateReader::new(w.bytes()))
            .unwrap();
        assert_eq!(dst.active_roads(), &[0, 1]);
        assert_eq!(dst.len(0, 0), 2);
        assert_eq!(dst.pos_at(0, 0, 0), 120.0);
        dst.verify_active().unwrap();
        // Now overwrite the occupied lane with an empty snapshot: the
        // road must deactivate.
        dst.load_lane(1, 0, &mut StateReader::new(empty.bytes()))
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
        let a = arena.insert(VehicleId::new(10), Arc::clone(&route));
        let b = arena.insert(VehicleId::new(11), Arc::clone(&route));
        assert_ne!(a, b);
        assert_eq!(arena.id(a), VehicleId::new(10));
        arena.bump_hop(a);
        assert_eq!(arena.hop(a), 1);
        assert_eq!(arena.release(a), VehicleId::new(10));
        // The freed slot is reused (LIFO) and starts a fresh cursor.
        let c = arena.insert(VehicleId::new(12), route);
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
            VehicleArena::new().load_state(&mut StateReader::new(slab.bytes())),
            Err(StateError::Invalid {
                what: "arena slab length",
                ..
            })
        ));
        let free = huge(&[1, 1 << 50]);
        assert!(matches!(
            VehicleArena::new().load_state(&mut StateReader::new(free.bytes())),
            Err(StateError::Invalid {
                what: "arena free list length",
                ..
            })
        ));
        let lane = huge(&[1 << 40]);
        assert!(matches!(
            NetworkLanes::new(&[(1, 4)]).load_lane(0, 0, &mut StateReader::new(lane.bytes())),
            Err(StateError::Invalid {
                what: "lane length",
                ..
            })
        ));
    }
}
