//! The serving cluster and its discrete-event loop.
//!
//! A [`Cluster`] is one deployment of one engine kind on one hardware setup: either two
//! single-GPU instances behind the user-id router, or a single TP/PP instance spanning
//! both GPUs.  [`Cluster::run`] replays a workload trace (requests with Poisson arrival
//! times) against the deployment and produces the [`RunReport`] every figure of the
//! evaluation is computed from.
//!
//! # Parallel replay and epoch routing
//!
//! No event ever crosses instances: every event sits in one slot's queue and only
//! touches that slot's instance.  Replicated deployments therefore factor into
//! independent per-slot event loops.  The routing pass pushes each routed arrival
//! straight into its slot's queue, and [`Cluster::run`] serves the queues on a pool
//! of worker threads, then merges the per-slot records deterministically.
//! [`Cluster::run_sequential`], the single-threaded reference, serves the same
//! queues on one thread in one global time order (the earliest queue head across
//! all slots, ties by slot index).  The two produce *identical* records, makespan
//! and cache statistics, enforced by the `parallel_run_is_identical_to_sequential`
//! test.
//!
//! Routing is what could break that factoring: a policy that consults instance state
//! mid-epoch would couple the per-instance loops.  Instead, every replay is cut into
//! *epochs*, and the configured [`RoutingPolicy`](crate::routing) routes **all** of an
//! epoch's arrivals up front, in `(arrival time, request id)` order, against a
//! [`RouterSnapshot`] of the epoch-start state (modelled loads updated with the
//! pass's own decisions; for cache-aware policies, a borrow of every instance's KV
//! manager, which nothing can mutate until the pass ends) — mirroring the
//! snapshot-install/merge discipline of the shared network KV tier.  Both flavours
//! run the identical pass and fill the identical slot queues, so the replay is
//! byte-identical.
//!
//! Every entry point drives the same replay loop (see "Streaming replay").  The
//! materialised ones — [`Cluster::run`] and [`Cluster::run_sequential`] — stream
//! their slice in `(arrival time, trace index)` order, with trace indices as
//! request ids.  On a fixed, colocated fleet without propagation epochs, a
//! materialised trace replays as a single *replay window*: one epoch with no
//! boundary, routed against the window-start snapshot and simulated to
//! completion, with no barrier work.
//!
//! # Propagation epochs (`net_propagation_ms > 0`)
//!
//! With a finite [`EngineConfig::net_propagation_ms`] the replay is cut into
//! deterministic *propagation epochs* of that length.  Each epoch repeats the window
//! discipline in miniature, in lockstep across all instances:
//!
//! 1. every instance receives a [`NetKvPool::view_at`] view of the shared tier —
//!    the entries whose publish time (`spill time + delay`) has passed the epoch
//!    start, plus an append-only overlay for its own spills;
//! 2. the epoch's arrivals are routed in `(arrival time, request id)` order against
//!    a *fresh* [`RouterSnapshot`] (live loads carry queued work over from earlier
//!    epochs; cache-aware walks read the KV managers as this epoch's installs left
//!    them);
//! 3. the per-instance loops simulate strictly up to the epoch boundary — pending
//!    events beyond it stay queued — and the boundary is a barrier: every thread
//!    reaches it before the per-instance overlays merge back into the shared
//!    pool, deterministically in instance-id order — the one place the shared
//!    tier evicts — and the next epoch begins.
//!
//! A spill therefore surfaces on other instances at the first epoch boundary past
//! its publish time (between one and two delays after it happened) instead of at the
//! window's end, while the per-epoch factoring keeps the parallel replay
//! byte-identical to the sequential reference: within an epoch nothing crosses
//! instances, exactly as within a delay-zero window.  With `net_propagation_ms = 0`
//! a materialised trace replays as a single window, byte for byte what one epoch
//! longer than the trace produces (pinned by regression test).
//!
//! # Membership events (elastic fleet)
//!
//! The instance count itself can change mid-trace: [`Cluster::schedule_membership`]
//! registers join/drain events, and [`AutoscalerPolicy`](crate::AutoscalerPolicy)
//! derives further events from the routable fleet's load.  Every change is applied
//! at an epoch *boundary* — the one barrier where no instance is mid-simulation —
//! and is therefore a pure function of the trace and the completed epochs, so
//! parallel and sequential replay resize the fleet identically and the
//! byte-identity guarantee survives elasticity.  Joins reuse the lowest retired
//! slot (or grow the fleet) and enter warmed through the shared network tier;
//! drains stop receiving work, finish what they hold, spill their reusable KV into
//! the shared tier (the drain-to-net handoff) and retire at the first boundary
//! they reach idle.  Slots are never removed or renumbered, which keeps every
//! queued event's instance tag stable.  See `ARCHITECTURE.md` ("Membership
//! events") for the full determinism argument.
//!
//! # Streaming replay
//!
//! [`Cluster::run_stream`] replays an [`ArrivalStream`] — a generator of
//! event-time-ordered, identified arrivals — without ever materialising the trace:
//! arrivals are pulled lazily, buffered one epoch at a time, routed per epoch
//! (reusing one [`RoutingScratch`]'s buffers across epochs), and simulated
//! strictly to the epoch boundary.  Peak arrival memory is O(largest epoch),
//! which is what lets a million-request trace replay in a few hundred megabytes
//! instead of tens of gigabytes.
//!
//! Deployments with propagation epochs cut the stream every
//! `net_propagation_ms` and replay byte-identically to [`Cluster::run`] on the
//! materialised trace.  Everything else is cut into *chunks* by an adaptive
//! clock: the next chunk's length is a pure function of the arrival counts of
//! *completed* chunks — shorter under burst, longer when idle — so parallel and
//! sequential replay (and any rerun) cut the stream identically and the
//! byte-identity guarantee carries over unchanged.  The chunk cadence is a
//! routing-snapshot cadence only (state-dependent policies see refreshed loads
//! per chunk, which a single replay window by design does not), and the tier
//! snapshots are installed once up front and merged once at the end, exactly as
//! in a single window.
//!
//! Why the per-slot loops are sound: both flavours keep their replay state in the
//! same slot queues, and the one per-event step gets only one slot's `&mut`
//! instance, queue and records.  Each slot's queue is served in `(time, push
//! order)` by either flavour, and an event can push only into its own slot's
//! queue, so the order in which the flavours interleave *different* slots — the
//! only thing they differ in — cannot change a record.  Everything that does cross
//! slots (routing, handoff dispatch, membership, tier merges) runs on the calling
//! thread at the epoch barrier, identically in both flavours.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use simcore::{EventQueue, SimDuration, SimTime};

use kvcache::{CacheStats, DrainSpill, NetKvPool, NetPoolView, OffloadStats, ViewDelta};
use workload::{
    ArrivalPattern, ArrivalStream, InstanceRole, MembershipChange, MembershipSchedule,
    SliceArrivalStream, StreamedArrival,
};

use crate::baselines::engine_display_name;
use crate::config::{ConfigError, EngineConfig};
use crate::handoff::HandoffsInFlight;
use crate::instance::{EngineInstance, HandoffAdmission, InstanceProfile};
use crate::report::{RequestRecord, RunReport, SlotWindow, WindowMetrics};
use crate::request::PrefillRequest;
use crate::routing::{
    InstanceLoad, RouteQuery, RouterSnapshot, RoutingDecision, RoutingPolicy, RoutingReason,
};

/// Base chunk length of a streamed replay without propagation epochs (the chunk
/// clock adapts from here towards the arrival target).
const STREAM_CHUNK_BASE_MS: u64 = 1_000;
/// Arrivals per chunk the tierless streaming clock self-paces towards: large
/// enough to amortise the per-chunk routing snapshot, small enough that the
/// arrival buffer stays a sliver of a million-request trace.
const STREAM_CHUNK_TARGET_ARRIVALS: u64 = 4_096;
/// Ceiling on a tierless streaming chunk, so a long idle gap cannot grow the
/// chunk (and hence the arrival buffer) without bound.
const STREAM_CHUNK_MAX_MS: u64 = 60_000;

/// Why a workload could not be replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The longest request of the workload exceeds the engine's maximum input length —
    /// the ✗ entries of Table 2.
    WorkloadInfeasible {
        /// Longest request in the trace.
        max_request_tokens: u64,
        /// The engine's maximum input length.
        max_input_length: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::WorkloadInfeasible {
                max_request_tokens,
                max_input_length,
            } => write!(
                f,
                "workload needs requests of {max_request_tokens} tokens but the engine's \
                 maximum input length is {max_input_length}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// One event of a slot's event queue (the slot is implicit).
#[derive(Debug)]
enum InstanceEvent {
    /// A routed request arrives, with the routing pass's hash chain if it computed
    /// one (reused at enqueue).  Owns what simulation needs (token ownership is an
    /// `Arc` bump, not a copy), so the epoch's arrival buffer can be refilled while
    /// the event is still queued.
    Arrival(PrefillRequest, Option<Arc<Vec<kvcache::TokenBlockHash>>>),
    /// The instance may be able to admit another request: its first pipeline
    /// stage frees at this time.  Armed at most once per wake time (see
    /// [`SlotQueue::armed_admit`]).
    Admit,
    /// A running request finishes.
    Complete(u64),
}

/// One slot's replay queue, shared by both replay flavours.
#[derive(Debug, Default)]
struct SlotQueue {
    events: EventQueue<InstanceEvent>,
    /// Wake time of the last `Admit` pushed.  Every push is strictly in the future
    /// of the event being handled, so while a new wake time equals this one, that
    /// `Admit` has not popped yet and a second one would be a no-op: it would pop
    /// right behind the first, after the slot's last admission attempt at that time
    /// already came back empty with nothing changed since.
    armed_admit: Option<SimTime>,
}

/// Reusable buffers of a routing pass.  Epoch-driven replay routes thousands of
/// passes per window; this keeps the per-pass allocations — the decision and
/// hash-chain slots, and the [`RouterSnapshot`]'s load vector, recovered via
/// [`RouterSnapshot::into_loads`] after each pass — alive across epochs.
///
/// Public so routing benchmarks can measure a pass without re-paying the
/// allocations ([`Cluster::route_preview`]); replay entry points manage their
/// own scratch internally.
#[derive(Debug, Default)]
pub struct RoutingScratch {
    decisions: Vec<RoutingDecision>,
    hashes: Vec<Option<Arc<Vec<kvcache::TokenBlockHash>>>>,
    loads: Vec<InstanceLoad>,
}

impl RoutingScratch {
    /// Fresh, empty scratch (buffers grow to the largest epoch routed and stay).
    pub fn new() -> RoutingScratch {
        RoutingScratch::default()
    }

    /// The decisions of the most recent routing pass, one per batch position.
    pub fn decisions(&self) -> &[RoutingDecision] {
        &self.decisions
    }

    /// Takes the routing-time hash chain of one batch position, if any.
    fn take_hashes(&mut self, pos: usize) -> Option<Arc<Vec<kvcache::TokenBlockHash>>> {
        self.hashes.get_mut(pos).and_then(Option::take)
    }
}

/// Deterministic generator of epoch boundaries: the next boundary is a pure
/// function of the clock's kind and the arrival counts of completed epochs, so
/// parallel and sequential replay — and any number of reruns — cut the window
/// identically.
#[derive(Debug)]
struct EpochClock {
    /// Whether epoch lengths adapt to arrival counts ([`Self::chunking`]) or
    /// stay fixed ([`Self::fixed`]).
    adaptive: bool,
    len_ms: u64,
    boundary: SimTime,
}

impl EpochClock {
    /// Propagation epochs: every epoch is exactly `len_ms` long.
    fn fixed(len_ms: u64) -> EpochClock {
        debug_assert!(len_ms > 0, "epoch clocks need a finite length");
        EpochClock {
            adaptive: false,
            len_ms,
            boundary: SimTime::ZERO + SimDuration::from_millis(len_ms),
        }
    }

    /// The chunk clock of a streamed replay without propagation epochs: starts at
    /// [`STREAM_CHUNK_BASE_MS`] and self-paces towards
    /// [`STREAM_CHUNK_TARGET_ARRIVALS`] arrivals per chunk (see [`Self::advance`]).
    fn chunking() -> EpochClock {
        EpochClock {
            adaptive: true,
            ..EpochClock::fixed(STREAM_CHUNK_BASE_MS)
        }
    }

    /// End of the current epoch (exclusive: the epoch covers arrivals strictly
    /// before it).
    fn boundary(&self) -> SimTime {
        self.boundary
    }

    /// Closes the current epoch.  The chunk clock adapts the next chunk's length
    /// to the closed one's arrival count: it halves under burst (more than twice
    /// the target) and doubles when near-idle (less than half the target), within
    /// `[1, STREAM_CHUNK_MAX_MS]` ms.  A fixed clock never adapts.
    fn advance(&mut self, arrivals_in_epoch: u64) {
        if self.adaptive {
            if arrivals_in_epoch > STREAM_CHUNK_TARGET_ARRIVALS * 2 {
                self.len_ms = (self.len_ms / 2).max(1);
            } else if arrivals_in_epoch.saturating_mul(2) < STREAM_CHUNK_TARGET_ARRIVALS {
                self.len_ms = (self.len_ms * 2).min(STREAM_CHUNK_MAX_MS);
            }
        }
        self.boundary += SimDuration::from_millis(self.len_ms);
    }
}

/// Lifecycle state of one instance slot.  Slots are never removed or renumbered
/// (queued events tag instances by slot index), they only change state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Routable: the slot accepts new arrivals.
    Active {
        /// Whether the slot participates in the shared network tier
        /// (snapshot install/merge).  Cold joins stay detached for life.
        attached: bool,
    },
    /// Unroutable but still simulating: the slot finishes the work it holds and
    /// retires at the first epoch boundary it reaches idle.
    Draining {
        /// Carried over from the slot's active life.
        attached: bool,
        /// Whether retirement publishes the slot's reusable KV into the shared
        /// tier (the drain-to-net handoff).
        spill: bool,
    },
    /// Empty: the slot neither routes nor simulates, and the next join reuses it.
    Retired,
}

impl SlotState {
    /// Whether the slot takes part in shared-tier snapshot install/merge.
    fn attached(self) -> bool {
        matches!(
            self,
            SlotState::Active { attached: true } | SlotState::Draining { attached: true, .. }
        )
    }

    fn is_active(self) -> bool {
        matches!(self, SlotState::Active { .. })
    }
}

/// One membership change the replay applied, for observability (tests, the
/// elasticity ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedMembership {
    /// The epoch boundary the change was applied at.
    pub at: SimTime,
    /// What changed.
    pub change: MembershipChange,
    /// The instance slot affected.
    pub slot: usize,
    /// `true` when the autoscaler derived the change, `false` when it was
    /// scheduled via [`Cluster::schedule_membership`].
    pub autoscaled: bool,
}

/// One completed drain: the boundary the slot retired at and what its
/// drain-to-net spill published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainRecord {
    /// The slot that retired.
    pub slot: usize,
    /// The epoch boundary it reached idle (spill publish stamp).
    pub retired_at: SimTime,
    /// Drain-to-net spill accounting (all zeros for `spill: false` drains or
    /// tierless deployments).
    pub spill: DrainSpill,
}

/// A borrow-carrying job of one parallel batch: runs one instance's slice of the
/// window/epoch against state borrowed from the caller's stack frame.
type ScopedJob<'a> = Box<dyn FnOnce() + Send + 'a>;

/// What the workers pull: jobs erased to `'static` (sound because
/// [`WorkerPool::run_batch`] blocks until the whole batch completed — see its
/// safety comment).
type QueuedJob = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool's owner and its worker threads.
struct PoolShared {
    queue: Mutex<WorkerQueue>,
    work_ready: Condvar,
}

struct WorkerQueue {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

impl PoolShared {
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("worker pool poisoned");
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break Some(job);
                    }
                    if queue.shutdown {
                        break None;
                    }
                    queue = self.work_ready.wait(queue).expect("worker pool poisoned");
                }
            };
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }
}

/// One batch's completion latch: counts jobs down and carries the first panic
/// payload back to the submitting thread.
struct BatchLatch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl BatchLatch {
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("batch latch poisoned");
        state.remaining -= 1;
        if let Some(payload) = panic {
            state.panic.get_or_insert(payload);
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every job of the batch ran, then re-raises the first panic (the
    /// same observable behaviour as joining `std::thread::scope` handles).
    fn wait(&self) {
        let mut state = self.state.lock().expect("batch latch poisoned");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("batch latch poisoned");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

/// A persistent pool of worker threads for the parallel replay flavour.
///
/// `std::thread::scope` spawns and tears a thread down per instance *per epoch* —
/// measurable pure overhead at propagation-epoch cadence (thousands of boundaries
/// per fleet-scale window).  This pool spawns `available_parallelism - 1` workers
/// once (the submitting thread is the remaining lane: it drains the same queue
/// instead of idling, so a single-core host degrades to exactly the sequential
/// inline execution) and reuses them for every subsequent batch, across epochs
/// *and* replay windows.
///
/// [`Self::run_batch`] has `thread::scope` semantics: it returns only after every
/// job of the batch ran, and re-raises the first job panic.
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new() -> WorkerPool {
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .saturating_sub(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(WorkerQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Runs the batch to completion: queues every job for the workers, helps drain
    /// the queue from the submitting thread, then blocks until the last job
    /// finished (re-raising the first panic, if any).
    fn run_batch(&self, jobs: Vec<ScopedJob<'_>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Arc::new(BatchLatch {
            state: Mutex::new(BatchState {
                remaining: jobs.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock().expect("worker pool poisoned");
            for job in jobs {
                // SAFETY: the latch wait below keeps this stack frame alive until
                // every queued job has run to completion (panics included — the
                // catch_unwind still counts the latch down), so the `'a` borrows
                // the job captures strictly outlive the job.  This is the same
                // guarantee `std::thread::scope` provides, with the worker
                // threads outliving the scope instead of being joined by it.
                let job: QueuedJob =
                    unsafe { std::mem::transmute::<ScopedJob<'_>, ScopedJob<'static>>(job) };
                let latch = Arc::clone(&latch);
                queue.jobs.push_back(Box::new(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    latch.complete(result.err());
                }));
            }
            self.shared.work_ready.notify_all();
        }
        // Help drain the queue: the submitting thread is a full worker lane for
        // the duration of the batch (and the only one on a single-core host).
        loop {
            let job = {
                let mut queue = self.shared.queue.lock().expect("worker pool poisoned");
                queue.jobs.pop_front()
            };
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        latch.wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("worker pool poisoned");
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A deployment of one engine kind on one hardware setup.
pub struct Cluster {
    config: EngineConfig,
    instances: Vec<EngineInstance>,
    /// Lifecycle state of each slot of `instances` (same length, same order).
    slot_states: Vec<SlotState>,
    /// The shared instance profile (instances of one deployment are identical),
    /// kept so joins can build fresh instances mid-replay.
    profile: InstanceProfile,
    /// The pluggable routing layer (see [`crate::routing`]); selected via
    /// [`EngineConfig::routing`], persists its state (e.g. sticky assignments)
    /// across replay windows.
    router: Box<dyn RoutingPolicy + Send>,
    /// The deployment's shared network KV tier (`None` when
    /// `net_kv_capacity_bytes` is 0).  Snapshots of this pool are installed into
    /// every instance at the start of each replay window and merged back — in
    /// instance-id order, deterministically — at its end, so cross-instance sharing
    /// materialises *between* windows (modelling network-tier propagation delay)
    /// while each window's parallel replay stays byte-identical to the sequential
    /// reference.
    net_pool: Option<NetKvPool>,
    /// Blocks the shared pool displaced while absorbing warm seeds and barrier
    /// merges — the only places it evicts.  Merge churn happens at the cluster,
    /// not inside any instance, so it is accounted here and folded into the
    /// report's `OffloadStats::net_evicted_blocks` alongside the evictions of
    /// private pools.
    net_merge_evictions: u64,
    /// Trace-scheduled membership events (sorted by time), consumed at epoch
    /// boundaries; `membership_cursor` is the first event not yet applied.
    membership: MembershipSchedule,
    membership_cursor: usize,
    /// Epoch boundaries left before the autoscaler may fire again (reset to the
    /// policy's `cooldown_epochs` by every applied scale action).
    autoscaler_cooldown: u64,
    /// Every membership change applied so far, in application order.
    membership_log: Vec<AppliedMembership>,
    /// Every completed drain, with its spill accounting.
    drain_records: Vec<DrainRecord>,
    /// Lifetime statistics of departed instances whose slots were reused — folded
    /// into the aggregated run report so elasticity never loses accounting.
    retired_cache: CacheStats,
    retired_offload: OffloadStats,
    /// The persistent worker pool of the parallel replay flavour: spawned lazily on
    /// the first multi-instance parallel window and reused across every epoch and
    /// window thereafter (replacing per-epoch thread spawn/teardown).
    worker_pool: Option<WorkerPool>,
    /// In-flight prefill→decode KV handoffs of the disaggregation plane, drained
    /// at epoch boundaries exactly like published net-tier spills.
    handoffs: HandoffsInFlight,
    /// Per-boundary fleet samples collected when
    /// [`EngineConfig::track_window_metrics`] is set; drained into
    /// [`RunReport::windows`] by [`Self::finish_report`].
    window_metrics: Vec<WindowMetrics>,
}

impl Cluster {
    /// Builds the deployment: runs the instance profile **once** (instances of one
    /// deployment are identical), builds every engine instance from the shared
    /// profile, and sets up the routing policy plus the shared network KV tier.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EngineConfig::validate`]; use
    /// [`Self::try_new`] to handle invalid configurations as values.
    pub fn new(config: &EngineConfig) -> Cluster {
        Cluster::try_new(config).expect("invalid deployment configuration")
    }

    /// Builds the deployment, surfacing configuration problems (e.g. a hardware
    /// setup with zero instances, which no router can serve) as a typed
    /// [`ConfigError`] instead of a panic.
    pub fn try_new(config: &EngineConfig) -> Result<Cluster, ConfigError> {
        config.validate()?;
        let profile = InstanceProfile::new(config);
        let num_instances = config.num_instances() as usize;
        let instances = (0..num_instances)
            .map(|id| EngineInstance::with_profile(config, &profile, id))
            .collect();
        let net_pool = (config.net_kv_capacity_bytes > 0).then(|| {
            NetKvPool::new(config.net_kv_capacity_bytes, profile.kv_block_bytes())
                .with_propagation_delay(SimDuration::from_millis(config.net_propagation_ms))
        });
        let attached = net_pool.is_some();
        let router = config
            .routing
            .build(num_instances)
            .expect("validate() guarantees at least one instance");
        Ok(Cluster {
            config: config.clone(),
            instances,
            slot_states: vec![SlotState::Active { attached }; num_instances],
            profile,
            router,
            net_pool,
            net_merge_evictions: 0,
            membership: MembershipSchedule::default(),
            membership_cursor: 0,
            autoscaler_cooldown: 0,
            membership_log: Vec::new(),
            drain_records: Vec::new(),
            retired_cache: CacheStats::default(),
            retired_offload: OffloadStats::default(),
            worker_pool: None,
            handoffs: HandoffsInFlight::default(),
            window_metrics: Vec::new(),
        })
    }

    /// Builds the deployment with an already-warm shared network tier — the
    /// "cold instance joins a warm deployment" scenario: every instance starts with
    /// empty GPU and CPU caches, but the cluster tier already holds prefixes
    /// computed elsewhere.
    ///
    /// The warm contents are merged into a pool sized by *this* deployment's
    /// `net_kv_capacity_bytes` (newest-first survival if the warm set overflows it),
    /// so the seeding pool's own capacity never overrides the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation, the deployment's network tier
    /// is disabled (`net_kv_capacity_bytes` is 0), or `pool` was built for a
    /// different block geometry; use [`Self::try_with_warm_net_pool`] to handle all
    /// of these as typed [`ConfigError`]s instead.
    pub fn with_warm_net_pool(config: &EngineConfig, pool: NetKvPool) -> Cluster {
        Cluster::try_with_warm_net_pool(config, pool)
            .unwrap_or_else(|err| panic!("invalid warm-join deployment: {err}"))
    }

    /// Builds the warm-join deployment of [`Self::with_warm_net_pool`], surfacing
    /// every construction problem — an undeployable configuration, a disabled
    /// network tier, a warm pool of foreign block geometry — as a typed
    /// [`ConfigError`] at this boundary instead of a panic deep inside instance
    /// construction.
    pub fn try_with_warm_net_pool(
        config: &EngineConfig,
        pool: NetKvPool,
    ) -> Result<Cluster, ConfigError> {
        let mut cluster = Cluster::try_new(config)?;
        let own = cluster
            .net_pool
            .as_mut()
            .ok_or(ConfigError::WarmPoolNeedsNetTier)?;
        if own.block_bytes() != pool.block_bytes() {
            return Err(ConfigError::WarmPoolGeometryMismatch {
                deployment_block_bytes: own.block_bytes(),
                pool_block_bytes: pool.block_bytes(),
            });
        }
        cluster.net_merge_evictions += own.merge_from(&pool);
        Ok(cluster)
    }

    /// The shared network KV tier, if enabled.  Clone it to seed another deployment
    /// via [`Self::with_warm_net_pool`].
    pub fn net_pool(&self) -> Option<&NetKvPool> {
        self.net_pool.as_ref()
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine instances.  Slots are never removed: drained slots keep their
    /// departed instance (and its statistics) until a join reuses them.
    pub fn instances(&self) -> &[EngineInstance] {
        &self.instances
    }

    /// Schedules trace-time membership events for the next replay.  Events apply
    /// at the first epoch boundary at or after their time — a pure function of
    /// the trace, so parallel and sequential replay resize identically (see the
    /// module docs, "Membership events").  Replaces any previously scheduled,
    /// not-yet-applied events; events a replay already consumed do not reapply.
    pub fn schedule_membership(&mut self, schedule: MembershipSchedule) {
        self.membership = schedule;
        self.membership_cursor = 0;
    }

    /// Every membership change applied so far (scheduled and autoscaled), in
    /// application order.
    pub fn membership_log(&self) -> &[AppliedMembership] {
        &self.membership_log
    }

    /// Every completed drain (slot retired), with its drain-to-net spill
    /// accounting.
    pub fn drain_records(&self) -> &[DrainRecord] {
        &self.drain_records
    }

    /// Number of slots currently accepting new work.
    pub fn num_active_instances(&self) -> usize {
        self.slot_states
            .iter()
            .filter(|state| state.is_active())
            .count()
    }

    /// Maximum input length of the deployment (all instances are identical).
    pub fn max_input_length(&self) -> u64 {
        self.instances
            .first()
            .map(EngineInstance::max_input_length)
            .unwrap_or(0)
    }

    /// Whether every request of a workload with the given maximum length can be served.
    pub fn can_serve(&self, max_request_tokens: u64) -> bool {
        max_request_tokens <= self.max_input_length()
    }

    /// Replays a workload trace and returns the per-request records.
    ///
    /// `offered_qps` is recorded in the report for plotting; the arrival times
    /// themselves already encode the offered load.
    ///
    /// Replicated deployments simulate each slot's event loop as its own job on a
    /// worker pool (see the module docs); the report is identical to
    /// [`Self::run_sequential`].  A [`SortedTrace`](workload::SortedTrace) derefs to
    /// its slice and replays here without a re-sort.
    pub fn run(
        &mut self,
        arrivals: &[ArrivalPattern],
        offered_qps: f64,
    ) -> Result<RunReport, RunError> {
        let (max_request_tokens, sorted) = Self::scan_trace(arrivals);
        self.ensure_feasible(max_request_tokens)?;
        Ok(self.run_vec(arrivals, sorted, offered_qps, true))
    }

    /// The single-threaded reference implementation of [`Self::run`]: the same
    /// per-slot event queues, served on one thread in one global time order (the
    /// earliest queue head across all slots, ties by slot index).  Kept public so
    /// tests (and sceptical experimenters) can verify that the parallel path is
    /// behaviour-preserving.
    pub fn run_sequential(
        &mut self,
        arrivals: &[ArrivalPattern],
        offered_qps: f64,
    ) -> Result<RunReport, RunError> {
        let (max_request_tokens, sorted) = Self::scan_trace(arrivals);
        self.ensure_feasible(max_request_tokens)?;
        Ok(self.run_vec(arrivals, sorted, offered_qps, false))
    }

    /// Replays an [`ArrivalStream`] without ever materialising the trace: arrivals
    /// are pulled incrementally, buffered one epoch at a time, routed per epoch and
    /// simulated to the epoch boundary, so peak arrival memory is O(largest epoch)
    /// regardless of trace length — the million-request replay path (see the module
    /// docs, "Streaming replay").
    ///
    /// Deployments with propagation epochs enabled replay **byte-identically** to
    /// [`Self::run`] on the materialised trace (same boundaries, same per-epoch
    /// routing).  Without them the stream is still chunked (routing-snapshot cadence
    /// follows the chunks), and parallel replay stays byte-identical to
    /// [`Self::run_stream_sequential`] under every policy.
    ///
    /// # Errors
    ///
    /// Feasibility is checked as arrivals surface (a stream cannot be pre-scanned):
    /// an oversized request aborts the replay mid-run with
    /// [`RunError::WorkloadInfeasible`], with earlier epochs already simulated and
    /// cluster state (caches, router pins, shared tier) advanced.  Callers that need
    /// all-or-nothing semantics should validate the generator's maximum request
    /// length up front, as the materialised entry points do.
    ///
    /// # Panics
    ///
    /// Panics if the stream violates its contract by yielding arrivals out of event
    /// order.
    pub fn run_stream<S: ArrivalStream + ?Sized>(
        &mut self,
        stream: &mut S,
        offered_qps: f64,
    ) -> Result<RunReport, RunError> {
        self.run_stream_core(stream, offered_qps, true, Some(self.stream_clock()))
    }

    /// The single-threaded reference flavour of [`Self::run_stream`].
    pub fn run_stream_sequential<S: ArrivalStream + ?Sized>(
        &mut self,
        stream: &mut S,
        offered_qps: f64,
    ) -> Result<RunReport, RunError> {
        self.run_stream_core(stream, offered_qps, false, Some(self.stream_clock()))
    }

    /// The shared materialised-trace replay: streams the slice through
    /// [`Self::run_stream_core`] in `(arrival time, trace index)` order, with trace
    /// indices as request ids.  Deployments that need boundaries — propagation
    /// epochs, an elastic fleet, a handoff plane — cut them exactly as
    /// [`Self::run_stream`] does; everything else replays as one window (see the
    /// module docs).
    fn run_vec(
        &mut self,
        arrivals: &[ArrivalPattern],
        sorted: bool,
        offered_qps: f64,
        parallel: bool,
    ) -> RunReport {
        let mut stream = if sorted {
            SliceArrivalStream::from_sorted(arrivals)
        } else {
            SliceArrivalStream::sorting(arrivals)
        };
        let clock = self.needs_boundaries().then(|| self.stream_clock());
        self.run_stream_core(&mut stream, offered_qps, parallel, clock)
            .expect("feasibility is checked before streaming a slice")
    }

    /// The replay loop behind every entry point, in both flavours (see the module
    /// docs, "Streaming replay"): pull one epoch of arrivals, route it, simulate
    /// strictly to the epoch boundary, repeat.  Epoch-sharing deployments
    /// additionally install/merge tier snapshots at every boundary; everything else
    /// installs once up front and merges once at the end (chunk boundaries are then
    /// only a routing-snapshot and barrier cadence).
    ///
    /// `clock: None` replays a single window with no boundary at all: the whole
    /// stream is routed against one window-start snapshot and simulated to
    /// completion, with no barrier work.  Only fixed, colocated fleets without
    /// propagation epochs may replay so.
    fn run_stream_core<S: ArrivalStream + ?Sized>(
        &mut self,
        stream: &mut S,
        offered_qps: f64,
        parallel: bool,
        mut clock: Option<EpochClock>,
    ) -> Result<RunReport, RunError> {
        debug_assert!(
            clock.is_some() || !self.needs_boundaries(),
            "only fixed, colocated, epoch-free fleets replay as a single window"
        );
        let num_instances = self.instances.len();
        let epoch_sharing = self.uses_propagation_epochs();
        if epoch_sharing {
            // Spills of earlier windows have long since crossed the fabric: only
            // this window's spills are subject to the propagation delay (and
            // counted as mid-window propagated when reloaded).
            if let Some(pool) = &mut self.net_pool {
                pool.settle();
            }
        } else {
            self.install_net_snapshots();
        }

        let mut scratch = RoutingScratch::new();
        let mut epoch_buf: Vec<StreamedArrival> = Vec::new();

        // The replay state of both flavours: one event queue and record list per
        // slot.
        let mut queues: Vec<SlotQueue> = (0..num_instances).map(|_| SlotQueue::default()).collect();
        let mut per_instance: Vec<Vec<RequestRecord>> =
            (0..num_instances).map(|_| Vec::new()).collect();

        let max_input_length = self.max_input_length();
        let mut lookahead = stream.next_arrival();
        let mut last_arrival_time = SimTime::ZERO;
        let mut epoch_start = SimTime::ZERO;
        loop {
            let boundary = clock.as_ref().map(EpochClock::boundary);
            // Membership changes (scheduled and autoscaled) apply at the epoch
            // boundary — the one barrier where no instance is mid-simulation —
            // so they are a pure function of the trace and the completed epochs.
            if self.apply_membership_at(epoch_start, epoch_sharing) {
                // A join may have grown the fleet: give new slots replay state.
                while queues.len() < self.instances.len() {
                    queues.push(SlotQueue::default());
                    per_instance.push(Vec::new());
                }
            }
            epoch_buf.clear();
            while let Some(streamed) = lookahead.take() {
                if boundary.is_some_and(|b| streamed.arrival.arrival >= b) {
                    lookahead = Some(streamed);
                    break;
                }
                assert!(
                    streamed.arrival.arrival >= last_arrival_time,
                    "ArrivalStream contract violated: arrival of request {} at {} precedes {}",
                    streamed.id,
                    streamed.arrival.arrival,
                    last_arrival_time
                );
                last_arrival_time = streamed.arrival.arrival;
                let num_tokens = streamed.arrival.template.num_tokens();
                if num_tokens > max_input_length {
                    return Err(RunError::WorkloadInfeasible {
                        max_request_tokens: num_tokens,
                        max_input_length,
                    });
                }
                epoch_buf.push(streamed);
                lookahead = stream.next_arrival();
            }
            // The stream is exhausted: this is the final epoch, which drains to
            // completion instead of pausing at the boundary (the tail of a window
            // past its last epoch cut behaves like a delay-zero window).  A
            // disaggregated fleet keeps cutting boundaries instead — handoffs
            // emitted this epoch still have to cross the fabric and be decoded,
            // and both only happen at boundaries — and leaves the loop below
            // once the whole handoff plane has drained.
            let stream_done = lookahead.is_none();
            let disaggregated = self.fleet_disaggregated();
            let final_epoch = stream_done && !disaggregated;
            let sim_boundary = if final_epoch { None } else { boundary };

            if epoch_sharing {
                self.install_net_snapshots_visible(epoch_start);
            }
            self.route_stream_epoch(&epoch_buf, &mut scratch);
            for (pos, streamed) in epoch_buf.iter().enumerate() {
                let decision = scratch.decisions[pos];
                let template = &streamed.arrival.template;
                let request = PrefillRequest {
                    id: streamed.id,
                    user_id: template.user_id,
                    tokens: template.tokens.clone(),
                    decode_tokens: template.decode_tokens,
                    allowed_outputs: Vec::new(),
                    arrival: streamed.arrival.arrival,
                    routing: decision.reason,
                };
                queues[decision.instance].events.push(
                    streamed.arrival.arrival,
                    InstanceEvent::Arrival(request, scratch.take_hashes(pos)),
                );
            }

            if !parallel {
                Self::simulate_interleaved_until(
                    &mut self.instances,
                    &mut queues,
                    &mut per_instance,
                    sim_boundary,
                );
            } else if self.instances.len() == 1 {
                Self::simulate_instance_until(
                    &mut self.instances[0],
                    &mut queues[0],
                    &mut per_instance[0],
                    sim_boundary,
                );
            } else {
                let pool = self.worker_pool.get_or_insert_with(WorkerPool::new);
                let jobs: Vec<ScopedJob> = self
                    .instances
                    .iter_mut()
                    .zip(&mut queues)
                    .zip(&mut per_instance)
                    .map(|((instance, queue), instance_records)| {
                        Box::new(move || {
                            Self::simulate_instance_until(
                                instance,
                                queue,
                                instance_records,
                                sim_boundary,
                            );
                        }) as ScopedJob
                    })
                    .collect();
                pool.run_batch(jobs);
            }

            // A single window has no boundary, hence no barrier: it ends here.
            let Some(clock) = clock.as_mut() else {
                break;
            };
            let boundary = clock.boundary();
            // The handoff plane: collect every KV handoff the epoch's prefill
            // passes emitted (slot-index order, on this thread — a barrier
            // action exactly like the snapshot merge below) and admit the ones
            // whose fabric transfer has completed onto decode-capable slots.
            if disaggregated {
                self.collect_handoffs();
                self.dispatch_ready_handoffs(boundary, &mut queues);
            }
            // Draining slots that reached the boundary idle retire now: the
            // drain-to-net spill publishes into the slot's installed snapshot
            // before the merge below folds it into the shared pool.
            self.retire_idle_drains(boundary, epoch_sharing);
            if epoch_sharing {
                self.merge_net_snapshots();
            }
            if self.config.track_window_metrics {
                self.sample_window(boundary);
            }
            if final_epoch {
                break;
            }
            // Disaggregated drain-out: the stream is done and nothing is left
            // anywhere — no in-flight handoff, no queued event, no instance
            // holding work — so later boundaries would be empty spins.
            if stream_done
                && self.handoffs.is_empty()
                && queues.iter().all(|queue| queue.events.is_empty())
                && self
                    .instances
                    .iter()
                    .all(|i| i.queue_len() == 0 && i.running_len() == 0)
            {
                break;
            }
            clock.advance(epoch_buf.len() as u64);
            epoch_start = boundary;
        }
        if !epoch_sharing {
            self.merge_net_snapshots();
        }
        debug_assert!(queues.iter().all(|queue| queue.events.is_empty()));
        Ok(self.finish_report(per_instance.into_iter().flatten().collect(), offered_qps))
    }

    /// The epoch clock of one streamed replay: epoch-sharing deployments cut at the
    /// configured propagation delay; everything else chunks purely for bounded
    /// arrival memory ([`EpochClock::chunking`]).
    fn stream_clock(&self) -> EpochClock {
        // A disaggregated fleet's KV handoffs ride the same inter-node fabric as
        // published spills, so the propagation delay sets the boundary cadence
        // even when the shared KV tier itself is disabled — otherwise the
        // arrival-memory chunking below would stretch epochs far past the
        // fabric's actual surfacing latency.
        if self.uses_propagation_epochs()
            || (self.fleet_disaggregated() && self.config.net_propagation_ms > 0)
        {
            return EpochClock::fixed(self.config.net_propagation_ms);
        }
        EpochClock::chunking()
    }

    /// Routes one epoch's batch into `scratch` (a decision per batch position, plus
    /// the hash chains computed for probing) with one snapshot pass over the
    /// prefill-capable slots, reusing the scratch's load buffer across epochs.
    fn route_stream_epoch(&mut self, batch: &[StreamedArrival], scratch: &mut RoutingScratch) {
        let num_instances = self.instances.len();
        let needs_probe = self.router.needs_prefix_probe();
        let block_size = self.config.block_size;
        scratch.decisions.clear();
        scratch.decisions.resize(
            batch.len(),
            RoutingDecision {
                instance: 0,
                reason: RoutingReason::Direct,
            },
        );
        scratch.hashes.clear();
        scratch
            .hashes
            .resize(if needs_probe { batch.len() } else { 0 }, None);
        if batch.is_empty() {
            return;
        }

        let mut snapshot = Self::capture_snapshot(
            &self.instances,
            self.config.block_size,
            needs_probe,
            self.prefill_capable_slots(),
            std::mem::take(&mut scratch.loads),
        );
        // A residency-free snapshot answers depth 0 to every probe, so hashing the
        // arrivals would be pure cost: skip it and let the instance compute the
        // (identical, content-determined) chain at enqueue — which on the parallel
        // path also moves that work off the sequential routing pass.
        let hashing = needs_probe && snapshot.has_prefix_residency();
        for (pos, streamed) in batch.iter().enumerate() {
            let arrival = &streamed.arrival;
            let hashes =
                hashing.then(|| Arc::new(arrival.template.tokens.block_hashes(block_size)));
            let query = RouteQuery {
                user_id: arrival.template.user_id,
                num_tokens: arrival.template.num_tokens(),
                hashes: hashes.as_deref().map_or(&[], Vec::as_slice),
            };
            let decision = self.router.route(&query, &snapshot);
            assert!(
                decision.instance < num_instances,
                "routing policy chose instance {} of {num_instances}",
                decision.instance
            );
            snapshot.note_routed(decision.instance, arrival.template.num_tokens());
            scratch.decisions[pos] = decision;
            if let Some(hashes) = hashes {
                scratch.hashes[pos] = Some(hashes);
            }
        }
        scratch.loads = snapshot.into_loads();
    }

    /// Runs one routing pass over a batch without simulating it — the benchmark
    /// hook behind the `routing_pass` µs/arrival metric.  Reuses `scratch` exactly
    /// as replay does, so the measurement sees steady-state allocation behaviour.
    /// Note that the router's persistent state (sticky pins) advances with every
    /// call, exactly as it would during replay.
    pub fn route_preview(&mut self, batch: &[StreamedArrival], scratch: &mut RoutingScratch) {
        self.route_stream_epoch(batch, scratch);
    }

    /// Captures the [`RouterSnapshot`] of the *current* instance state over the
    /// `routable` slots, reusing the given load buffer (pass an empty vector when
    /// there is nothing to recycle).  With `needs_probe` the snapshot borrows every
    /// instance's live KV manager, so nothing can mutate one while it routes.  An
    /// associated function rather than a method, so the caller can still borrow
    /// the router mutably while the snapshot holds the instances.
    fn capture_snapshot<'a>(
        instances: &'a [EngineInstance],
        block_size: usize,
        needs_probe: bool,
        routable: Vec<usize>,
        mut loads: Vec<InstanceLoad>,
    ) -> RouterSnapshot<'a> {
        loads.clear();
        loads.extend(instances.iter().map(EngineInstance::router_load));
        let kv = if needs_probe {
            instances.iter().map(EngineInstance::kv).collect()
        } else {
            Vec::new()
        };
        let (cpu_hit_discount, net_hit_discount) = instances
            .first()
            .map(|i| (i.cpu_hit_discount(), i.net_hit_discount()))
            .unwrap_or((0.0, 0.0));
        let pool_capacity_blocks = instances
            .first()
            .map(|i| i.kv_pool_tokens() / block_size as u64)
            .unwrap_or(0);
        RouterSnapshot::new(
            loads,
            kv,
            block_size,
            pool_capacity_blocks,
            cpu_hit_discount,
            net_hit_discount,
        )
        .with_routable_slots(routable)
    }

    /// Whether replay windows are subdivided into propagation epochs.  The delay is
    /// a property of the shared network tier, so with the tier disabled the knob is
    /// inert — there is nothing to propagate, and taking the epoch path anyway
    /// would change the routing-snapshot cadence of the tierless baseline an
    /// ablation compares against.
    fn uses_propagation_epochs(&self) -> bool {
        self.config.net_propagation_ms > 0 && self.net_pool.is_some()
    }

    /// Whether the next replay must take the epoch loop even without propagation
    /// epochs: pending membership events, a configured autoscaler, or a fleet
    /// that is not uniformly active (draining slots need epoch boundaries to
    /// retire) all require boundaries to apply changes at.
    fn elastic_replay(&self) -> bool {
        self.membership_cursor < self.membership.len()
            || self.config.autoscaler.is_some()
            || self.slot_states.iter().any(|state| !state.is_active())
    }

    /// Whether a replay must cut epoch boundaries: propagation epochs, membership
    /// changes and the handoff plane all act at boundaries.  Everything else may
    /// replay a materialised trace as a single window.
    fn needs_boundaries(&self) -> bool {
        self.uses_propagation_epochs() || self.elastic_replay() || self.fleet_disaggregated()
    }

    /// Indices of the routable slots, ascending.
    fn active_slots(&self) -> Vec<usize> {
        self.slot_states
            .iter()
            .enumerate()
            .filter_map(|(slot, state)| state.is_active().then_some(slot))
            .collect()
    }

    /// Indices of the active slots whose role runs the prefill phase, ascending —
    /// the only slots arrivals may route to.  Equal to [`Self::active_slots`] on a
    /// uniformly colocated fleet, so role-free deployments replay byte for byte.
    fn prefill_capable_slots(&self) -> Vec<usize> {
        self.slot_states
            .iter()
            .enumerate()
            .filter_map(|(slot, state)| {
                (state.is_active() && self.instances[slot].role().can_prefill()).then_some(slot)
            })
            .collect()
    }

    /// Whether any live (non-retired) slot carries a dedicated phase role.  Such
    /// fleets always replay through the epoch loop: the KV handoff plane needs
    /// boundaries to surface transfers at, even with propagation epochs disabled.
    fn fleet_disaggregated(&self) -> bool {
        self.slot_states.iter().enumerate().any(|(slot, state)| {
            !matches!(state, SlotState::Retired)
                && self.instances[slot].role() != InstanceRole::Colocated
        })
    }

    /// Drains every instance's handoff outbox (slot-index order) into the
    /// in-flight handoffs.
    fn collect_handoffs(&mut self) {
        for slot in 0..self.instances.len() {
            for handoff in self.instances[slot].take_handoffs() {
                self.handoffs.push(handoff);
            }
        }
    }

    /// Admits every handoff whose fabric transfer completed by `boundary` onto the
    /// least-loaded active decode-capable slot (modelled outstanding tokens plus
    /// what this boundary already assigned, ties by slot index).  Runs at the
    /// barrier on the calling thread, so parallel and sequential replay assign —
    /// and hence replay — identically.  Admissions the slot cannot hold yet are
    /// re-enqueued for the next boundary; chains larger than an empty pool are
    /// dropped (counted by the decode instance as rejected).
    fn dispatch_ready_handoffs(&mut self, boundary: SimTime, queues: &mut [SlotQueue]) {
        let ready = self.handoffs.take_ready(boundary);
        if ready.is_empty() {
            return;
        }
        let mut assigned: Vec<u64> = vec![0; self.instances.len()];
        for handoff in ready {
            let Some(target) = self.least_loaded_decode_slot(&assigned) else {
                // No decode-capable slot is active right now (mid-drain churn):
                // keep the handoff in flight and retry at the next boundary.
                self.handoffs.requeue(handoff);
                continue;
            };
            let tokens = handoff.request.num_tokens();
            match self.instances[target].admit_handoff(handoff, boundary) {
                HandoffAdmission::Admitted(started) => {
                    assigned[target] += tokens;
                    queues[target].events.push(
                        started.completion,
                        InstanceEvent::Complete(started.request_id),
                    );
                }
                HandoffAdmission::Retry(handoff) => self.handoffs.requeue(handoff),
                HandoffAdmission::Rejected => {}
            }
        }
    }

    /// The active decode-capable slot with the least modelled load, or `None` when
    /// no such slot is active.  `assigned` carries the tokens this boundary's
    /// earlier dispatches already placed, so one boundary spreads a burst of
    /// ready handoffs instead of stacking them all on one slot.
    fn least_loaded_decode_slot(&self, assigned: &[u64]) -> Option<usize> {
        self.slot_states
            .iter()
            .enumerate()
            .filter(|&(slot, state)| state.is_active() && self.instances[slot].role().can_decode())
            .min_by_key(|&(slot, _)| {
                (
                    self.instances[slot].router_load().outstanding_tokens + assigned[slot],
                    slot,
                )
            })
            .map(|(slot, _)| slot)
    }

    /// Samples the fleet at one epoch boundary into the time-series export
    /// ([`EngineConfig::track_window_metrics`]): per-slot gauges for every
    /// non-retired slot plus fleet-cumulative tier and handoff counters.  Pure
    /// observation at the barrier — the replay itself is untouched.
    fn sample_window(&mut self, boundary: SimTime) {
        let offload = self.aggregate_offload_stats();
        let slots = self
            .slot_states
            .iter()
            .enumerate()
            .filter(|(_, state)| !matches!(state, SlotState::Retired))
            .map(|(slot, _)| {
                let instance = &self.instances[slot];
                let load = instance.router_load();
                SlotWindow {
                    slot,
                    role: instance.role(),
                    queued_requests: load.queued_requests,
                    outstanding_tokens: load.outstanding_tokens,
                    running_requests: instance.running_len() as u64,
                    gpu_cached_blocks: instance.gpu_cached_blocks(),
                    cpu_resident_blocks: instance.cpu_resident_blocks(),
                }
            })
            .collect();
        self.window_metrics.push(WindowMetrics {
            window: self.window_metrics.len() as u64,
            boundary,
            slots,
            net_resident_blocks: self.net_pool.as_ref().map_or(0, NetKvPool::resident_blocks),
            offloaded_blocks: offload.offloaded_blocks,
            reloaded_blocks: offload.reloaded_blocks,
            net_reloaded_blocks: offload.net_reloaded_blocks,
            handoff_records: offload.handoff_records,
            handoff_bytes: offload.handoff_bytes,
        });
    }

    /// Applies every scheduled membership event due at `epoch_start`, then —
    /// once at least one epoch has completed — gives the autoscaler one
    /// decision, subject to its cooldown.  Returns `true` when the fleet
    /// changed, so the caller can grow its per-slot replay state.
    fn apply_membership_at(&mut self, epoch_start: SimTime, epoch_sharing: bool) -> bool {
        let mut changed = false;
        while let Some(&event) = self.membership.events().get(self.membership_cursor) {
            if event.at > epoch_start {
                break;
            }
            self.membership_cursor += 1;
            if self.apply_change(event.change, epoch_start, false, epoch_sharing) {
                changed = true;
                self.reset_autoscaler_cooldown();
            }
        }
        if epoch_start > SimTime::ZERO {
            if self.autoscaler_cooldown > 0 {
                self.autoscaler_cooldown -= 1;
            } else if let Some(change) = self.autoscaler_decision() {
                if self.apply_change(change, epoch_start, true, epoch_sharing) {
                    changed = true;
                    self.reset_autoscaler_cooldown();
                }
            }
        }
        changed
    }

    fn reset_autoscaler_cooldown(&mut self) {
        self.autoscaler_cooldown = self
            .config
            .autoscaler
            .map_or(0, |policy| policy.cooldown_epochs);
    }

    /// The autoscaler's decision against completed-epoch state: the mean
    /// outstanding tokens per routable instance, compared to the thresholds
    /// under the min/max fleet clamps (see [`crate::AutoscalerPolicy`]).
    fn autoscaler_decision(&self) -> Option<MembershipChange> {
        let policy = self.config.autoscaler?;
        let active = self.active_slots();
        let mean_outstanding = active
            .iter()
            .map(|&slot| self.instances[slot].router_load().outstanding_tokens)
            .sum::<u64>()
            / active.len() as u64;
        if mean_outstanding > policy.scale_up_outstanding_tokens
            && active.len() < policy.max_instances
        {
            // Autoscaled joins are colocated: they relieve pressure on either
            // phase without re-planning the fleet's prefill:decode ratio.
            Some(MembershipChange::Join {
                attached: true,
                role: InstanceRole::Colocated,
            })
        } else if mean_outstanding < policy.scale_down_outstanding_tokens
            && active.len() > policy.min_instances
        {
            Some(MembershipChange::Drain { spill: true })
        } else {
            None
        }
    }

    /// Applies one membership change at the boundary `at`.  Joins reuse the
    /// lowest retired slot (folding the departed instance's statistics into the
    /// retired accumulators) or grow the fleet; drains mark the highest active
    /// slot as draining.  A drain that would leave no routable instance is
    /// ignored — requests must stay servable.
    fn apply_change(
        &mut self,
        change: MembershipChange,
        at: SimTime,
        autoscaled: bool,
        epoch_sharing: bool,
    ) -> bool {
        match change {
            MembershipChange::Join { attached, role } => {
                let attached = attached && self.net_pool.is_some();
                let slot = match self
                    .slot_states
                    .iter()
                    .position(|state| matches!(state, SlotState::Retired))
                {
                    Some(slot) => {
                        let fresh = EngineInstance::with_profile(&self.config, &self.profile, slot);
                        let old = std::mem::replace(&mut self.instances[slot], fresh);
                        Self::accumulate_cache(&mut self.retired_cache, &old.cache_stats());
                        self.retired_offload.merge(&old.offload_stats());
                        slot
                    }
                    None => {
                        let slot = self.instances.len();
                        self.instances.push(EngineInstance::with_profile(
                            &self.config,
                            &self.profile,
                            slot,
                        ));
                        self.slot_states.push(SlotState::Retired);
                        slot
                    }
                };
                self.instances[slot].set_role(role);
                self.slot_states[slot] = SlotState::Active { attached };
                // Epoch-sharing replays install a visibility-filtered view right
                // after membership applies; single-install replays hand the
                // joiner its window-start view now.
                if attached && !epoch_sharing {
                    if let Some(pool) = &self.net_pool {
                        self.instances[slot].install_net_view(pool.view());
                    }
                }
                self.membership_log.push(AppliedMembership {
                    at,
                    change,
                    slot,
                    autoscaled,
                });
                true
            }
            MembershipChange::Drain { spill } => {
                let active = self.active_slots();
                if active.len() <= 1 {
                    return false;
                }
                let slot = *active.last().expect("checked non-empty");
                // A drain may not strand either serving phase: the survivors
                // must be able to prefill (or nothing routes), and any surviving
                // `Prefill`-role slot needs a decode-capable peer to hand off
                // to.  Uniformly colocated fleets always pass both checks, so
                // role-free drains behave exactly as before.
                let survivors = &active[..active.len() - 1];
                let can_prefill = survivors
                    .iter()
                    .any(|&s| self.instances[s].role().can_prefill());
                let can_decode = survivors
                    .iter()
                    .any(|&s| self.instances[s].role().can_decode());
                let needs_decode = survivors
                    .iter()
                    .any(|&s| self.instances[s].role() == InstanceRole::Prefill);
                if !can_prefill || (needs_decode && !can_decode) {
                    return false;
                }
                let attached = self.slot_states[slot].attached();
                self.slot_states[slot] = SlotState::Draining { attached, spill };
                self.membership_log.push(AppliedMembership {
                    at,
                    change,
                    slot,
                    autoscaled,
                });
                true
            }
        }
    }

    /// Retires every draining slot that reached the boundary idle: the
    /// drain-to-net spill publishes the slot's reusable KV into its installed
    /// tier snapshot (stamped `boundary`, so survivors see it one propagation
    /// delay later), and the slot becomes reusable by later joins.
    /// Single-install replays absorb the leaver's overlay immediately — the
    /// shared pool is the only place its spill could survive the instance.
    fn retire_idle_drains(&mut self, boundary: SimTime, epoch_sharing: bool) {
        for slot in 0..self.slot_states.len() {
            let SlotState::Draining { spill, .. } = self.slot_states[slot] else {
                continue;
            };
            let instance = &mut self.instances[slot];
            if instance.queue_len() > 0 || instance.running_len() > 0 {
                continue;
            }
            let report = if spill {
                instance.drain_to_net(boundary)
            } else {
                DrainSpill::default()
            };
            if !epoch_sharing {
                if let (Some(view), Some(pool)) = (instance.take_net_view(), &mut self.net_pool) {
                    self.net_merge_evictions += pool.absorb(view.into_delta());
                }
            }
            self.slot_states[slot] = SlotState::Retired;
            self.drain_records.push(DrainRecord {
                slot,
                retired_at: boundary,
                spill: report,
            });
        }
    }

    /// Installs an append-only view of the shared network tier into every
    /// instance.  Replays without propagation epochs call this once before
    /// simulating, so an instance sees the cluster tier as of the window's start
    /// plus its own contributions — and the parallel flavour has no mid-run
    /// cross-thread state to race on (each view's overlay is private; the shared
    /// base is immutable while views are out).
    fn install_net_snapshots(&mut self) {
        if let Some(pool) = &self.net_pool {
            for (slot, instance) in self.instances.iter_mut().enumerate() {
                if self.slot_states[slot].attached() {
                    instance.install_net_view(pool.view());
                }
            }
        }
    }

    /// Installs the publish-time-filtered view of the shared tier for the
    /// propagation epoch starting at `visible_at` (see [`NetKvPool::view_at`] and
    /// the legacy [`NetKvPool::visible_snapshot`] it replaces).
    fn install_net_snapshots_visible(&mut self, visible_at: SimTime) {
        if let Some(pool) = &self.net_pool {
            for (id, instance) in self.instances.iter_mut().enumerate() {
                if self.slot_states[id].attached() {
                    instance.install_net_view(pool.view_at(visible_at, id));
                }
            }
        }
    }

    /// The barrier merge, and the only place the shared tier evicts: every
    /// instance's view surrenders its overlay and the pool absorbs them in slot
    /// order (deterministic regardless of which threads finished first), each
    /// oldest first, displacing the pool's global LRU once it is full — O(entries
    /// touched) for the whole boundary.  The deltas are all extracted *before* the
    /// first absorb, so no outstanding base reference forces a copy-on-write clone
    /// of the shared state.  Detached slots keep their private pools and
    /// tierless slots carry nothing, so both contribute no delta.
    fn merge_net_snapshots(&mut self) {
        let Some(pool) = &mut self.net_pool else {
            return;
        };
        let deltas: Vec<ViewDelta> = self
            .instances
            .iter_mut()
            .filter_map(EngineInstance::take_net_view)
            .map(NetPoolView::into_delta)
            .collect();
        for delta in deltas {
            self.net_merge_evictions += pool.absorb(delta);
        }
    }

    /// One pass over a materialised trace for everything replay needs up front:
    /// the longest request (feasibility) and whether the trace is already sorted
    /// by arrival time (routing order) — previously two separate O(n) scans.
    fn scan_trace(arrivals: &[ArrivalPattern]) -> (u64, bool) {
        let mut max_request_tokens = 0;
        let mut sorted = true;
        let mut prev = SimTime::ZERO;
        for arrival in arrivals {
            max_request_tokens = max_request_tokens.max(arrival.template.num_tokens());
            sorted &= arrival.arrival >= prev;
            prev = arrival.arrival;
        }
        (max_request_tokens, sorted)
    }

    fn ensure_feasible(&self, max_request_tokens: u64) -> Result<(), RunError> {
        if !self.can_serve(max_request_tokens) {
            return Err(RunError::WorkloadInfeasible {
                max_request_tokens,
                max_input_length: self.max_input_length(),
            });
        }
        Ok(())
    }

    /// Runs one slot's event loop strictly up to `boundary` (forever when `None`):
    /// events scheduled at or past the boundary stay queued for the next epoch.
    fn simulate_instance_until(
        instance: &mut EngineInstance,
        queue: &mut SlotQueue,
        records: &mut Vec<RequestRecord>,
        boundary: Option<SimTime>,
    ) {
        while let Some(at) = queue.events.peek_time() {
            if boundary.is_some_and(|b| at >= b) {
                break;
            }
            let scheduled = queue.events.pop().expect("peeked event");
            Self::handle(instance, queue, records, scheduled.at, scheduled.event);
        }
    }

    /// The sequential reference of [`Self::simulate_instance_until`]: serves every
    /// slot's events on this thread in one global time order — the earliest queue
    /// head across all slots, ties by slot index — strictly up to `boundary`.
    fn simulate_interleaved_until(
        instances: &mut [EngineInstance],
        queues: &mut [SlotQueue],
        records: &mut [Vec<RequestRecord>],
        boundary: Option<SimTime>,
    ) {
        while let Some((at, slot)) = queues
            .iter()
            .enumerate()
            .filter_map(|(slot, queue)| queue.events.peek_time().map(|at| (at, slot)))
            .min()
        {
            if boundary.is_some_and(|b| at >= b) {
                break;
            }
            let scheduled = queues[slot].events.pop().expect("peeked event");
            Self::handle(
                &mut instances[slot],
                &mut queues[slot],
                &mut records[slot],
                scheduled.at,
                scheduled.event,
            );
        }
    }

    /// Serves one event of one slot — enqueue, admit or complete — then pumps
    /// admissions: starts as many requests as the policy admits, and, if work is
    /// still waiting, arms an `Admit` for when the first stage frees — once per
    /// wake time ([`SlotQueue::armed_admit`]), so a burst queued behind a busy slot
    /// keeps one pending `Admit`, not one per event.  Touches only that slot's
    /// instance, queue and records.
    fn handle(
        instance: &mut EngineInstance,
        queue: &mut SlotQueue,
        records: &mut Vec<RequestRecord>,
        now: SimTime,
        event: InstanceEvent,
    ) {
        match event {
            InstanceEvent::Arrival(request, hashes) => {
                instance.enqueue_with_hashes(request, hashes, now);
            }
            InstanceEvent::Admit => {}
            InstanceEvent::Complete(request_id) => {
                // `None` = a prefill-role first token whose record surfaces on
                // the decode side after the KV handoff.
                if let Some(record) = instance.complete(request_id, now) {
                    records.push(record);
                }
            }
        }
        while let Some(started) = instance.try_start(now) {
            queue.events.push(
                started.completion,
                InstanceEvent::Complete(started.request_id),
            );
        }
        if instance.queue_len() > 0 {
            let wake = instance.next_admission_time();
            if wake > now && queue.armed_admit != Some(wake) {
                queue.armed_admit = Some(wake);
                queue.events.push(wake, InstanceEvent::Admit);
            }
        }
    }

    /// Sorts records into the canonical report order and aggregates the run report.
    ///
    /// Canonical order is `(completion time, request id)`.  Both flavours hand over
    /// the same per-slot record lists, concatenated in slot order; the sort makes the
    /// report independent of that order.
    fn finish_report(&mut self, mut records: Vec<RequestRecord>, offered_qps: f64) -> RunReport {
        records.sort_unstable_by_key(|r| (r.completed, r.request_id));
        let makespan = records
            .iter()
            .map(|r| r.completed - SimTime::ZERO)
            .max()
            .unwrap_or(SimDuration::ZERO);
        RunReport {
            engine: engine_display_name(self.config.kind).to_string(),
            offered_qps,
            records,
            makespan,
            cache: self.aggregate_cache_stats(),
            offload: self.aggregate_offload_stats(),
            windows: std::mem::take(&mut self.window_metrics),
        }
    }

    fn aggregate_offload_stats(&self) -> OffloadStats {
        let mut total = OffloadStats::default();
        total.merge(&self.retired_offload);
        for instance in &self.instances {
            total.merge(&instance.offload_stats());
        }
        total.net_evicted_blocks += self.net_merge_evictions;
        // Handoffs are counted when emitted (the charged side), so the totals are
        // independent of admission retries on the decode side.
        total.handoff_records += self.handoffs.emitted;
        total.handoff_bytes += self.handoffs.emitted_bytes;
        total
    }

    fn accumulate_cache(total: &mut CacheStats, s: &CacheStats) {
        total.allocations += s.allocations;
        total.hit_tokens += s.hit_tokens;
        total.miss_tokens += s.miss_tokens;
        total.requests_with_hits += s.requests_with_hits;
        total.evicted_blocks += s.evicted_blocks;
        total.committed_blocks += s.committed_blocks;
        total.failed_allocations += s.failed_allocations;
    }

    fn aggregate_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        Self::accumulate_cache(&mut total, &self.retired_cache);
        for instance in &self.instances {
            Self::accumulate_cache(&mut total, &instance.cache_stats());
        }
        total
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("engine", &engine_display_name(self.config.kind))
            .field("instances", &self.instances.len())
            .field("routing", &self.router.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use crate::routing::UserRouter;
    use gpu::HardwareSetup;
    use model::ModelPreset;
    use simcore::SimRng;
    use workload::{assign_poisson_arrivals, Dataset, PostRecommendationSpec};

    fn small_post_rec_dataset() -> Dataset {
        // A scaled-down post-recommendation workload so unit tests stay fast.
        let spec = PostRecommendationSpec {
            num_users: 4,
            posts_per_user: 6,
            post_tokens: 150,
            profile_mean_tokens: 4_000.0,
            profile_std_tokens: 500.0,
            profile_min_tokens: 3_000,
            profile_max_tokens: 5_000,
        };
        Dataset::post_recommendation(&spec, &mut SimRng::seed_from_u64(7))
    }

    fn config(kind: EngineKind) -> EngineConfig {
        EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            kind,
            6_000,
        )
    }

    /// A burst of arrivals queued behind one busy slot arms each admission wake
    /// time once: the slot's loop handles no more `Admit` events than it starts
    /// requests (one pending `Admit` per wake time, not one per queued event).
    #[test]
    fn busy_slot_arms_each_admission_wake_once() {
        let ds = small_post_rec_dataset();
        let mut instance = EngineInstance::new(&config(EngineKind::prefillonly_default()), 0);
        let mut queue = SlotQueue::default();
        for (id, template) in ds.requests().iter().enumerate() {
            let arrival = SimTime::from_millis(id as u64);
            let request = PrefillRequest {
                id: id as u64,
                user_id: template.user_id,
                tokens: template.tokens.clone(),
                decode_tokens: template.decode_tokens,
                allowed_outputs: Vec::new(),
                arrival,
                routing: RoutingReason::Direct,
            };
            queue
                .events
                .push(arrival, InstanceEvent::Arrival(request, None));
        }
        let mut records = Vec::new();
        let mut admits = 0usize;
        while let Some(scheduled) = queue.events.pop() {
            admits += usize::from(matches!(scheduled.event, InstanceEvent::Admit));
            Cluster::handle(
                &mut instance,
                &mut queue,
                &mut records,
                scheduled.at,
                scheduled.event,
            );
        }
        assert_eq!(
            records.len(),
            ds.len(),
            "every request starts and completes"
        );
        assert!(admits > 0, "the burst must queue behind a busy slot");
        assert!(
            admits <= records.len(),
            "{admits} Admit events for {} starts",
            records.len()
        );
    }

    #[test]
    fn cluster_serves_every_request_exactly_once() {
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 5.0, &mut SimRng::seed_from_u64(1));
        let mut cluster = Cluster::new(&config(EngineKind::prefillonly_default()));
        let report = cluster.run(&arrivals, 5.0).unwrap();
        assert_eq!(report.records.len(), ds.len());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ds.len(), "no request completed twice");
        assert!(report.mean_latency_secs() > 0.0);
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    fn single_gpu_engines_spread_users_across_instances() {
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 5.0, &mut SimRng::seed_from_u64(2));
        let mut cluster = Cluster::new(&config(EngineKind::PagedAttention));
        assert_eq!(cluster.instances().len(), 2);
        let report = cluster.run(&arrivals, 5.0).unwrap();
        let on_zero = report.records.iter().filter(|r| r.instance == 0).count();
        let on_one = report.records.iter().filter(|r| r.instance == 1).count();
        assert!(
            on_zero > 0 && on_one > 0,
            "both instances must serve requests"
        );
        // User stickiness: every user maps to exactly one instance.
        for user in 0..4u64 {
            let instances: Vec<usize> = report
                .records
                .iter()
                .filter(|r| r.user_id == user)
                .map(|r| r.instance)
                .collect();
            assert!(instances.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn parallel_engines_use_one_instance() {
        let cluster = Cluster::new(&config(EngineKind::TensorParallel));
        assert_eq!(cluster.instances().len(), 1);
    }

    #[test]
    fn infeasible_workload_is_reported() {
        // The credit-verification workload (40k-60k tokens) cannot run on a
        // PagedAttention L4 deployment (MIL ~24k): Table 2 marks it ✗.
        let ds = Dataset::generate(
            workload::WorkloadKind::CreditVerification,
            &mut SimRng::seed_from_u64(3),
        );
        let arrivals = assign_poisson_arrivals(&ds, 0.2, &mut SimRng::seed_from_u64(3));
        let mut cluster = Cluster::new(&EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::PagedAttention,
            60_000,
        ));
        let err = cluster.run(&arrivals, 0.2).unwrap_err();
        assert!(matches!(err, RunError::WorkloadInfeasible { .. }));
        assert!(err.to_string().contains("maximum input length"));
    }

    #[test]
    fn prefillonly_handles_the_long_workload_on_one_gpu() {
        // ... while PrefillOnly can run it on the same hardware (Table 2 ✓).
        let ds = Dataset::generate(
            workload::WorkloadKind::CreditVerification,
            &mut SimRng::seed_from_u64(3),
        );
        let arrivals: Vec<_> = assign_poisson_arrivals(&ds, 0.2, &mut SimRng::seed_from_u64(3))
            .into_iter()
            .take(6)
            .collect();
        let mut cluster = Cluster::new(&EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            60_000,
        ));
        let report = cluster.run(&arrivals, 0.2).unwrap();
        assert_eq!(report.records.len(), 6);
    }

    #[test]
    fn higher_offered_load_increases_latency() {
        let ds = small_post_rec_dataset();
        let mut low = Cluster::new(&config(EngineKind::prefillonly_default()));
        let mut high = Cluster::new(&config(EngineKind::prefillonly_default()));
        let arrivals_low = assign_poisson_arrivals(&ds, 0.5, &mut SimRng::seed_from_u64(5));
        let arrivals_high = assign_poisson_arrivals(&ds, 50.0, &mut SimRng::seed_from_u64(5));
        let report_low = low.run(&arrivals_low, 0.5).unwrap();
        let report_high = high.run(&arrivals_high, 50.0).unwrap();
        assert!(
            report_high.mean_latency_secs() > report_low.mean_latency_secs(),
            "overload must inflate latency ({} vs {})",
            report_high.mean_latency_secs(),
            report_low.mean_latency_secs()
        );
    }

    /// Tentpole invariant: the threaded per-instance replay must be *identical* to the
    /// single-threaded interleaved reference — same records (ids, timings, instances,
    /// cache hits), same makespan, same aggregated cache statistics.
    #[test]
    fn parallel_run_is_identical_to_sequential() {
        let ds = small_post_rec_dataset();
        for (kind, qps, seed) in [
            (EngineKind::prefillonly_default(), 5.0, 1u64),
            (EngineKind::prefillonly_default(), 50.0, 2),
            (EngineKind::PrefillOnly { lambda: 0.0 }, 20.0, 3),
            (EngineKind::PagedAttention, 5.0, 4),
            (EngineKind::chunked_default(), 30.0, 5),
        ] {
            let arrivals = assign_poisson_arrivals(&ds, qps, &mut SimRng::seed_from_u64(seed));
            let mut parallel = Cluster::new(&config(kind));
            assert!(
                parallel.instances().len() > 1,
                "the determinism check must exercise a replicated deployment"
            );
            let mut sequential = Cluster::new(&config(kind));
            let a = parallel.run(&arrivals, qps).unwrap();
            let b = sequential.run_sequential(&arrivals, qps).unwrap();
            assert_eq!(a.records, b.records, "kind {kind:?} qps {qps}");
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.cache, b.cache);
            assert_eq!(a.engine, b.engine);
        }
    }

    #[test]
    fn parallel_run_matches_sequential_even_on_unsorted_arrivals() {
        // The public API takes any &[ArrivalPattern]; routing must follow event time,
        // not slice position, for the two paths to stay identical.
        let ds = small_post_rec_dataset();
        let mut arrivals = assign_poisson_arrivals(&ds, 10.0, &mut SimRng::seed_from_u64(11));
        arrivals.reverse();
        let mut parallel = Cluster::new(&config(EngineKind::prefillonly_default()));
        let mut sequential = Cluster::new(&config(EngineKind::prefillonly_default()));
        let a = parallel.run(&arrivals, 10.0).unwrap();
        let b = sequential.run_sequential(&arrivals, 10.0).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.cache, b.cache);
    }

    #[test]
    fn single_instance_run_matches_sequential_too() {
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 10.0, &mut SimRng::seed_from_u64(9));
        let mut parallel = Cluster::new(&config(EngineKind::TensorParallel));
        let mut sequential = Cluster::new(&config(EngineKind::TensorParallel));
        let a = parallel.run(&arrivals, 10.0).unwrap();
        let b = sequential.run_sequential(&arrivals, 10.0).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.cache, b.cache);
    }

    /// The workload spec of [`offload_pressure_config`], shared with the tests that
    /// regenerate the same trace as an independent stream at the same seed.
    fn pressure_spec() -> workload::PostRecommendationSpec {
        workload::PostRecommendationSpec {
            num_users: 6,
            posts_per_user: 8,
            profile_mean_tokens: 5_000.0,
            profile_std_tokens: 600.0,
            profile_min_tokens: 4_000,
            profile_max_tokens: 6_000,
            ..workload::PostRecommendationSpec::default()
        }
    }

    /// An offload-enabled deployment under real eviction pressure: a squeezed KV pool
    /// over interleaved per-request arrivals, so user profiles spill to the CPU tier
    /// between a user's consecutive requests and rehydrate on their return.
    fn offload_pressure_config(cpu_bytes: u64) -> (EngineConfig, Vec<ArrivalPattern>) {
        let spec = pressure_spec();
        let mut rng = SimRng::seed_from_u64(42);
        let ds = Dataset::post_recommendation(&spec, &mut rng);
        let arrivals = workload::assign_poisson_arrivals_with(
            &ds,
            3.0,
            workload::ArrivalGranularity::PerRequest,
            &mut rng,
        );
        let mut config = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            ds.max_request_tokens(),
        );
        // Squeeze the KV pool below the per-instance profile working set so the
        // prefix cache must evict between a user's requests.
        config.memory_utilization = 0.70;
        ((config).with_cpu_offload(cpu_bytes), arrivals)
    }

    /// The determinism guarantee extends to the hierarchical cache: with offload
    /// enabled and the CPU tier actively spilling/reloading, the threaded replay is
    /// byte-identical to the sequential reference — records, cache stats and offload
    /// stats alike.
    #[test]
    fn parallel_run_is_identical_to_sequential_with_offload() {
        let (config, arrivals) = offload_pressure_config(64 << 30);
        let mut parallel = Cluster::new(&config);
        assert!(parallel.instances().len() > 1);
        let mut sequential = Cluster::new(&config);
        let a = parallel.run(&arrivals, 3.0).unwrap();
        let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
        assert!(
            a.offload.reloaded_blocks > 0,
            "the scenario must actually exercise the CPU tier"
        );
        assert_eq!(a.records, b.records);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.offload, b.offload);
    }

    /// `cpu_kv_capacity_bytes = 0` is inert — the deployment discards eviction
    /// victims exactly as the published system, with no offload statistics — while
    /// the same trace under a real CPU tier demonstrably diverges (so the inertness
    /// check is not vacuous).
    #[test]
    fn zero_cpu_capacity_is_byte_identical_to_discard() {
        let (enabled, arrivals) = offload_pressure_config(64 << 30);
        let disabled = enabled.clone().with_cpu_offload(0);
        let a = Cluster::new(&disabled).run(&arrivals, 3.0).unwrap();
        assert_eq!(a.offload, kvcache::OffloadStats::default());
        assert!(a.records.iter().all(|r| r.reloaded_tokens == 0));
        assert!(
            a.cache.evicted_blocks > 0,
            "the pool must be under pressure"
        );

        let b = Cluster::new(&enabled).run(&arrivals, 3.0).unwrap();
        assert!(b.offload.reloaded_blocks > 0);
        assert_ne!(
            a.records, b.records,
            "an active CPU tier must change the replay"
        );
    }

    /// Squeeze *both* upper tiers so the network tier actually gets fed: the GPU
    /// pool evicts between a user's requests and the CPU pool is about one profile
    /// big, so reused profile blocks cascade CPU → net through the spill filter.
    fn net_pressure_config(net_bytes: u64) -> (EngineConfig, Vec<ArrivalPattern>) {
        let (config, arrivals) = offload_pressure_config(768 << 20);
        (config.with_net_kv(net_bytes), arrivals)
    }

    /// The determinism guarantee extends to the cluster-shared network tier: with
    /// all three tiers active (and the shared pool demonstrably fed and read), the
    /// threaded replay is byte-identical to the sequential reference.
    #[test]
    fn parallel_run_is_identical_to_sequential_with_shared_net_pool() {
        let (config, arrivals) = net_pressure_config(64 << 30);
        let mut parallel = Cluster::new(&config);
        assert!(parallel.instances().len() > 1);
        let mut sequential = Cluster::new(&config);
        let a = parallel.run(&arrivals, 3.0).unwrap();
        let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
        assert!(
            a.offload.net_offloaded_blocks > 0,
            "the scenario must feed the shared tier"
        );
        assert_eq!(a.records, b.records);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.offload, b.offload);
        // The merged shared pools agree too, so a follow-up window starts identical.
        let pa = parallel.net_pool().unwrap();
        let pb = sequential.net_pool().unwrap();
        assert!(pa.resident_blocks() > 0, "merge must have collected spills");
        assert_eq!(pa.resident_blocks(), pb.resident_blocks());
        assert_eq!(pa.generation(), pb.generation());
    }

    /// With `net_kv_capacity_bytes = 0` the modelled reload decision never declines
    /// a CPU segment on the two-tier evaluated configuration: PCIe reloads of
    /// profile-sized segments always beat recomputation, so every reloadable block
    /// is reloaded, as the two-tier engine's "always reload" did.
    #[test]
    fn modeled_reload_policy_without_net_tier_matches_the_two_tier_engine() {
        let (config, arrivals) = offload_pressure_config(64 << 30);
        assert_eq!(config.net_kv_capacity_bytes, 0);
        let report = Cluster::new(&config).run(&arrivals, 3.0).unwrap();
        assert!(
            report.offload.reloaded_blocks > 0,
            "the CPU tier must be active"
        );
        assert_eq!(report.offload.declined_reload_blocks, 0);
        assert!(report.records.iter().all(|r| r.net_reloaded_tokens == 0));
    }

    /// `net_kv_capacity_bytes = 0` is inert — no shared pool, no net statistics —
    /// while the same trace against a deployment whose shared tier is already warm
    /// demonstrably diverges (so the inertness check is not vacuous).
    #[test]
    fn zero_net_capacity_is_byte_identical_to_two_tier() {
        let (enabled, arrivals) = net_pressure_config(64 << 30);
        let disabled = enabled.clone().with_net_kv(0);
        let mut cluster = Cluster::new(&disabled);
        let a = cluster.run(&arrivals, 3.0).unwrap();
        assert!(cluster.net_pool().is_none());
        assert_eq!(a.offload.net_offloaded_blocks, 0);
        assert_eq!(a.offload.net_reloaded_blocks, 0);
        assert!(a.records.iter().all(|r| r.net_reloaded_tokens == 0));

        // Feed the shared tier with one replay window, then point a *fresh*
        // deployment (cold GPU and CPU caches) at the warm pool: its replay must
        // read the tier and diverge from the two-tier engine.
        let mut warm_cluster = Cluster::new(&enabled);
        warm_cluster.run(&arrivals, 3.0).unwrap();
        let warm_pool = warm_cluster.net_pool().unwrap().clone();
        assert!(
            warm_pool.resident_blocks() > 0,
            "window 1 must feed the tier"
        );
        let b = Cluster::with_warm_net_pool(&enabled, warm_pool)
            .run(&arrivals, 3.0)
            .unwrap();
        assert!(
            b.offload.net_reloaded_blocks > 0,
            "the warm tier must serve remote reloads"
        );
        assert_ne!(
            a.records, b.records,
            "an active shared tier must change the replay"
        );
    }

    /// Seeding a deployment with a warm pool never overrides its configured
    /// capacity: the warm *contents* are absorbed into a pool sized by this
    /// deployment's `net_kv_capacity_bytes`.
    #[test]
    fn warm_net_pool_capacity_follows_the_configuration() {
        let (enabled, _) = net_pressure_config(64 << 30);
        let reference = Cluster::new(&enabled);
        let block_bytes = reference.instances()[0].kv_block_bytes();
        let expected_capacity = reference.net_pool().unwrap().capacity_blocks();

        // A warm pool from a much smaller foreign deployment (8 blocks).
        let mut warm = kvcache::NetKvPool::new(8 * block_bytes, block_bytes);
        let tokens: Vec<u32> = (0..8 * enabled.block_size as u32).collect();
        warm.offload(
            &kvcache::hash_token_blocks(&tokens, enabled.block_size),
            simcore::SimTime::ZERO,
        );

        let seeded = Cluster::with_warm_net_pool(&enabled, warm);
        let pool = seeded.net_pool().unwrap();
        assert_eq!(
            pool.capacity_blocks(),
            expected_capacity,
            "the configuration, not the seed, sizes the tier"
        );
        assert_eq!(pool.resident_blocks(), 8, "the warm contents are absorbed");
    }

    /// Profile sharing (`Cluster::new` profiles once and clones): bit-identical to
    /// per-instance profiling, both in the derived profile quantities and in a full
    /// replay against independently profiled instances.
    #[test]
    fn shared_profile_is_bit_identical_to_per_instance_profiling() {
        let config = config(EngineKind::prefillonly_default());
        let cluster = Cluster::new(&config);
        for (id, shared) in cluster.instances().iter().enumerate() {
            let fresh = EngineInstance::new(&config, id);
            assert_eq!(fresh.max_input_length(), shared.max_input_length());
            assert_eq!(fresh.kv_pool_tokens(), shared.kv_pool_tokens());
            assert_eq!(fresh.kv_block_bytes(), shared.kv_block_bytes());
            assert_eq!(fresh.jct_estimator(), shared.jct_estimator());
            assert_eq!(fresh.cpu_hit_discount(), shared.cpu_hit_discount());
            assert_eq!(fresh.net_hit_discount(), shared.net_hit_discount());
        }
        // Behavioural pin: a replay on the shared-profile cluster equals a replay
        // where every instance was profiled independently.
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 5.0, &mut SimRng::seed_from_u64(17));
        let mut shared = cluster;
        let mut unshared = Cluster {
            config: config.clone(),
            instances: (0..config.num_instances() as usize)
                .map(|id| EngineInstance::new(&config, id))
                .collect(),
            slot_states: vec![
                SlotState::Active { attached: false };
                config.num_instances() as usize
            ],
            profile: InstanceProfile::new(&config),
            router: config
                .routing
                .build(config.num_instances() as usize)
                .unwrap(),
            net_pool: None,
            net_merge_evictions: 0,
            membership: workload::MembershipSchedule::default(),
            membership_cursor: 0,
            autoscaler_cooldown: 0,
            membership_log: Vec::new(),
            drain_records: Vec::new(),
            retired_cache: CacheStats::default(),
            retired_offload: OffloadStats::default(),
            worker_pool: None,
            handoffs: HandoffsInFlight::default(),
            window_metrics: Vec::new(),
        };
        let a = shared.run(&arrivals, 5.0).unwrap();
        let b = unshared.run(&arrivals, 5.0).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.makespan, b.makespan);
    }

    /// The determinism guarantee extends to every routing policy: under load-balanced
    /// and cache-aware routing (with all three KV tiers active, so the cache-aware
    /// probes actually see residency), the threaded replay stays byte-identical to
    /// the sequential reference — across *two* consecutive replay windows, so
    /// window-to-window routing state (sticky pins, warmed caches) is exercised too.
    #[test]
    fn parallel_run_is_identical_to_sequential_under_every_routing_policy() {
        for policy in [
            crate::routing::RoutingPolicyKind::StickyUser,
            crate::routing::RoutingPolicyKind::LeastLoaded,
            crate::routing::RoutingPolicyKind::CacheAware,
        ] {
            let (config, arrivals) = net_pressure_config(64 << 30);
            let config = config.with_routing(policy);
            let mut parallel = Cluster::new(&config);
            assert!(parallel.instances().len() > 1);
            let mut sequential = Cluster::new(&config);
            for window in 0..2 {
                let a = parallel.run(&arrivals, 3.0).unwrap();
                let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
                assert_eq!(a.records, b.records, "{policy:?} window {window}");
                assert_eq!(a.makespan, b.makespan, "{policy:?} window {window}");
                assert_eq!(a.cache, b.cache, "{policy:?} window {window}");
                assert_eq!(a.offload, b.offload, "{policy:?} window {window}");
            }
        }
    }

    /// Regression pin: the refactored `StickyUser` policy reproduces the
    /// pre-refactor `UserRouter` on an existing e2e trace — the same per-user
    /// instance assignment (round-robin in order of first appearance).
    #[test]
    fn sticky_policy_is_byte_identical_to_the_pre_refactor_router() {
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 5.0, &mut SimRng::seed_from_u64(2));
        let config = config(EngineKind::prefillonly_default());
        let report = Cluster::new(&config).run(&arrivals, 5.0).unwrap();

        // It must equal the §7.1 reference router applied in `(arrival, idx)`
        // order — the exact pre-refactor routing.
        let mut reference = UserRouter::new(config.num_instances() as usize).unwrap();
        let mut expected: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&idx| (arrivals[idx].arrival, idx));
        for idx in order {
            let user = arrivals[idx].template.user_id;
            let instance = reference.route(user);
            expected.insert(idx as u64, instance);
        }
        assert_eq!(report.records.len(), arrivals.len());
        for record in &report.records {
            assert_eq!(record.instance, expected[&record.request_id]);
            assert!(matches!(
                record.routing,
                crate::routing::RoutingReason::StickyNew
                    | crate::routing::RoutingReason::StickyExisting
            ));
        }
    }

    /// Acceptance pin: `net_propagation_ms = 0` keeps the historical
    /// window-boundary-only propagation byte for byte.  The propagation-epoch
    /// machinery with a delay longer than the whole trace must agree too — it
    /// degenerates to a single epoch whose snapshot is the fully-settled shared
    /// pool, i.e. exactly the window-boundary model — so the pin covers both the
    /// legacy code path and the epoch path's delay-free limit, across two
    /// consecutive windows and both replay flavours.
    #[test]
    fn zero_propagation_delay_is_byte_identical_to_the_window_boundary_path() {
        for policy in [
            crate::routing::RoutingPolicyKind::StickyUser,
            crate::routing::RoutingPolicyKind::CacheAware,
        ] {
            let (config, arrivals) = net_pressure_config(64 << 30);
            let config = config.with_routing(policy);
            assert_eq!(config.net_propagation_ms, 0, "zero is the default");
            let span_ms = arrivals
                .iter()
                .map(|a| (a.arrival - SimTime::ZERO).as_secs_f64() * 1e3)
                .fold(0.0f64, f64::max) as u64;
            let one_epoch = config.clone().with_net_propagation_ms(span_ms + 1_000);

            let mut boundary_only = Cluster::new(&config);
            let mut epoch_path = Cluster::new(&one_epoch);
            let mut epoch_path_seq = Cluster::new(&one_epoch);
            for window in 0..2 {
                let a = boundary_only.run(&arrivals, 3.0).unwrap();
                let b = epoch_path.run(&arrivals, 3.0).unwrap();
                let c = epoch_path_seq.run_sequential(&arrivals, 3.0).unwrap();
                assert!(
                    a.offload.net_offloaded_blocks > 0,
                    "the scenario must exercise the shared tier"
                );
                assert_eq!(a.records, b.records, "{policy:?} window {window}");
                assert_eq!(a.cache, b.cache, "{policy:?} window {window}");
                assert_eq!(a.offload, b.offload, "{policy:?} window {window}");
                assert_eq!(a.makespan, b.makespan, "{policy:?} window {window}");
                assert_eq!(b.records, c.records, "{policy:?} window {window}");
                assert_eq!(b.offload, c.offload, "{policy:?} window {window}");
                assert_eq!(
                    a.net_propagated_tokens(),
                    0,
                    "a single epoch has no mid-window propagation to credit"
                );
                assert_eq!(a.offload.net_propagated_reload_blocks, 0);
            }
            let pa = boundary_only.net_pool().unwrap();
            let pb = epoch_path.net_pool().unwrap();
            assert_eq!(pa.resident_blocks(), pb.resident_blocks());
            assert_eq!(pa.generation(), pb.generation());
        }
    }

    /// The determinism guarantee extends to within-window propagation: with a delay
    /// short enough that every window spans several propagation epochs, all three KV
    /// tiers active and cache-aware routing consulting per-epoch probes, the
    /// threaded replay stays byte-identical to the sequential reference across two
    /// consecutive windows.
    #[test]
    fn parallel_run_is_identical_to_sequential_across_propagation_epochs() {
        let (config, arrivals) = net_pressure_config(64 << 30);
        let span = arrivals
            .iter()
            .map(|a| a.arrival)
            .max()
            .unwrap()
            .saturating_since(SimTime::ZERO);
        let delay_ms = 2_000u64;
        assert!(
            span.as_secs_f64() * 1e3 > 2.0 * delay_ms as f64,
            "the trace must span at least two propagation epochs, got {span}"
        );
        let config = config
            .with_routing(crate::routing::RoutingPolicyKind::CacheAware)
            .with_net_propagation_ms(delay_ms);

        let mut parallel = Cluster::new(&config);
        assert!(parallel.instances().len() > 1);
        let mut sequential = Cluster::new(&config);
        for window in 0..2 {
            let a = parallel.run(&arrivals, 3.0).unwrap();
            let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
            assert!(
                a.offload.net_offloaded_blocks > 0,
                "window {window} must feed the shared tier"
            );
            assert_eq!(a.records, b.records, "window {window}");
            assert_eq!(a.makespan, b.makespan, "window {window}");
            assert_eq!(a.cache, b.cache, "window {window}");
            assert_eq!(a.offload, b.offload, "window {window}");
        }
        let pa = parallel.net_pool().unwrap();
        let pb = sequential.net_pool().unwrap();
        assert_eq!(pa.resident_blocks(), pb.resident_blocks());
        assert_eq!(pa.generation(), pb.generation());
    }

    /// Central eviction at fleet level: on a net tier squeezed far below the
    /// trace's shared working set, under cache-aware routing and propagation
    /// epochs, views read past the tier's capacity but the barrier merge evicts
    /// it back under — the shared pool never exceeds its capacity at any
    /// boundary — and parallel replay stays byte-identical to sequential.
    #[test]
    fn squeezed_net_tier_evicts_at_the_barrier_and_never_overflows() {
        let (config, arrivals) = net_pressure_config(64 << 30);
        let block_bytes = Cluster::new(&config).instances()[0].kv_block_bytes();
        let capacity_blocks = 32;
        let config = config
            .with_net_kv(capacity_blocks * block_bytes)
            .with_routing(crate::routing::RoutingPolicyKind::CacheAware)
            .with_net_propagation_ms(2_000)
            .with_window_metrics();
        let mut parallel = Cluster::new(&config);
        let a = parallel.run(&arrivals, 3.0).unwrap();
        let b = Cluster::new(&config)
            .run_sequential(&arrivals, 3.0)
            .unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.offload, b.offload);
        assert_eq!(a.windows, b.windows);
        assert!(
            a.offload.net_evicted_blocks > 0,
            "the squeezed tier must evict"
        );
        assert!(a.windows.len() > 1, "the trace must span several epochs");
        for window in &a.windows {
            assert!(
                window.net_resident_blocks <= capacity_blocks,
                "window {}: {} resident blocks exceed the {capacity_blocks}-block tier",
                window.window,
                window.net_resident_blocks
            );
        }
        assert_eq!(
            parallel.net_pool().unwrap().resident_blocks(),
            capacity_blocks,
            "the tier must run full"
        );
    }

    /// The warm-join construction boundary: an undeployable configuration, a
    /// disabled network tier and a foreign block geometry are typed errors from
    /// [`Cluster::try_with_warm_net_pool`], not panics from deep inside instance
    /// construction.
    #[test]
    fn warm_net_pool_construction_problems_are_config_errors() {
        let (enabled, _) = net_pressure_config(64 << 30);
        let block_bytes = Cluster::new(&enabled).instances()[0].kv_block_bytes();
        let warm = || kvcache::NetKvPool::new(8 * block_bytes, block_bytes);

        // Zero instances surfaces as the same error `try_new` reports.
        let mut zero_instances = enabled.clone();
        zero_instances.hardware.num_gpus = 0;
        assert_eq!(
            Cluster::try_with_warm_net_pool(&zero_instances, warm()).unwrap_err(),
            crate::config::ConfigError::NoInstances
        );

        // A deployment without a network tier cannot absorb a warm pool.
        let err =
            Cluster::try_with_warm_net_pool(&enabled.clone().with_net_kv(0), warm()).unwrap_err();
        assert_eq!(err, crate::config::ConfigError::WarmPoolNeedsNetTier);
        assert!(err.to_string().contains("net_kv_capacity_bytes"));

        // A warm pool of foreign block geometry is rejected with both geometries.
        let foreign = kvcache::NetKvPool::new(8 * (block_bytes + 1), block_bytes + 1);
        let err = Cluster::try_with_warm_net_pool(&enabled, foreign).unwrap_err();
        assert_eq!(
            err,
            crate::config::ConfigError::WarmPoolGeometryMismatch {
                deployment_block_bytes: block_bytes,
                pool_block_bytes: block_bytes + 1,
            }
        );
        assert!(err.to_string().contains("block geometry"));

        // The happy path still builds, and the panicking variant delegates.
        assert!(Cluster::try_with_warm_net_pool(&enabled, warm()).is_ok());
        let cluster = Cluster::with_warm_net_pool(&enabled, warm());
        assert_eq!(cluster.net_pool().unwrap().resident_blocks(), 0);
    }

    /// The configuration validation boundary: a deployment with zero instances is a
    /// typed error from [`Cluster::try_new`], not a panic from deep inside the
    /// router.
    #[test]
    fn zero_instance_deployment_is_a_config_error() {
        let mut config = config(EngineKind::PagedAttention);
        config.hardware.num_gpus = 0;
        let err = Cluster::try_new(&config).unwrap_err();
        assert_eq!(err, crate::config::ConfigError::NoInstances);
        assert!(Cluster::try_new(&self::config(EngineKind::PagedAttention)).is_ok());
    }

    /// A zero-token KV block is a typed error from [`Cluster::try_new`], not a
    /// division by zero while the instance profile sizes the KV pool.
    #[test]
    fn zero_block_size_is_a_config_error() {
        let mut config = config(EngineKind::prefillonly_default());
        config.block_size = 0;
        let err = Cluster::try_new(&config).unwrap_err();
        assert_eq!(err, crate::config::ConfigError::ZeroBlockSize);
        assert!(err.to_string().contains("block_size"));
    }

    /// Satellite acceptance: replaying an *independently generated* arrival stream
    /// (same dataset, same rng seed, never materialised) is byte-identical to
    /// replaying the materialised trace — with all three KV tiers active, under
    /// both sticky and cache-aware routing, across several propagation epochs.
    #[test]
    fn streamed_generator_replay_is_byte_identical_to_the_materialised_trace() {
        use workload::{ArrivalGranularity, PoissonArrivalStream};
        for policy in [
            crate::routing::RoutingPolicyKind::StickyUser,
            crate::routing::RoutingPolicyKind::CacheAware,
        ] {
            let (config, arrivals) = net_pressure_config(64 << 30);
            let config = config.with_routing(policy).with_net_propagation_ms(2_000);
            let span = arrivals.iter().map(|a| a.arrival).max().unwrap();
            assert!(
                (span - SimTime::ZERO).as_secs_f64() > 4.0,
                "the trace must span at least two propagation epochs"
            );

            // Rebuild the generator state the materialised trace came from, so the
            // stream below is produced from scratch at the same seed.
            let mut rng = SimRng::seed_from_u64(42);
            let ds = Dataset::post_recommendation(&pressure_spec(), &mut rng);
            let mut stream =
                PoissonArrivalStream::new(&ds, 3.0, ArrivalGranularity::PerRequest, &mut rng);

            let mut materialised = Cluster::new(&config);
            let mut streamed = Cluster::new(&config);
            let a = materialised.run(&arrivals, 3.0).unwrap();
            let b = streamed.run_stream(&mut stream, 3.0).unwrap();
            assert!(
                a.offload.net_offloaded_blocks > 0,
                "the scenario must feed the shared tier"
            );
            assert_eq!(a.records, b.records, "{policy:?}");
            assert_eq!(a.makespan, b.makespan, "{policy:?}");
            assert_eq!(a.cache, b.cache, "{policy:?}");
            assert_eq!(a.offload, b.offload, "{policy:?}");
            let pa = materialised.net_pool().unwrap();
            let pb = streamed.net_pool().unwrap();
            assert_eq!(pa.resident_blocks(), pb.resident_blocks());
            assert_eq!(pa.generation(), pb.generation());
        }
    }

    /// A trace whose requests hold their user's profile as one shared prefix, with
    /// its memoised block-hash chain, replays exactly like the same trace rebuilt
    /// from unshared copies of its tokens, under `run`, `run_sequential` and
    /// `run_stream`: with all three tiers active, across propagation epochs, and
    /// under cache-aware routing, whose routing pass hashes the arrivals itself.
    /// The first replay of the shared trace fills the prefixes' memos cold, the
    /// later ones read them warm.
    #[test]
    fn shared_prefix_replay_is_byte_identical_to_unshared_tokens() {
        use kvcache::TokenSeq;
        use workload::RequestTemplate;
        let (config, shared) = net_pressure_config(64 << 30);
        assert!(shared
            .iter()
            .all(|a| a.template.tokens.shared_prefix().is_some()));
        let unshared: Vec<ArrivalPattern> = shared
            .iter()
            .map(|a| ArrivalPattern {
                template: RequestTemplate {
                    tokens: TokenSeq::from(a.template.tokens.to_vec()),
                    ..a.template.clone()
                },
                arrival: a.arrival,
            })
            .collect();
        for policy in [
            crate::routing::RoutingPolicyKind::StickyUser,
            crate::routing::RoutingPolicyKind::CacheAware,
        ] {
            let config = config
                .clone()
                .with_routing(policy)
                .with_net_propagation_ms(2_000);
            for mode in ["run", "run_sequential", "run_stream"] {
                let replay = |arrivals: &[ArrivalPattern]| {
                    let mut cluster = Cluster::new(&config);
                    match mode {
                        "run" => cluster.run(arrivals, 3.0),
                        "run_sequential" => cluster.run_sequential(arrivals, 3.0),
                        _ => {
                            cluster.run_stream(&mut SliceArrivalStream::from_sorted(arrivals), 3.0)
                        }
                    }
                    .unwrap()
                };
                let (a, b) = (replay(&shared), replay(&unshared));
                assert!(a.offload.net_offloaded_blocks > 0, "{policy:?} {mode}");
                assert_eq!(a.records, b.records, "{policy:?} {mode}");
                assert_eq!(a.makespan, b.makespan, "{policy:?} {mode}");
                assert_eq!(a.cache, b.cache, "{policy:?} {mode}");
                assert_eq!(a.offload, b.offload, "{policy:?} {mode}");
            }
        }
    }

    /// Without a shared tier the streamed replay chunks purely for bounded memory;
    /// under sticky routing (cadence-independent decisions) it must replay the
    /// window path's records exactly, and parallel must match sequential.
    #[test]
    fn tierless_stream_replay_matches_the_window_replay_under_sticky_routing() {
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 5.0, &mut SimRng::seed_from_u64(1));
        let config = config(EngineKind::prefillonly_default());
        let a = Cluster::new(&config).run(&arrivals, 5.0).unwrap();
        let mut stream = SliceArrivalStream::from_sorted(&arrivals);
        let b = Cluster::new(&config).run_stream(&mut stream, 5.0).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.makespan, b.makespan);
        let mut stream = SliceArrivalStream::from_sorted(&arrivals);
        let c = Cluster::new(&config)
            .run_stream_sequential(&mut stream, 5.0)
            .unwrap();
        assert_eq!(b.records, c.records);
        assert_eq!(b.cache, c.cache);
    }

    /// Scale smoke: thousands of requests flow through the streaming path with the
    /// arrival buffer bounded by the chunk clock, every request served exactly once.
    #[test]
    fn fleet_stream_replays_at_scale() {
        use workload::{SharedPrefixFleetSpec, SharedPrefixFleetStream};
        let spec = SharedPrefixFleetSpec {
            num_cohorts: 40,
            users_per_cohort: 5,
            prefix_tokens: 512,
            suffix_tokens: 64,
            requests_per_user: 40,
        };
        let mut stream = SharedPrefixFleetStream::new(spec, 200.0, 7);
        assert_eq!(stream.len_hint(), Some(8_000));
        let mut cluster = Cluster::new(&config(EngineKind::prefillonly_default()));
        let report = cluster.run_stream(&mut stream, 200.0).unwrap();
        assert_eq!(report.records.len(), 8_000);
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            8_000,
            "every streamed request served exactly once"
        );
    }

    /// A stream cannot be pre-scanned, so an oversized request surfaces as a
    /// mid-run [`RunError::WorkloadInfeasible`].
    #[test]
    fn oversized_streamed_request_aborts_the_replay() {
        use workload::{SharedPrefixFleetSpec, SharedPrefixFleetStream};
        // 40k-token requests overwhelm a PagedAttention L4 deployment (MIL ~24k),
        // exactly as the materialised infeasibility test above.
        let spec = SharedPrefixFleetSpec {
            num_cohorts: 1,
            users_per_cohort: 1,
            prefix_tokens: 40_000,
            suffix_tokens: 64,
            requests_per_user: 1,
        };
        let mut stream = SharedPrefixFleetStream::new(spec, 1.0, 7);
        let mut cluster = Cluster::new(&EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::PagedAttention,
            60_000,
        ));
        let err = cluster.run_stream(&mut stream, 1.0).unwrap_err();
        assert!(matches!(err, RunError::WorkloadInfeasible { .. }));
    }

    /// The decode stage is strictly additive: on a trace where every request has
    /// `decode_tokens = 0`, the records are pinned to the prefill-only shape the
    /// engine has always produced — the first token *is* the completion, TTFT *is*
    /// the JCT, and no TPOT sample exists.  Together with the byte-identity tests
    /// above (which replay the same zero-decode traces through every path), this
    /// pins the degenerate path to the pre-decode engine.
    #[test]
    fn zero_decode_records_are_pinned_to_the_prefill_only_shape() {
        let (config, arrivals) = net_pressure_config(64 << 30);
        let report = Cluster::new(&config).run(&arrivals, 3.0).unwrap();
        assert!(!report.records.is_empty());
        for r in &report.records {
            assert_eq!(r.decode_tokens, 0);
            assert_eq!(r.first_token, r.completed);
            assert_eq!(r.ttft(), r.latency());
            assert!(r.tpot().is_none());
        }
        assert_eq!(report.decode_tokens(), 0);
        assert!(report.tpot_summary().is_none());
        assert_eq!(report.mean_ttft_secs(), report.mean_latency_secs());
    }

    /// A decode-enabled multi-turn conversation under the full stack the decode
    /// stage must not perturb: squeezed GPU pool, profile-sized CPU tier, shared
    /// network pool, cache-aware routing and mid-window propagation epochs.
    fn decode_conversation_scenario() -> (EngineConfig, workload::ConversationSpec) {
        let spec = workload::ConversationSpec {
            num_sessions: 10,
            turns_per_session: 3,
            system_prompt_tokens: 1_024,
            first_turn_input_tokens: 2_048,
            turn_input_tokens: 256,
            decode_tokens_per_turn: 96,
            think_time_ms: 2_000,
        };
        let mut config = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            spec.max_request_tokens(),
        );
        // Squeeze the KV pool below the working set of the open sessions so the
        // decode-grown chains actually cascade through the lower tiers.
        config.memory_utilization = 0.70;
        let config = config
            .with_cpu_offload(768 << 20)
            .with_net_kv(64 << 30)
            .with_routing(crate::routing::RoutingPolicyKind::CacheAware)
            .with_net_propagation_ms(2_000);
        (config, spec)
    }

    /// Tentpole acceptance: the determinism guarantee survives the decode stage.
    /// On a multi-turn conversation trace (every request decodes a reply that the
    /// next turn re-hits as cached prefix) with all three KV tiers active,
    /// cache-aware routing and propagation epochs, all four replay paths —
    /// threaded and sequential, materialised and streamed — produce byte-identical
    /// records, cache, offload and shared-pool state.
    #[test]
    fn decode_replay_is_byte_identical_across_all_four_replay_paths() {
        use workload::{conversation_trace, ConversationStream};
        let (config, spec) = decode_conversation_scenario();
        let qps = 1.0;
        let seed = 77;

        let trace = conversation_trace(&spec, qps, seed);
        let mut parallel = Cluster::new(&config);
        assert!(parallel.instances().len() > 1);
        let a = parallel.run(&trace, qps).unwrap();
        let mut sequential = Cluster::new(&config);
        let b = sequential.run_sequential(&trace, qps).unwrap();

        let mut streamed = Cluster::new(&config);
        let c = streamed
            .run_stream(&mut ConversationStream::new(spec, qps, seed), qps)
            .unwrap();
        let mut streamed_seq = Cluster::new(&config);
        let d = streamed_seq
            .run_stream_sequential(&mut ConversationStream::new(spec, qps, seed), qps)
            .unwrap();

        // Non-vacuity: the decode stage and every tier are genuinely exercised.
        assert_eq!(a.records.len() as u64, spec.num_requests());
        assert_eq!(
            a.decode_tokens(),
            spec.num_requests() * spec.decode_tokens_per_turn
        );
        assert!(a.tpot_summary().is_some(), "TPOT must be defined");
        assert!(
            a.mean_ttft_secs() < a.mean_latency_secs(),
            "decode must push completion past the first token"
        );
        for r in &a.records {
            assert_eq!(r.decode_tokens, spec.decode_tokens_per_turn);
            assert!(r.first_token < r.completed);
            assert!(r.ttft() < r.latency());
            assert!(r.tpot().is_some());
        }
        assert!(
            a.cache_hit_rate() > 0.0,
            "later turns must re-hit their session prefix"
        );
        assert!(
            a.offload.offloaded_blocks > 0,
            "the squeezed pool must spill decode-grown chains"
        );

        // Byte-identity across all four paths.
        for (label, other) in [("sequential", &b), ("streamed", &c), ("streamed seq", &d)] {
            assert_eq!(a.records, other.records, "{label} records diverged");
            assert_eq!(a.makespan, other.makespan, "{label} makespan diverged");
            assert_eq!(a.cache, other.cache, "{label} cache stats diverged");
            assert_eq!(a.offload, other.offload, "{label} offload stats diverged");
        }
        // The merged shared pools agree too, so a follow-up window starts identical.
        let pool = parallel.net_pool().unwrap();
        for other in [&sequential, &streamed, &streamed_seq] {
            let p = other.net_pool().unwrap();
            assert_eq!(pool.resident_blocks(), p.resident_blocks());
            assert_eq!(pool.generation(), p.generation());
        }
    }

    /// The chunk clock starts at [`STREAM_CHUNK_BASE_MS`], halves under burst
    /// down to 1 ms, doubles when near-idle up to [`STREAM_CHUNK_MAX_MS`], holds
    /// its length in between and clamps at both ends; a fixed clock never adapts.
    #[test]
    fn epoch_clock_adapts_within_bounds() {
        let ms = |m: u64| SimTime::ZERO + SimDuration::from_millis(m);
        let burst = STREAM_CHUNK_TARGET_ARRIVALS * 2 + 1;
        let idle = STREAM_CHUNK_TARGET_ARRIVALS / 2 - 1;
        let mut clock = EpochClock::chunking();
        assert_eq!(clock.boundary(), ms(STREAM_CHUNK_BASE_MS));
        let mut at = STREAM_CHUNK_BASE_MS;
        let mut len = STREAM_CHUNK_BASE_MS;
        while len > 1 {
            len /= 2;
            at += len;
            clock.advance(burst);
            assert_eq!(clock.boundary(), ms(at), "burst halves to {len} ms");
        }
        clock.advance(burst); // clamped at 1 ms
        at += 1;
        assert_eq!(clock.boundary(), ms(at));
        clock.advance(STREAM_CHUNK_TARGET_ARRIVALS); // in band: unchanged
        at += 1;
        assert_eq!(clock.boundary(), ms(at));
        while len < STREAM_CHUNK_MAX_MS {
            len = (len * 2).min(STREAM_CHUNK_MAX_MS);
            at += len;
            clock.advance(idle);
            assert_eq!(clock.boundary(), ms(at), "idle doubles to {len} ms");
        }
        clock.advance(0); // clamped at the ceiling
        at += STREAM_CHUNK_MAX_MS;
        assert_eq!(clock.boundary(), ms(at));

        let mut fixed = EpochClock::fixed(1_000);
        assert_eq!(fixed.boundary(), ms(1_000));
        fixed.advance(1_000_000);
        assert_eq!(fixed.boundary(), ms(2_000));
        fixed.advance(0);
        assert_eq!(fixed.boundary(), ms(3_000));
    }

    #[test]
    fn prefix_caching_kicks_in_for_repeat_users() {
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 2.0, &mut SimRng::seed_from_u64(6));
        let mut cluster = Cluster::new(&config(EngineKind::prefillonly_default()));
        let report = cluster.run(&arrivals, 2.0).unwrap();
        assert!(
            report.cache_hit_rate() > 0.5,
            "a user's 6 posts share a ~4k-token profile; hit rate was {:.2}",
            report.cache_hit_rate()
        );
    }

    /// Tentpole acceptance: the byte-identity guarantee survives elasticity.  With
    /// all three KV tiers active, propagation epochs cutting the window, and a
    /// membership schedule that drains one instance mid-trace (spilling its KV to
    /// the shared tier) and later joins a warm replacement, the threaded replay
    /// stays byte-identical to the sequential reference — and the streamed replay
    /// to the materialised one — under both sticky and cache-aware routing,
    /// across two consecutive windows.
    #[test]
    fn parallel_replay_is_byte_identical_to_sequential_across_membership_events() {
        use workload::MembershipEvent;
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        for policy in [
            crate::routing::RoutingPolicyKind::StickyUser,
            crate::routing::RoutingPolicyKind::CacheAware,
        ] {
            let (config, arrivals) = net_pressure_config(64 << 30);
            let config = config.with_routing(policy).with_net_propagation_ms(2_000);
            let schedule = MembershipSchedule::new(vec![
                MembershipEvent {
                    at: at(2_500),
                    change: MembershipChange::Drain { spill: true },
                },
                MembershipEvent {
                    at: at(10_000),
                    change: MembershipChange::Join {
                        attached: true,
                        role: InstanceRole::Colocated,
                    },
                },
            ]);

            let mut parallel = Cluster::new(&config);
            let mut sequential = Cluster::new(&config);
            let mut streamed = Cluster::new(&config);
            parallel.schedule_membership(schedule.clone());
            sequential.schedule_membership(schedule.clone());
            streamed.schedule_membership(schedule.clone());
            let mut event_window_records = Vec::new();
            for window in 0..2 {
                let a = parallel.run(&arrivals, 3.0).unwrap();
                let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
                let mut stream = SliceArrivalStream::from_sorted(&arrivals);
                let c = streamed.run_stream(&mut stream, 3.0).unwrap();
                assert_eq!(a.records, b.records, "{policy:?} window {window}");
                assert_eq!(a.makespan, b.makespan, "{policy:?} window {window}");
                assert_eq!(a.cache, b.cache, "{policy:?} window {window}");
                assert_eq!(a.offload, b.offload, "{policy:?} window {window}");
                assert_eq!(a.records, c.records, "{policy:?} window {window} streamed");
                assert_eq!(a.cache, c.cache, "{policy:?} window {window} streamed");
                assert_eq!(a.offload, c.offload, "{policy:?} window {window} streamed");
                if window == 0 {
                    event_window_records = a.records.clone();
                }
            }

            // The schedule actually played out — identically on every path.
            for cluster in [&parallel, &sequential, &streamed] {
                let log = cluster.membership_log();
                assert_eq!(log.len(), 2, "{policy:?}: both events applied");
                assert!(
                    matches!(log[0].change, MembershipChange::Drain { spill: true }),
                    "{policy:?}"
                );
                assert!(
                    matches!(log[1].change, MembershipChange::Join { attached: true, .. }),
                    "{policy:?}"
                );
                let drains = cluster.drain_records();
                assert_eq!(drains.len(), 1, "{policy:?}: the drained slot retired");
                assert_eq!(drains[0].slot, log[0].slot, "{policy:?}");
                assert!(
                    drains[0].spill.gpu_blocks > 0,
                    "{policy:?}: the leaver must hand its GPU-resident KV to the net tier"
                );
                assert_eq!(cluster.num_active_instances(), 2, "{policy:?}");
                // No arrival routed after the drain ran on the drained slot.
                let applied = log[0].at;
                let drained = log[0].slot;
                assert!(
                    cluster.drain_records()[0].retired_at >= applied,
                    "{policy:?}"
                );
                // The join may reuse the retired slot, so the no-misroute window
                // runs from the drain's application to the join's.
                let rejoined = log[1].at;
                assert!(
                    event_window_records
                        .iter()
                        .filter(|r| r.arrival >= applied && r.arrival < rejoined)
                        .all(|r| r.instance != drained),
                    "{policy:?}: no post-drain arrival may run on the drained slot"
                );
            }
            assert_eq!(
                parallel.membership_log(),
                sequential.membership_log(),
                "{policy:?}"
            );
            assert_eq!(
                parallel.drain_records(),
                sequential.drain_records(),
                "{policy:?}"
            );
            let pa = parallel.net_pool().unwrap();
            let pb = sequential.net_pool().unwrap();
            assert_eq!(pa.resident_blocks(), pb.resident_blocks(), "{policy:?}");
            assert_eq!(pa.generation(), pb.generation(), "{policy:?}");
        }
    }

    /// Sticky routing across a drain: once the drain applies, no arrival routes to
    /// the drained slot (a modulus over the original fleet size would keep sending
    /// every second user there), and the surviving slots keep serving.
    #[test]
    fn sticky_routing_never_sends_post_drain_arrivals_to_the_drained_slot() {
        use workload::MembershipEvent;
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 5.0, &mut SimRng::seed_from_u64(2));
        let schedule = MembershipSchedule::new(vec![MembershipEvent {
            at: SimTime::ZERO + SimDuration::from_millis(2_000),
            change: MembershipChange::Drain { spill: false },
        }]);

        let config = config(EngineKind::prefillonly_default());
        let mut cluster = Cluster::new(&config);
        cluster.schedule_membership(schedule);
        let a = cluster.run(&arrivals, 5.0).unwrap();

        // The drain actually bit mid-trace, and nothing was routed onto the
        // drained slot afterwards.
        let log = cluster.membership_log();
        assert_eq!(log.len(), 1);
        let (applied, drained) = (log[0].at, log[0].slot);
        let post_drain: Vec<_> = a.records.iter().filter(|r| r.arrival >= applied).collect();
        assert!(
            !post_drain.is_empty(),
            "the trace must continue past the drain for the pin to mean anything"
        );
        assert!(
            post_drain.iter().all(|r| r.instance != drained),
            "post-drain arrivals must never route to the drained slot"
        );
        assert!(
            a.records
                .iter()
                .any(|r| r.arrival >= applied && r.instance != drained),
            "survivors keep serving"
        );
    }

    /// The autoscaler is deterministic: evaluated at epoch boundaries from
    /// completed-epoch load only, so the threaded replay scales (and replays)
    /// byte-identically to the sequential reference, and every derived event is
    /// logged as autoscaled.
    #[test]
    fn autoscaler_scales_up_deterministically_at_epoch_boundaries() {
        let (config, arrivals) = net_pressure_config(64 << 30);
        let config = config.with_net_propagation_ms(2_000).with_autoscaler(
            crate::config::AutoscalerPolicy {
                scale_up_outstanding_tokens: 1,
                scale_down_outstanding_tokens: 0,
                cooldown_epochs: 1,
                min_instances: 1,
                max_instances: 4,
            },
        );
        let mut parallel = Cluster::new(&config);
        let mut sequential = Cluster::new(&config);
        let a = parallel.run(&arrivals, 3.0).unwrap();
        let b = sequential.run_sequential(&arrivals, 3.0).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.offload, b.offload);
        assert_eq!(parallel.membership_log(), sequential.membership_log());
        let log = parallel.membership_log();
        assert!(
            !log.is_empty(),
            "a squeezed two-instance fleet under pressure must trigger a scale-up"
        );
        assert!(log.iter().all(|applied| applied.autoscaled));
        assert!(log.iter().any(|applied| matches!(
            applied.change,
            MembershipChange::Join { attached: true, .. }
        )));
        assert!(parallel.num_active_instances() > 2);
        assert!(parallel.num_active_instances() <= 4);
    }

    /// The disaggregated twin of [`decode_conversation_scenario`]: slot 0 runs the
    /// prefill phase only, slot 1 the decode phase only, with the same squeezed
    /// tiers, cache-aware routing and propagation epochs.
    fn disaggregated_conversation_scenario() -> (EngineConfig, workload::ConversationSpec) {
        let (config, spec) = decode_conversation_scenario();
        (
            config.with_roles(vec![InstanceRole::Prefill, InstanceRole::Decode]),
            spec,
        )
    }

    /// Tentpole acceptance: the determinism guarantee survives disaggregation.
    /// With slot 0 prefill-only and slot 1 decode-only — every request prefills on
    /// one slot, crosses the fabric as a KV handoff and decodes on the other —
    /// all four replay paths produce byte-identical records, cache, offload and
    /// handoff accounting, under cache-aware and sticky routing alike (sticky
    /// routing must read the routable slots too, never the decode-only one).  The
    /// chunked-prefill engine keeps every prompt's full KV resident, so its decode
    /// slot runs out of room and some handoffs take the retry path.
    #[test]
    fn disaggregated_replay_is_byte_identical_across_all_four_replay_paths() {
        use crate::routing::RoutingPolicyKind;
        use workload::{conversation_trace, ConversationStream};
        for (kind, policy) in [
            (
                EngineKind::prefillonly_default(),
                RoutingPolicyKind::CacheAware,
            ),
            (
                EngineKind::prefillonly_default(),
                RoutingPolicyKind::StickyUser,
            ),
            (EngineKind::chunked_default(), RoutingPolicyKind::CacheAware),
        ] {
            let (mut config, spec) = disaggregated_conversation_scenario();
            config.kind = kind;
            let config = config.with_routing(policy);
            let qps = 1.0;
            let seed = 77;

            let trace = conversation_trace(&spec, qps, seed);
            let mut parallel = Cluster::new(&config);
            assert!(parallel.instances().len() > 1);
            let a = parallel.run(&trace, qps).unwrap();
            let mut sequential = Cluster::new(&config);
            let b = sequential.run_sequential(&trace, qps).unwrap();
            let mut streamed = Cluster::new(&config);
            let c = streamed
                .run_stream(&mut ConversationStream::new(spec, qps, seed), qps)
                .unwrap();
            let mut streamed_seq = Cluster::new(&config);
            let d = streamed_seq
                .run_stream_sequential(&mut ConversationStream::new(spec, qps, seed), qps)
                .unwrap();

            // Non-vacuity: every request prefilled on slot 0, decoded on slot 1, and
            // paid a real fabric transfer.
            assert_eq!(
                a.records.len() as u64,
                spec.num_requests(),
                "{kind:?} {policy:?}"
            );
            assert_eq!(
                a.handed_off_requests(),
                spec.num_requests(),
                "{kind:?} {policy:?}"
            );
            assert!(a.handoff_bytes() > 0, "{kind:?} {policy:?}");
            for r in &a.records {
                assert_eq!(
                    r.instance, 0,
                    "{kind:?} {policy:?}: arrivals must route to the prefill slot"
                );
                assert_eq!(r.decode_instance, Some(1), "{kind:?} {policy:?}");
                assert!(r.handoff_bytes > 0, "{kind:?} {policy:?}");
                assert!(r.first_token < r.completed, "{kind:?} {policy:?}");
                assert!(r.tpot().is_some(), "{kind:?} {policy:?}");
            }

            for (label, other) in [("sequential", &b), ("streamed", &c), ("streamed seq", &d)] {
                assert_eq!(
                    a.records, other.records,
                    "{kind:?} {policy:?}: {label} records diverged"
                );
                assert_eq!(
                    a.makespan, other.makespan,
                    "{kind:?} {policy:?}: {label} makespan diverged"
                );
                assert_eq!(
                    a.cache, other.cache,
                    "{kind:?} {policy:?}: {label} cache stats diverged"
                );
                assert_eq!(
                    a.offload, other.offload,
                    "{kind:?} {policy:?}: {label} offload stats diverged"
                );
            }
        }
    }

    /// The handoff shadow model: every decode-bearing request of a disaggregated
    /// replay appears exactly once, prefilled on a prefill-capable slot and decoded
    /// on a decode-capable one, and the fabric ledger's cumulative totals reconcile
    /// with both the per-record bytes and the [`OffloadStats`] aggregation.
    #[test]
    fn handoff_ledger_reconciles_with_records_and_offload_totals() {
        use workload::conversation_trace;
        let (config, spec) = disaggregated_conversation_scenario();
        let trace = conversation_trace(&spec, 1.0, 21);
        let mut cluster = Cluster::new(&config);
        let report = cluster.run(&trace, 1.0).unwrap();

        assert_eq!(report.records.len() as u64, spec.num_requests());
        let mut ids: Vec<u64> = report.records.iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len() as u64,
            spec.num_requests(),
            "every handed-off chain decodes exactly once"
        );
        for r in &report.records {
            assert!(cluster.instances()[r.instance].role().can_prefill());
            let decode = r.decode_instance.expect("every request hands off");
            assert!(cluster.instances()[decode].role().can_decode());
            assert!(r.handoff_bytes > 0);
        }

        let record_bytes: u64 = report.records.iter().map(|r| r.handoff_bytes).sum();
        assert_eq!(report.offload.handoff_records, spec.num_requests());
        assert_eq!(report.offload.handoff_bytes, record_bytes);
        assert_eq!(report.handoff_bytes(), record_bytes);
        assert_eq!(report.handed_off_requests(), spec.num_requests());
    }

    /// The per-window time-series export: `track_window_metrics` samples every
    /// epoch boundary (per-slot gauges with roles, fleet counters), the final
    /// window accounts every handoff, and the export is inert when untracked.
    #[test]
    fn window_metrics_sample_the_fleet_at_epoch_boundaries() {
        use workload::conversation_trace;
        let (config, spec) = disaggregated_conversation_scenario();
        let trace = conversation_trace(&spec, 1.0, 21);

        let untracked = Cluster::new(&config).run(&trace, 1.0).unwrap();
        assert!(untracked.windows.is_empty());
        assert_eq!(untracked.prometheus_window_series(), "");

        let config = config.with_window_metrics();
        let report = Cluster::new(&config).run(&trace, 1.0).unwrap();
        assert_eq!(
            report.records, untracked.records,
            "observation must not perturb the replay"
        );
        assert!(!report.windows.is_empty());
        for (i, window) in report.windows.iter().enumerate() {
            assert_eq!(window.window, i as u64);
            assert_eq!(window.slots.len(), 2);
            assert_eq!(window.slots[0].role, InstanceRole::Prefill);
            assert_eq!(window.slots[1].role, InstanceRole::Decode);
        }
        let last = report.windows.last().expect("checked non-empty");
        assert_eq!(last.handoff_records, spec.num_requests());
        assert_eq!(last.handoff_bytes, report.offload.handoff_bytes);
        let prom = report.prometheus_window_series();
        assert!(prom.contains("prefillonly_handoff_records_total"));
        assert!(prom.contains("role=\"decode\""));

        // A fixed, tierless, colocated fleet replays a materialised trace as one
        // window with no boundary, so tracking samples nothing and perturbs nothing.
        let ds = small_post_rec_dataset();
        let arrivals = assign_poisson_arrivals(&ds, 5.0, &mut SimRng::seed_from_u64(1));
        let single = self::config(EngineKind::prefillonly_default());
        let untracked = Cluster::new(&single).run(&arrivals, 5.0).unwrap();
        let tracked = Cluster::new(&single.with_window_metrics())
            .run(&arrivals, 5.0)
            .unwrap();
        assert!(
            tracked.windows.is_empty(),
            "a single window has no boundary to sample"
        );
        assert_eq!(tracked.records, untracked.records);
    }
}
