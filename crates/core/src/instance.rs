//! A single engine instance: executor + KV-cache manager + scheduler.
//!
//! One instance corresponds to one engine process in the paper's deployment: a single
//! GPU for PrefillOnly / PagedAttention / chunked prefill, or both GPUs for the TP / PP
//! baselines.  The [`crate::Cluster`] owns several instances plus the router and drives
//! them from a discrete-event loop; the instance itself only knows how to enqueue,
//! start and complete requests against virtual time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

use executor::{max_input_length, profile_jct_grid, Executor};
use gpu::{HostLink, NetLink};
use kvcache::{
    hash_token_blocks, CacheStats, KvCacheManager, NetKvPool, OffloadStats, ProbeCache,
    ReloadQuote, ReloadTier, RequestKv, RetentionPolicy, SequenceGrowth, TierHits, TokenBlockHash,
};
use scheduler::{CacheProbe, JctEstimator, SchedulingPolicy, WaitingQueue, WaitingRequest};
use workload::InstanceRole;

use crate::config::{EngineConfig, ReloadPolicyKind};
use crate::report::RequestRecord;
use crate::request::PrefillRequest;
use crate::routing::InstanceLoad;

/// Cumulative per-instance statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected (would not fit even with an empty cache).
    pub rejected: u64,
    /// Total GPU busy time accumulated across stages.
    pub busy: SimDuration,
}

/// A request admitted to execution, as seen by the cluster's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedRequest {
    /// The admitted request's id.
    pub request_id: u64,
    /// When its single output token will be ready.
    pub completion: SimTime,
}

struct RunningRequest {
    request: PrefillRequest,
    kv: RequestKv,
    started: SimTime,
    /// When the prefill pass finished and the first output token appeared.
    /// Equals `completion` for prefill-only requests.
    first_token: SimTime,
    completion: SimTime,
    /// Set on a `Prefill`-role instance: the request stops at its first token and
    /// emits a KV handoff instead of a record (it never decodes here, so it is not
    /// a decode batchmate either).
    emit_handoff: bool,
    /// Set on the decode side of a handoff: prefill-side residency stats and the
    /// bytes that crossed the fabric, folded into the final record.
    carried: Option<HandoffCarry>,
}

/// Prefill-side facts a handed-off request carries to its decode slot, so the final
/// [`RequestRecord`] reports the residency the *prefill* pass actually saw.
#[derive(Debug, Clone, Copy)]
struct HandoffCarry {
    prefill_slot: usize,
    bytes: u64,
    cached_tokens: u64,
    reloaded_tokens: u64,
    net_reloaded_tokens: u64,
    net_propagated_tokens: u64,
}

/// The prefill side's half of a disaggregated request: everything a decode-capable
/// slot needs to admit the whole reserved chain and price the decode schedule.
///
/// Emitted by a `Prefill`-role instance when a decode-bearing request reaches its
/// first token; drained by the cluster at the next propagation-epoch boundary
/// ([`EngineInstance::take_handoffs`]) into the
/// [`kvcache::HandoffLedger`].
#[derive(Debug, Clone)]
pub struct KvHandoff {
    /// The original request (tokens, decode budget, routing provenance).
    pub request: PrefillRequest,
    /// Slot that ran the prefill pass.
    pub prefill_slot: usize,
    /// When the prefill side admitted the request.
    pub started: SimTime,
    /// First-token time on the prefill side — TTFT is pinned here, and the fabric
    /// transfer starts here.
    pub first_token: SimTime,
    /// Whole reserved chain size in blocks (prompt + [`SequenceGrowth`] reservation).
    pub blocks: u64,
    /// Bytes that cross the fabric (`blocks × block_bytes`).
    pub bytes: u64,
    /// When the chain has fully arrived at a decode slot.
    pub ready_at: SimTime,
    /// GPU-resident prompt tokens the prefill pass reused.
    pub cached_tokens: u64,
    /// Prompt tokens rehydrated over the host link on the prefill side.
    pub reloaded_tokens: u64,
    /// Prompt tokens rehydrated over the network tier on the prefill side.
    pub net_reloaded_tokens: u64,
    /// The mid-window-propagation subset of `net_reloaded_tokens`.
    pub net_propagated_tokens: u64,
}

/// Outcome of offering a [`KvHandoff`] to a decode-capable instance.
#[derive(Debug)]
pub enum HandoffAdmission {
    /// The chain was admitted; the decode schedule is priced and the started
    /// request carries its completion time.
    Admitted(StartedRequest),
    /// Transient KV pressure: running requests still pin their blocks.  The cluster
    /// re-enqueues the handoff and retries at the next epoch boundary.
    Retry(KvHandoff),
    /// The whole reserved chain exceeds even an empty pool — counted as rejected.
    Rejected,
}

/// Tokens a tiered prefix hit is worth to the JCT estimator.
///
/// GPU hits count in full.  CPU and network hits are discounted by their tier's
/// reload-vs-recompute cost ratio: rehydrating a token over a link is not free, so a
/// tier-resident token only saves `1 − reload/recompute` of its computation time —
/// with the network link slower than the host link, remote hits are discounted more
/// deeply than CPU hits.  Both are further capped by the pool space left next to the
/// tiers above them — allocation can only rehydrate blocks it can make resident, so
/// crediting more would under-estimate the JCT of tier-warm requests larger than the
/// pool.  With all of this folded in, calibrated SRJF ranks a tier-warm long request
/// exactly as far ahead as the transfers actually make it (and ignores a tier
/// entirely on hosts where its link is no cheaper than recomputing).
pub(crate) fn effective_cached_tokens(
    hits: TierHits,
    pool_capacity_blocks: u64,
    block_size: usize,
    cpu_hit_discount: f64,
    net_hit_discount: f64,
) -> u64 {
    let gpu_blocks = hits.gpu_blocks as u64;
    let gpu = gpu_blocks * block_size as u64;
    let cpu_reloadable =
        (hits.cpu_blocks as u64).min(pool_capacity_blocks.saturating_sub(gpu_blocks));
    let cpu = cpu_reloadable * block_size as u64;
    let net_reloadable = (hits.net_blocks as u64)
        .min(pool_capacity_blocks.saturating_sub(gpu_blocks + cpu_reloadable));
    let net = net_reloadable * block_size as u64;
    gpu + (cpu as f64 * cpu_hit_discount) as u64 + (net as f64 * net_hit_discount) as u64
}

/// The outcome of one instance profile run (§3.1 / §6.3): everything about an
/// instance that is a pure function of its [`EngineConfig`].
///
/// Instances of one deployment are identical, so [`crate::Cluster::new`] runs the
/// profile **once** and builds every instance from the shared result
/// ([`EngineInstance::with_profile`]) instead of re-profiling per instance — pinned
/// bit-identical to per-instance profiling by the
/// `shared_profile_is_bit_identical_to_per_instance_profiling` test.
#[derive(Debug, Clone)]
pub struct InstanceProfile {
    executor: Executor,
    max_input_length: u64,
    pool_blocks: u64,
    /// Bytes of full KV (all layers, all shards) per block — what crosses a link to
    /// rehydrate one block.
    block_bytes: u64,
    estimator: JctEstimator,
    cpu_hit_discount: f64,
    net_hit_discount: f64,
}

impl InstanceProfile {
    /// Runs the profile for one instance of the deployment described by `config`:
    /// derives the maximum input length, reserves activation memory for the longest
    /// admissible request, dedicates the remaining GPU memory to the prefix-cache KV
    /// pool, fits the JCT estimator over the profiling grid, and derives the per-tier
    /// reload discounts.
    pub fn new(config: &EngineConfig) -> InstanceProfile {
        let executor = Executor::new(config.executor_config());
        let mil = max_input_length(&executor, config.profile_granularity);
        let effective_max = config.max_model_len.min(mil).max(1);

        // Profile run: size the KV pool from what is left after the longest request.
        let pool_bytes_per_gpu = executor.kv_pool_bytes_per_gpu(effective_max);
        let kv_per_token_per_gpu = executor.kv_bytes_per_token_per_gpu().max(1);
        let pool_tokens = pool_bytes_per_gpu / kv_per_token_per_gpu;
        let pool_blocks = (pool_tokens / config.block_size as u64).max(1);
        // A spilled/reloaded block carries the *full* KV of its tokens (all layers,
        // all shards) — that is what must cross PCIe or the network to rehydrate it.
        let kv_bytes_per_token = executor.config().model.kv_bytes_per_token().max(1);
        let block_bytes = kv_bytes_per_token * config.block_size as u64;

        // JCT profile (§6.3): grid over (n_input, n_cached) at 1,000-token granularity,
        // then fit the cache-miss-token proxy the paper uses by default.
        let granularity = config.profile_granularity.min(effective_max).max(1);
        let grid = profile_jct_grid(&executor, effective_max, granularity);
        let samples: Vec<(f64, f64, f64)> = grid
            .iter()
            .map(|p| (p.n_input as f64, p.n_cached as f64, p.jct_secs))
            .collect();
        let estimator = JctEstimator::fit_proxy(&samples).unwrap_or_else(|| {
            // Degenerate profile (single feasible length): fall back to a direct
            // per-token cost measurement.
            let jct = executor.forward_time(effective_max, 0).total.as_secs_f64();
            JctEstimator::proxy(jct / effective_max as f64, 0.0)
        });

        // Per-tier reload-vs-recompute trade-off, folded into the JCT probe: a
        // tier-resident token hit saves the recompute time minus its link's transfer
        // time.  The recompute rate comes from the fitted estimator itself (the
        // marginal cost of one more uncached token), so the discounts stay consistent
        // with the scores the scheduler compares.
        let recompute_secs_per_token =
            ((estimator.estimate(2_000, 0) - estimator.estimate(1_000, 0)) / 1_000.0).max(1e-12);
        let reload_secs_per_token =
            HostLink::new(config.host_link).secs_per_byte() * kv_bytes_per_token as f64;
        let cpu_hit_discount =
            (1.0 - reload_secs_per_token / recompute_secs_per_token).clamp(0.0, 1.0);
        let net_reload_secs_per_token =
            NetLink::new(config.net_link).secs_per_byte() * kv_bytes_per_token as f64;
        let net_hit_discount =
            (1.0 - net_reload_secs_per_token / recompute_secs_per_token).clamp(0.0, 1.0);

        InstanceProfile {
            executor,
            max_input_length: mil,
            pool_blocks,
            block_bytes,
            estimator,
            cpu_hit_discount,
            net_hit_discount,
        }
    }

    /// Maximum input length of the profiled instance (Table 2).
    pub fn max_input_length(&self) -> u64 {
        self.max_input_length
    }

    /// The fitted JCT estimator.
    pub fn jct_estimator(&self) -> JctEstimator {
        self.estimator
    }

    /// Bytes of full KV per block (what a spill or reload moves per block).
    pub fn kv_block_bytes(&self) -> u64 {
        self.block_bytes
    }
}

/// One serving-engine instance.
pub struct EngineInstance {
    id: usize,
    executor: Executor,
    kv: KvCacheManager,
    policy: Box<dyn SchedulingPolicy + Send + Sync>,
    estimator: JctEstimator,
    retention: RetentionPolicy,
    queue: WaitingQueue,
    pending_hashes: HashMap<u64, Arc<Vec<TokenBlockHash>>>,
    pending_requests: HashMap<u64, PrefillRequest>,
    /// Memoised cache-probe results per waiting request, keyed by the KV manager's
    /// generation counters.  `RefCell` because the probe is handed to the scheduling
    /// policy behind an immutable [`CacheProbe`] reference.
    probe_cache: RefCell<ProbeCache>,
    running: HashMap<u64, RunningRequest>,
    stage_free_at: Vec<SimTime>,
    max_input_length: u64,
    /// Bytes of full KV per block, as profiled — the geometry every tier pool was
    /// built with.
    block_bytes: u64,
    /// Host↔device link KV blocks cross when spilled to / reloaded from the CPU tier.
    host_link: HostLink,
    /// Network link KV blocks cross when reloaded from the cluster-shared tier.
    net_link: NetLink,
    /// JCT-estimator weight of a CPU-tier token hit, in `[0, 1]` (see
    /// [`effective_cached_tokens`]).
    cpu_hit_discount: f64,
    /// JCT-estimator weight of a network-tier token hit, in `[0, 1]`.
    net_hit_discount: f64,
    /// How reload-vs-recompute is decided per reloadable segment.
    reload_policy: ReloadPolicyKind,
    /// Which serving phase(s) this instance runs (see [`InstanceRole`]).
    role: InstanceRole,
    /// KV handoffs emitted since the cluster last drained them (prefill role only).
    outbox: Vec<KvHandoff>,
    stats: InstanceStats,
}

/// The engine-side [`CacheProbe`]: answers "how many tokens of this waiting request
/// currently hit the prefix cache" from the memoised [`ProbeCache`], which degrades to
/// a hash-chain walk only when the cache contents actually changed (and only from the
/// previously hit depth when nothing was evicted).
struct KvCacheProbe<'a> {
    kv: &'a KvCacheManager,
    hashes: &'a HashMap<u64, Arc<Vec<TokenBlockHash>>>,
    memo: &'a RefCell<ProbeCache>,
    cpu_hit_discount: f64,
    net_hit_discount: f64,
}

impl CacheProbe for KvCacheProbe<'_> {
    fn cached_tokens(&self, request: &WaitingRequest) -> u64 {
        self.hashes
            .get(&request.id)
            .map(|hashes| {
                let hits = self
                    .memo
                    .borrow_mut()
                    .tier_hits(self.kv, request.id, hashes);
                effective_cached_tokens(
                    hits,
                    self.kv.capacity_blocks(),
                    self.kv.block_size(),
                    self.cpu_hit_discount,
                    self.net_hit_discount,
                )
            })
            .unwrap_or(0)
    }
}

impl EngineInstance {
    /// Builds instance `id` of the deployment described by `config`, running a
    /// private profile run ([`InstanceProfile::new`]).
    ///
    /// Deployments with several identical instances should profile once and use
    /// [`Self::with_profile`] instead — [`crate::Cluster::new`] does.
    pub fn new(config: &EngineConfig, id: usize) -> EngineInstance {
        Self::with_profile(config, &InstanceProfile::new(config), id)
    }

    /// Builds instance `id` from an already-computed [`InstanceProfile`] (identical
    /// instances of one deployment share a single profile run).
    pub fn with_profile(
        config: &EngineConfig,
        profile: &InstanceProfile,
        id: usize,
    ) -> EngineInstance {
        let executor = profile.executor.clone();
        // Hierarchical tiers (§9): eviction victims spill to host memory and reload
        // over the host link; CPU eviction victims cascade into the cluster-shared
        // network tier, whose snapshot the cluster installs around each replay
        // window (a standalone instance gets a private pool here).
        let mut kv = KvCacheManager::with_offload(
            profile.pool_blocks,
            config.block_size,
            config.cpu_kv_capacity_bytes,
            profile.block_bytes,
        );
        if config.net_kv_capacity_bytes > 0 {
            kv.install_net_pool(NetKvPool::new(
                config.net_kv_capacity_bytes,
                profile.block_bytes,
            ));
        }

        let retention = if config.kind.strategy().requires_full_kv_residency() {
            RetentionPolicy::FullResidency
        } else {
            RetentionPolicy::PrefixBestEffort
        };
        let stages = executor.config().parallelism.num_stages() as usize;

        EngineInstance {
            id,
            policy: config.kind.policy().build(profile.estimator),
            estimator: profile.estimator,
            executor,
            kv,
            retention,
            queue: WaitingQueue::new(),
            pending_hashes: HashMap::new(),
            pending_requests: HashMap::new(),
            probe_cache: RefCell::new(ProbeCache::new()),
            running: HashMap::new(),
            stage_free_at: vec![SimTime::ZERO; stages],
            max_input_length: profile.max_input_length,
            block_bytes: profile.block_bytes,
            host_link: HostLink::new(config.host_link),
            net_link: NetLink::new(config.net_link),
            cpu_hit_discount: profile.cpu_hit_discount,
            net_hit_discount: profile.net_hit_discount,
            reload_policy: config.reload_policy,
            role: config.role_of(id),
            outbox: Vec::new(),
            stats: InstanceStats::default(),
        }
    }

    /// Instance index within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The serving phase(s) this instance runs.
    pub fn role(&self) -> InstanceRole {
        self.role
    }

    /// Overrides the instance's role (elastic joins carry a role in their
    /// membership event; slot reuse rebuilds the instance and then re-stamps it).
    pub fn set_role(&mut self, role: InstanceRole) {
        self.role = role;
    }

    /// Drains the KV handoffs emitted since the last call (prefill role only;
    /// always empty on colocated and decode instances).
    pub fn take_handoffs(&mut self) -> Vec<KvHandoff> {
        std::mem::take(&mut self.outbox)
    }

    /// The executor used by this instance.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The fitted JCT estimator.
    pub fn jct_estimator(&self) -> JctEstimator {
        self.estimator
    }

    /// Maximum input length this instance can execute (Table 2).
    pub fn max_input_length(&self) -> u64 {
        self.max_input_length
    }

    /// Capacity of the prefix-cache pool, in tokens.
    pub fn kv_pool_tokens(&self) -> u64 {
        self.kv.capacity_blocks() * self.kv.block_size() as u64
    }

    /// Number of requests waiting to be scheduled.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of requests currently executing.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> InstanceStats {
        self.stats
    }

    /// Prefix-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.kv.stats()
    }

    /// CPU-tier (hierarchical cache) statistics; all zero when offload is disabled.
    pub fn offload_stats(&self) -> OffloadStats {
        self.kv.offload_stats()
    }

    /// GPU-resident (committed, reusable) prefix-cache blocks right now.
    pub fn gpu_cached_blocks(&self) -> u64 {
        self.kv.cached_blocks()
    }

    /// CPU-tier resident blocks right now (0 when offload is disabled).
    pub fn cpu_resident_blocks(&self) -> u64 {
        self.kv.cpu_resident_blocks()
    }

    /// The JCT-estimator weight of a CPU-tier token hit (0 = reloading is no cheaper
    /// than recomputing, 1 = reloading is free).
    pub fn cpu_hit_discount(&self) -> f64 {
        self.cpu_hit_discount
    }

    /// The JCT-estimator weight of a network-tier token hit (same scale as
    /// [`Self::cpu_hit_discount`], but over the slower network link).
    pub fn net_hit_discount(&self) -> f64 {
        self.net_hit_discount
    }

    /// Bytes of full KV per block (what a spill or reload moves per block) — the
    /// [`InstanceProfile::kv_block_bytes`] value the KV pools were built with.
    pub fn kv_block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Installs a network-tier pool of this instance's own, which no barrier merges
    /// and which evicts in place (see [`kvcache::KvCacheManager::install_net_pool`]).
    pub fn install_net_pool(&mut self, pool: NetKvPool) {
        self.kv.install_net_pool(pool);
    }

    /// Installs an append-only view of the cluster-shared network KV tier (see
    /// [`kvcache::NetPoolView`]).
    pub fn install_net_view(&mut self, view: kvcache::NetPoolView) {
        self.kv.install_net_view(view);
    }

    /// Harvests the shared-tier view for the barrier merge; a private pool stays
    /// installed (see [`kvcache::KvCacheManager::take_net_view`]).
    pub fn take_net_view(&mut self) -> Option<kvcache::NetPoolView> {
        self.kv.take_net_view()
    }

    /// The currently installed network-tier snapshot, if any.
    pub fn net_pool(&self) -> Option<&kvcache::NetPoolView> {
        self.kv.net_pool()
    }

    /// Publishes this instance's reusable KV into its installed network-tier
    /// snapshot — the drain-to-net handoff of a leaving instance (see
    /// [`kvcache::KvCacheManager::drain_to_net`]).  A no-op without an installed
    /// snapshot (detached slots, tierless deployments).
    pub fn drain_to_net(&mut self, now: SimTime) -> kvcache::DrainSpill {
        self.kv.drain_to_net(now)
    }

    /// The instance's modelled load as the routing layer sees it: waiting plus
    /// running requests and their input tokens.  The queue half is O(1)
    /// ([`WaitingQueue::total_tokens`]); the running half iterates the (small) set of
    /// in-flight requests.
    pub fn router_load(&self) -> InstanceLoad {
        let running_tokens: u64 = self.running.values().map(|r| r.request.num_tokens()).sum();
        InstanceLoad {
            queued_requests: (self.queue.len() + self.running.len()) as u64,
            outstanding_tokens: self.queue.total_tokens() + running_tokens,
        }
    }

    /// This instance's KV manager — what cache-aware routing walks hash chains
    /// against at the start of each replay window or propagation epoch.
    pub(crate) fn kv(&self) -> &KvCacheManager {
        &self.kv
    }

    /// Earliest virtual time at which a new request could be admitted (when the first
    /// pipeline stage becomes free).
    pub fn next_admission_time(&self) -> SimTime {
        self.stage_free_at[0]
    }

    /// Whether a request of `tokens` tokens can be executed by this instance at all.
    pub fn can_serve(&self, tokens: u64) -> bool {
        tokens <= self.max_input_length
    }

    /// Adds a request to the waiting queue.
    ///
    /// The request's block-hash chain is computed once here; every later cache probe
    /// (continuous JCT calibration runs one per waiting request per scheduling step)
    /// reuses it.
    pub fn enqueue(&mut self, request: PrefillRequest, now: SimTime) {
        self.enqueue_with_hashes(request, None, now);
    }

    /// Like [`Self::enqueue`], but reusing a block-hash chain the caller already
    /// computed (cache-aware routing hashes every arrival to probe instances, so the
    /// cluster hands the chain through rather than hashing the tokens twice).
    ///
    /// `hashes` must be `hash_token_blocks(&request.tokens, block_size)` for this
    /// instance's block size; pass `None` to compute it here.
    pub fn enqueue_with_hashes(
        &mut self,
        request: PrefillRequest,
        hashes: Option<Arc<Vec<TokenBlockHash>>>,
        now: SimTime,
    ) {
        let hashes = hashes
            .unwrap_or_else(|| Arc::new(hash_token_blocks(&request.tokens, self.kv.block_size())));
        debug_assert_eq!(
            hashes.len(),
            request.tokens.len() / self.kv.block_size(),
            "precomputed chain must match the instance's block geometry"
        );
        // The arrival-time probe doubles as the seed of the memoised probe cache, so
        // the first scheduling step already starts from a known hit depth.
        let hits_at_arrival = self
            .probe_cache
            .borrow_mut()
            .tier_hits(&self.kv, request.id, &hashes);
        let cached_at_arrival = effective_cached_tokens(
            hits_at_arrival,
            self.kv.capacity_blocks(),
            self.kv.block_size(),
            self.cpu_hit_discount,
            self.net_hit_discount,
        );
        self.queue.push(WaitingRequest {
            id: request.id,
            arrival: now,
            total_tokens: request.num_tokens(),
            decode_tokens: request.decode_tokens,
            cached_tokens_at_arrival: cached_at_arrival,
        });
        self.pending_hashes.insert(request.id, hashes);
        self.pending_requests.insert(request.id, request);
    }

    /// Attempts to admit the next request according to the scheduling policy.
    ///
    /// Returns `None` when the queue is empty or the first pipeline stage is still
    /// busy.  Requests that cannot be executed (longer than the instance's MIL, or KV
    /// allocation failure under full residency) are dropped and counted as rejected.
    pub fn try_start(&mut self, now: SimTime) -> Option<StartedRequest> {
        loop {
            if self.queue.is_empty() || self.stage_free_at[0] > now {
                return None;
            }
            let selected = {
                let probe = KvCacheProbe {
                    kv: &self.kv,
                    hashes: &self.pending_hashes,
                    memo: &self.probe_cache,
                    cpu_hit_discount: self.cpu_hit_discount,
                    net_hit_discount: self.net_hit_discount,
                };
                self.policy.select(self.queue.requests(), now, &probe)?
            };
            let waiting = self.queue.remove(selected);
            self.probe_cache.borrow_mut().forget(waiting.id);
            let hashes = self
                .pending_hashes
                .remove(&waiting.id)
                .expect("waiting request must have a hash chain");
            let request = self
                .pending_requests
                .remove(&waiting.id)
                .expect("waiting request must have a pending entry");

            if !self.can_serve(request.num_tokens()) {
                self.stats.rejected += 1;
                continue;
            }
            // Per-request reload-vs-recompute decision (the `Modeled` policy): a
            // reloadable segment is fetched over its tier's link only if the
            // modelled transfer time at the observed hit depth beats the modelled
            // recompute saving — both derived from the same executor cost model the
            // engine charges with, so the decision and the charge cannot drift.
            let executor = &self.executor;
            let host_link = self.host_link;
            let net_link = self.net_link;
            let block_size = self.kv.block_size() as u64;
            let always_reload = self.reload_policy == ReloadPolicyKind::Always;
            let mut decide = |quote: &ReloadQuote| -> bool {
                if always_reload {
                    return true;
                }
                let seg_tokens = quote.blocks * block_size;
                let rem_before = (quote.total_tokens - quote.resident_prefix_tokens).max(1);
                let rem_after = rem_before.saturating_sub(seg_tokens).max(1);
                let before = executor
                    .forward_time(rem_before, quote.resident_prefix_tokens)
                    .total
                    .as_secs_f64();
                let after = executor
                    .forward_time(rem_after, quote.resident_prefix_tokens + seg_tokens)
                    .total
                    .as_secs_f64();
                let saving = before - after;
                let transfer = match quote.tier {
                    ReloadTier::Cpu => host_link.transfer_time(quote.bytes),
                    ReloadTier::Net => net_link.transfer_time(quote.bytes),
                }
                .as_secs_f64();
                transfer < saving
            };
            // On a dedicated-prefill instance a decode-bearing request stops at its
            // first token and hands the reserved chain to a decode slot, so only the
            // *prompt* chain is allocated (and later committed) here — the decode
            // growth is reserved on the admitting decode instance instead.
            let emit_handoff = self.role == InstanceRole::Prefill && request.decode_tokens > 0;
            let prompt_chain_blocks = (request.prompt_tokens() / block_size) as usize;
            let (alloc_hashes, alloc_tokens) = if emit_handoff {
                (&hashes[..prompt_chain_blocks], request.prompt_tokens())
            } else {
                (&hashes[..], request.num_tokens())
            };
            let kv_alloc = match self.kv.allocate_from_hashes_with_policy(
                alloc_hashes,
                alloc_tokens,
                now,
                self.retention,
                &mut decide,
            ) {
                Ok(alloc) => alloc,
                Err(err) => {
                    if err.needed_blocks > self.kv.capacity_blocks() {
                        // Even an empty pool could not hold this request: reject it.
                        self.stats.rejected += 1;
                        continue;
                    }
                    // Transient pressure: other running requests still pin their KV
                    // blocks.  Put the request back and wait for a completion to free
                    // references (the cluster re-attempts admission on every event).
                    self.queue.push(waiting);
                    self.pending_hashes.insert(waiting.id, hashes);
                    self.pending_requests.insert(waiting.id, request);
                    return None;
                }
            };

            let cached = kv_alloc.cached_tokens();
            let reloaded = kv_alloc.reloaded_tokens();
            let net_reloaded = kv_alloc.net_reloaded_tokens();
            // The allocation spans the *full* sequence (prompt plus decoded reply —
            // the hash chain covers both so a later turn re-hits its own reply), but
            // the prefill pass only forwards prompt tokens.  Clamp the residency
            // credit to the prompt: decoded tokens are priced per decode step below
            // even when an identical earlier sequence left their KV resident.  For
            // prefill-only requests this degenerates to exactly the pre-decode cost.
            let prompt_tokens = request.prompt_tokens();
            let prefill_resident = (cached + reloaded + net_reloaded).min(prompt_tokens);
            let prefill_new = (prompt_tokens - prefill_resident).max(1);
            // Reloaded tokens behave like cache hits to the model (their KV exists;
            // only uncached tokens are forwarded) but charge their tier's link
            // transfer, serialised before the first stage's compute — the attention
            // over the reloaded prefix cannot start until its KV is device-resident.
            let breakdown = self.executor.forward_time(prefill_new, prefill_resident);
            let reload_transfer = self.host_link.transfer_time(kv_alloc.reloaded_bytes())
                + self.net_link.transfer_time(kv_alloc.net_reloaded_bytes());

            // Continuous batching (iteration-level scheduling): requests that are
            // still producing decode tokens at admission time form the decode batch
            // this request joins.  `HashMap` iteration order is unspecified, but
            // both uses below are order-independent (a count and a sum).
            let batchmates: u64 = self
                .running
                .values()
                .filter(|r| r.request.decode_tokens > 0 && !r.emit_handoff && r.completion > now)
                .count() as u64;
            // Chunked prefill interleaves one decode iteration for the co-running
            // batch after each prefill chunk (Sarathi-style stall-free batching):
            // the new request's prefill pass stretches by the batchmates' decode
            // steps it hosts.  Zero whenever no decode batch is running, which
            // keeps prefill-only replays byte-identical to the pre-decode engine.
            let mut interleave = SimDuration::ZERO;
            if batchmates > 0 {
                if let executor::PrefillStrategy::Chunked { chunk_tokens } =
                    self.executor.config().strategy
                {
                    let chunks = prefill_new.div_ceil(chunk_tokens.max(1));
                    let per_iteration: SimDuration = self
                        .running
                        .values()
                        .filter(|r| {
                            r.request.decode_tokens > 0 && !r.emit_handoff && r.completion > now
                        })
                        .map(|r| {
                            self.executor
                                .decode_step_time(r.request.prompt_tokens(), batchmates)
                        })
                        .sum();
                    interleave = per_iteration * chunks;
                }
            }

            // Walk the request through the pipeline stages, respecting both the
            // request's own data dependency and each stage's availability.
            let mut previous_end = now;
            for (stage, stage_time) in breakdown.stage_times.iter().enumerate() {
                let work = if stage == 0 {
                    *stage_time + reload_transfer + interleave
                } else {
                    *stage_time
                };
                let start = previous_end.max(self.stage_free_at[stage]);
                let end = start + work;
                self.stage_free_at[stage] = end;
                self.stats.busy += work;
                previous_end = end;
            }
            let first_token = previous_end;

            // Iterative decode: one forward pass per reply token, batched with the
            // co-running decoders (weight streaming amortises over the batch).  The
            // decode schedule is priced at admission — replay-safe because the
            // per-instance event sequence is identical across replay modes, so the
            // batch observed here is too.  Decode iterations share the GPU with
            // subsequent prefills via chunked interleaving rather than occupying
            // `stage_free_at` (the batched-iteration simplification: decode never
            // blocks admission, it stretches co-running work instead).
            let mut decode_time = SimDuration::ZERO;
            if !emit_handoff {
                let batch = 1 + batchmates;
                for step in 0..request.decode_tokens {
                    decode_time += self.executor.decode_step_time(prompt_tokens + step, batch);
                }
                self.stats.busy += decode_time;
            }
            let completion = first_token + decode_time;

            let request_id = request.id;
            self.running.insert(
                request_id,
                RunningRequest {
                    request,
                    kv: kv_alloc,
                    started: now,
                    first_token,
                    completion,
                    emit_handoff,
                    carried: None,
                },
            );
            return Some(StartedRequest {
                request_id,
                completion,
            });
        }
    }

    /// Finishes a running request: commits its KV blocks to the prefix cache and
    /// produces the request record.
    ///
    /// Returns `None` on the prefill side of a disaggregated request: instead of a
    /// record, the whole reserved chain is pushed into the handoff outbox
    /// ([`Self::take_handoffs`]) for a decode slot to finish — the record appears
    /// there, once the decode schedule completes.
    ///
    /// # Panics
    ///
    /// Panics if `request_id` is not currently running.
    pub fn complete(&mut self, request_id: u64, now: SimTime) -> Option<RequestRecord> {
        let running = self
            .running
            .remove(&request_id)
            .expect("completing a request that is not running");
        debug_assert!(now >= running.completion);
        let cached = running.kv.cached_tokens();
        let reloaded = running.kv.reloaded_tokens();
        let net_reloaded = running.kv.net_reloaded_tokens();
        let net_propagated = running.kv.net_propagated_tokens();
        self.kv.commit(running.kv, now);
        if running.emit_handoff {
            // The prompt chain stays committed here (later turns re-hit this slot's
            // prefix cache); the whole reserved chain ships over the fabric.
            let request = running.request;
            let growth = SequenceGrowth::new(
                request.prompt_tokens(),
                request.decode_tokens,
                self.kv.block_size(),
            );
            let blocks = growth.total_blocks().max(1);
            let bytes = blocks * self.block_bytes;
            let ready_at = running.first_token + self.net_link.transfer_time(bytes);
            self.outbox.push(KvHandoff {
                request,
                prefill_slot: self.id,
                started: running.started,
                first_token: running.first_token,
                blocks,
                bytes,
                ready_at,
                cached_tokens: cached,
                reloaded_tokens: reloaded,
                net_reloaded_tokens: net_reloaded,
                net_propagated_tokens: net_propagated,
            });
            return None;
        }
        self.stats.completed += 1;
        let mut record = RequestRecord {
            request_id,
            user_id: running.request.user_id,
            instance: self.id,
            decode_instance: None,
            routing: running.request.routing,
            arrival: running.request.arrival,
            started: running.started,
            first_token: running.first_token,
            completed: running.completion,
            total_tokens: running.request.num_tokens(),
            decode_tokens: running.request.decode_tokens,
            cached_tokens: cached,
            reloaded_tokens: reloaded,
            net_reloaded_tokens: net_reloaded,
            net_propagated_tokens: net_propagated,
            handoff_bytes: 0,
        };
        if let Some(carry) = running.carried {
            // A handed-off chain: attribute the prefill work to the prefill slot and
            // report the residency its prefill pass actually saw (the decode-side
            // allocation was fed by the fabric transfer, not the cache tiers).
            record.instance = carry.prefill_slot;
            record.decode_instance = Some(self.id);
            record.handoff_bytes = carry.bytes;
            record.cached_tokens = carry.cached_tokens;
            record.reloaded_tokens = carry.reloaded_tokens;
            record.net_reloaded_tokens = carry.net_reloaded_tokens;
            record.net_propagated_tokens = carry.net_propagated_tokens;
        }
        Some(record)
    }

    /// Offers a handed-off chain to this (decode-capable) instance at an epoch
    /// boundary: reserves the whole chain via the [`SequenceGrowth`]-sized hash
    /// walk and prices the decode schedule against the co-running batch, exactly
    /// as a colocated admission would after its first token.
    ///
    /// Tier reloads are declined outright — the chain's KV arrived over the fabric
    /// with the handoff; re-fetching tier copies on top would double-charge.
    pub fn admit_handoff(&mut self, handoff: KvHandoff, now: SimTime) -> HandoffAdmission {
        debug_assert!(
            self.role.can_decode(),
            "handoffs may only target decode-capable slots"
        );
        let hashes = hash_token_blocks(&handoff.request.tokens, self.kv.block_size());
        let mut decline = |_: &ReloadQuote| false;
        let kv_alloc = match self.kv.allocate_from_hashes_with_policy(
            &hashes,
            handoff.request.num_tokens(),
            now,
            self.retention,
            &mut decline,
        ) {
            Ok(alloc) => alloc,
            Err(err) => {
                if err.needed_blocks > self.kv.capacity_blocks() {
                    // Even an empty pool could not hold the reserved chain.
                    self.stats.rejected += 1;
                    return HandoffAdmission::Rejected;
                }
                return HandoffAdmission::Retry(handoff);
            }
        };
        let batchmates: u64 = self
            .running
            .values()
            .filter(|r| r.request.decode_tokens > 0 && !r.emit_handoff && r.completion > now)
            .count() as u64;
        let batch = 1 + batchmates;
        let prompt_tokens = handoff.request.prompt_tokens();
        let mut decode_time = SimDuration::ZERO;
        for step in 0..handoff.request.decode_tokens {
            decode_time += self.executor.decode_step_time(prompt_tokens + step, batch);
        }
        self.stats.busy += decode_time;
        let completion = now + decode_time;
        let request_id = handoff.request.id;
        self.running.insert(
            request_id,
            RunningRequest {
                request: handoff.request,
                kv: kv_alloc,
                started: handoff.started,
                first_token: handoff.first_token,
                completion,
                emit_handoff: false,
                carried: Some(HandoffCarry {
                    prefill_slot: handoff.prefill_slot,
                    bytes: handoff.bytes,
                    cached_tokens: handoff.cached_tokens,
                    reloaded_tokens: handoff.reloaded_tokens,
                    net_reloaded_tokens: handoff.net_reloaded_tokens,
                    net_propagated_tokens: handoff.net_propagated_tokens,
                }),
            },
        );
        HandoffAdmission::Admitted(StartedRequest {
            request_id,
            completion,
        })
    }
}

impl std::fmt::Debug for EngineInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineInstance")
            .field("id", &self.id)
            .field("max_input_length", &self.max_input_length)
            .field("queue_len", &self.queue.len())
            .field("running", &self.running.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EngineKind};
    use crate::routing::RoutingReason;
    use gpu::HardwareSetup;
    use model::ModelPreset;

    fn config(kind: EngineKind) -> EngineConfig {
        EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            kind,
            20_000,
        )
    }

    fn request(id: u64, user: u64, tokens: u64, arrival: SimTime) -> PrefillRequest {
        PrefillRequest {
            id,
            user_id: user,
            tokens: Arc::new((0..tokens as u32).collect()),
            decode_tokens: 0,
            allowed_outputs: vec!["Yes".into(), "No".into()],
            arrival,
            routing: RoutingReason::Direct,
        }
    }

    #[test]
    fn profile_run_sizes_the_pool_and_mil() {
        let instance = EngineInstance::new(&config(EngineKind::prefillonly_default()), 0);
        assert!(instance.max_input_length() >= 20_000);
        assert!(instance.kv_pool_tokens() > 0);
        assert_eq!(instance.queue_len(), 0);
        assert_eq!(instance.running_len(), 0);
    }

    #[test]
    fn request_lifecycle_produces_a_record() {
        let mut instance = EngineInstance::new(&config(EngineKind::prefillonly_default()), 0);
        let now = SimTime::ZERO;
        instance.enqueue(request(1, 7, 4_000, now), now);
        assert_eq!(instance.queue_len(), 1);
        let started = instance.try_start(now).expect("idle instance must start");
        assert_eq!(started.request_id, 1);
        assert!(started.completion > now);
        assert_eq!(instance.running_len(), 1);
        let record = instance
            .complete(1, started.completion)
            .expect("colocated completion must yield a record");
        assert_eq!(record.user_id, 7);
        assert_eq!(record.total_tokens, 4_000);
        assert_eq!(record.cached_tokens, 0);
        assert!(record.latency() > SimDuration::ZERO);
        assert_eq!(instance.stats().completed, 1);
    }

    #[test]
    fn busy_instance_does_not_admit() {
        let mut instance = EngineInstance::new(&config(EngineKind::PagedAttention), 0);
        let now = SimTime::ZERO;
        instance.enqueue(request(1, 1, 4_000, now), now);
        instance.enqueue(request(2, 2, 4_000, now), now);
        let first = instance.try_start(now).unwrap();
        assert!(instance.try_start(now).is_none(), "single stage is busy");
        // After the first completes, the second can start.
        let later = first.completion;
        instance.complete(first.request_id, later);
        assert!(instance.try_start(later).is_some());
    }

    #[test]
    fn second_request_of_same_user_hits_the_cache() {
        let mut instance = EngineInstance::new(&config(EngineKind::prefillonly_default()), 0);
        let shared: Vec<u32> = (0..8_000).collect();
        let mut req_a = shared.clone();
        req_a.extend(100_000..100_150u32);
        let mut req_b = shared.clone();
        req_b.extend(200_000..200_150u32);

        let now = SimTime::ZERO;
        let a = PrefillRequest {
            id: 1,
            user_id: 1,
            tokens: Arc::new(req_a),
            decode_tokens: 0,
            allowed_outputs: vec![],
            arrival: now,
            routing: RoutingReason::Direct,
        };
        instance.enqueue(a, now);
        let started_a = instance.try_start(now).unwrap();
        let record_a = instance.complete(1, started_a.completion).unwrap();
        assert_eq!(record_a.cached_tokens, 0);

        let later = started_a.completion;
        let b = PrefillRequest {
            id: 2,
            user_id: 1,
            tokens: Arc::new(req_b),
            decode_tokens: 0,
            allowed_outputs: vec![],
            arrival: later,
            routing: RoutingReason::Direct,
        };
        instance.enqueue(b, later);
        let started_b = instance.try_start(later).unwrap();
        let record_b = instance.complete(2, started_b.completion).unwrap();
        assert!(
            record_b.cached_tokens >= 7_000,
            "expected a large prefix hit, got {}",
            record_b.cached_tokens
        );
        // The cache hit must also make the second request faster.
        assert!(record_b.execution() < record_a.execution());
    }

    #[test]
    fn evicted_profile_reloads_from_cpu_instead_of_recomputing() {
        // A small pool (squeezed via memory utilization) with a CPU tier behind it:
        // when another user's traffic evicts a profile, the profile's next request
        // rehydrates over the host link — faster than recomputing, slower than a
        // GPU-resident hit.
        let mut config = config(EngineKind::prefillonly_default());
        config.memory_utilization = 0.70;
        let config = config.with_cpu_offload(64 << 30);
        let mut instance = EngineInstance::new(&config, 0);
        let pool_tokens = instance.kv_pool_tokens();
        assert!(
            pool_tokens < 16_000,
            "test premise: pool ({pool_tokens} tokens) below the two-user working set"
        );
        assert!(instance.cpu_hit_discount() > 0.5, "PCIe reload ≫ recompute");

        let profile_a: Vec<u32> = (0..8_000).collect();
        let profile_b: Vec<u32> = (1_000_000..1_008_000).collect();
        let mut now = SimTime::ZERO;
        let mut run = |instance: &mut EngineInstance, id: u64, user: u64, tokens: &[u32]| {
            let request = PrefillRequest {
                id,
                user_id: user,
                tokens: Arc::new(tokens.to_vec()),
                decode_tokens: 0,
                allowed_outputs: vec![],
                arrival: now,
                routing: RoutingReason::Direct,
            };
            instance.enqueue(request, now);
            let started = instance.try_start(now).expect("idle instance admits");
            let record = instance.complete(id, started.completion).unwrap();
            now = started.completion;
            record
        };

        let cold = run(&mut instance, 1, 1, &profile_a);
        assert_eq!(cold.reloaded_tokens, 0);
        // B's profile evicts A's from the squeezed pool, spilling it to CPU.
        run(&mut instance, 2, 2, &profile_b);
        assert!(instance.offload_stats().offloaded_blocks > 0, "A spilled");

        let reloaded = run(&mut instance, 3, 1, &profile_a);
        assert!(
            reloaded.reloaded_tokens >= pool_tokens,
            "A's profile must come back from the CPU tier up to the pool's capacity, \
             got {} of {pool_tokens} tokens",
            reloaded.reloaded_tokens
        );
        assert_eq!(reloaded.cached_tokens, 0, "the GPU copy was evicted");
        assert!(
            reloaded.execution() < cold.execution(),
            "reloading must beat recomputing ({} vs {})",
            reloaded.execution(),
            cold.execution()
        );

        // A GPU-warm repeat (nothing evicted in between) is faster still.
        let warm = run(&mut instance, 4, 1, &profile_a);
        assert!(warm.cached_tokens >= pool_tokens);
        assert!(warm.execution() < reloaded.execution());
    }

    #[test]
    fn oversized_requests_are_rejected_not_executed() {
        let mut instance = EngineInstance::new(&config(EngineKind::PagedAttention), 0);
        let mil = instance.max_input_length();
        let now = SimTime::ZERO;
        instance.enqueue(request(1, 1, mil + 5_000, now), now);
        assert!(instance.try_start(now).is_none());
        assert_eq!(instance.stats().rejected, 1);
        assert_eq!(instance.running_len(), 0);
    }

    #[test]
    fn pipeline_parallel_instance_overlaps_requests() {
        let mut instance = EngineInstance::new(&config(EngineKind::PipelineParallel), 0);
        let now = SimTime::ZERO;
        instance.enqueue(request(1, 1, 8_000, now), now);
        instance.enqueue(request(2, 2, 8_000, now), now);
        let first = instance.try_start(now).unwrap();
        // The second request can be admitted as soon as stage 0 frees up, which is
        // before the first request fully completes.
        let admit_at = instance.next_admission_time();
        assert!(admit_at < first.completion);
        let second = instance.try_start(admit_at).unwrap();
        assert!(second.completion > first.completion);
        instance.complete(first.request_id, first.completion);
        instance.complete(second.request_id, second.completion);
        assert_eq!(instance.stats().completed, 2);
    }

    #[test]
    fn prefill_role_emits_handoff_and_decode_role_admits_it() {
        let cfg = config(EngineKind::prefillonly_default())
            .with_roles(vec![InstanceRole::Prefill, InstanceRole::Decode]);
        let mut prefill = EngineInstance::new(&cfg, 0);
        let mut decode = EngineInstance::new(&cfg, 1);
        assert_eq!(prefill.role(), InstanceRole::Prefill);
        assert_eq!(decode.role(), InstanceRole::Decode);

        let now = SimTime::ZERO;
        let mut req = request(1, 7, 4_000, now);
        req.decode_tokens = 64;
        prefill.enqueue(req, now);
        let started = prefill.try_start(now).expect("idle prefill slot admits");
        // The prefill side stops at first token: no decode time is charged there.
        assert_eq!(prefill.running_len(), 1);
        assert!(
            prefill.complete(1, started.completion).is_none(),
            "prefill side emits a handoff, not a record"
        );
        assert_eq!(prefill.stats().completed, 0);

        let mut handoffs = prefill.take_handoffs();
        assert_eq!(handoffs.len(), 1);
        assert!(prefill.take_handoffs().is_empty(), "outbox drains once");
        let handoff = handoffs.pop().unwrap();
        assert_eq!(handoff.prefill_slot, 0);
        assert_eq!(handoff.first_token, started.completion);
        assert_eq!(handoff.bytes, handoff.blocks * prefill.kv_block_bytes());
        assert!(
            handoff.ready_at > handoff.first_token,
            "the fabric transfer must take time"
        );

        let boundary = handoff.ready_at;
        match decode.admit_handoff(handoff, boundary) {
            HandoffAdmission::Admitted(admitted) => {
                assert_eq!(admitted.request_id, 1);
                assert!(admitted.completion > boundary, "decode steps take time");
                let record = decode
                    .complete(admitted.request_id, admitted.completion)
                    .expect("decode side produces the record");
                assert_eq!(record.instance, 0, "prefill slot owns the prefill pass");
                assert_eq!(record.decode_instance, Some(1));
                assert!(record.handoff_bytes > 0);
                assert_eq!(record.decode_tokens, 64);
                assert_eq!(record.first_token, started.completion);
                assert!(record.completed > record.first_token);
            }
            other => panic!("expected admission, got {other:?}"),
        }
        assert_eq!(decode.stats().completed, 1);
    }

    #[test]
    fn prefillonly_schedules_cache_friendly_request_first() {
        // Two requests wait: a long one whose prefix is already cached and a short cold
        // one.  PrefillOnly (SRJF + calibration) must pick the cached one; the
        // PagedAttention baseline (FCFS) picks the one that arrived first.
        let shared: Vec<u32> = (0..12_000).collect();
        let build = |kind: EngineKind| -> (EngineInstance, SimTime) {
            let mut instance = EngineInstance::new(&config(kind), 0);
            let now = SimTime::ZERO;
            // Warm the cache with the shared prefix.
            let warm = PrefillRequest {
                id: 100,
                user_id: 1,
                tokens: Arc::new(shared.clone()),
                decode_tokens: 0,
                allowed_outputs: vec![],
                arrival: now,
                routing: RoutingReason::Direct,
            };
            instance.enqueue(warm, now);
            let s = instance.try_start(now).unwrap();
            instance.complete(100, s.completion);
            (instance, s.completion)
        };

        let cold_tokens: Arc<Vec<u32>> = Arc::new((700_000..706_000u32).collect());
        let (mut po, t0) = build(EngineKind::prefillonly_default());
        // Cold short request arrives first, warm long request second.
        let cold = PrefillRequest {
            id: 1,
            user_id: 2,
            tokens: Arc::clone(&cold_tokens),
            decode_tokens: 0,
            allowed_outputs: vec![],
            arrival: t0,
            routing: RoutingReason::Direct,
        };
        let mut warm_tokens = shared.clone();
        warm_tokens.extend(500_000..500_150u32);
        let warm = PrefillRequest {
            id: 2,
            user_id: 1,
            tokens: Arc::new(warm_tokens.clone()),
            decode_tokens: 0,
            allowed_outputs: vec![],
            arrival: t0,
            routing: RoutingReason::Direct,
        };
        po.enqueue(cold.clone(), t0);
        po.enqueue(warm.clone(), t0);
        let first = po.try_start(t0).unwrap();
        assert_eq!(first.request_id, 2, "calibrated SRJF prefers the cache hit");

        let (mut paged, t1) = build(EngineKind::PagedAttention);
        let cold = PrefillRequest {
            id: 1,
            user_id: 2,
            tokens: Arc::clone(&cold_tokens),
            decode_tokens: 0,
            allowed_outputs: vec![],
            arrival: t1,
            routing: RoutingReason::Direct,
        };
        let warm = PrefillRequest {
            id: 2,
            user_id: 1,
            tokens: Arc::new(warm_tokens),
            decode_tokens: 0,
            allowed_outputs: vec![],
            arrival: t1,
            routing: RoutingReason::Direct,
        };
        paged.enqueue(cold, t1);
        paged.enqueue(warm, t1);
        let first = paged.try_start(t1).unwrap();
        assert_eq!(first.request_id, 1, "FCFS runs the earlier-arrived request");
    }
}
