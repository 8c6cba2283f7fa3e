//! The KV-cache manager: prefix caching, LRU eviction, suffix discarding and the
//! hierarchical (GPU → CPU) tier.
//!
//! Eviction is driven by an ordered LRU index (a `BTreeSet` over `(last_used, hash)`)
//! that is kept in sync with the prefix-cache map on every touch / commit / evict, so
//! evicting a batch of `k` victims costs O(k log n) instead of the full O(n log n)
//! scan + sort of the naive implementation.  The manager also exposes a monotonically
//! increasing [`KvCacheManager::generation`] that changes exactly when the *contents*
//! of the prefix cache change (a block is inserted or removed); schedulers use it to
//! skip re-probing hash chains when nothing changed between scheduling steps.
//!
//! # Hierarchical tiers (§9 extension)
//!
//! A manager built with [`KvCacheManager::with_offload`] owns a [`CpuKvPool`] second
//! tier.  GPU eviction victims *spill* into it instead of being discarded, and
//! allocation gains a reload phase: blocks that miss the GPU prefix cache but hit the
//! CPU tier are *rehydrated* — they occupy freshly allocated GPU blocks without being
//! recomputed, and the caller is told how many bytes must cross the host link
//! ([`RequestKv::reloaded_bytes`]) so the engine can charge the PCIe transfer.  With
//! no CPU pool (or a zero-byte one) every code path below is bit-identical to the
//! discard-on-evict manager.
//!
//! A third, cluster-shared [`NetKvPool`] tier can be installed below the CPU tier
//! ([`KvCacheManager::install_net_pool`]): CPU eviction victims cascade into it when
//! they pass the single-use spill filter ([`NET_SPILL_MIN_USES`]), and allocation can
//! rehydrate network-resident continuations of the GPU + CPU prefix over the network
//! link.  Whether a reloadable segment is actually reloaded is a *per-request*
//! decision ([`KvCacheManager::allocate_from_hashes_with_policy`]): the caller
//! compares the modelled transfer time at the observed hit depth against the modelled
//! recompute saving, per tier.  See `ARCHITECTURE.md` for the full three-tier cost
//! model.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::block::{BlockId, BlockPool};
use crate::hash::{hash_token_blocks, TokenBlockHash};
use crate::netpool::{NetKvPool, NetPoolView};
use crate::offload::{CpuKvPool, OffloadStats};

/// Minimum reuse evidence a CPU-tier eviction victim needs to be admitted into the
/// network tier (the single-use spill filter): a block spilled once and never
/// referenced again is a single-use suffix, and sharing it cluster-wide would only
/// displace blocks other instances can actually reuse.
pub const NET_SPILL_MIN_USES: u32 = 2;

/// Accounting of one [`KvCacheManager::drain_to_net`] pass (a leaver publishing its
/// reusable KV into the cluster tier before retiring).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DrainSpill {
    /// GPU-resident blocks published into the network tier.
    pub gpu_blocks: u64,
    /// CPU-resident blocks that passed the single-use spill filter and were
    /// published.
    pub cpu_blocks: u64,
    /// CPU-resident blocks the single-use spill filter kept out.
    pub filtered_blocks: u64,
    /// Network-tier residents displaced to make room for the published blocks
    /// (only ever non-zero for a private pool: a view of the shared tier defers
    /// eviction to the barrier merge).
    pub evicted_blocks: u64,
}

/// How a request's KV blocks must be resident during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetentionPolicy {
    /// Every block of the request must be resident for the whole forward pass, as in
    /// vLLM's PagedAttention and chunked prefilling (the KV of every layer is needed
    /// for subsequent decoding / later chunks).
    FullResidency,
    /// Only as many *prefix* blocks as fit are retained; the KV of the remaining suffix
    /// tokens is discarded after each layer (PrefillOnly's suffix KV-cache discarding,
    /// §5.1).  Allocation never fails for lack of KV space.
    PrefixBestEffort,
}

/// Error returned when a request's KV cannot be made resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvError {
    /// Blocks the request needed.
    pub needed_blocks: u64,
    /// Blocks that could be made available (free + evictable).
    pub available_blocks: u64,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KV cache exhausted: request needs {} blocks, only {} available",
            self.needed_blocks, self.available_blocks
        )
    }
}

impl std::error::Error for KvError {}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of allocation attempts.
    pub allocations: u64,
    /// Tokens served from the prefix cache across all allocations.
    pub hit_tokens: u64,
    /// Tokens that had to be computed (missed the cache).
    pub miss_tokens: u64,
    /// Requests with at least one cache-hit block.
    pub requests_with_hits: u64,
    /// Cached blocks evicted to make room.
    pub evicted_blocks: u64,
    /// Blocks inserted into the prefix cache at commit time.
    pub committed_blocks: u64,
    /// Allocations rejected because the pool was too small (full-residency engines).
    pub failed_allocations: u64,
}

impl CacheStats {
    /// Fraction of tokens served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_tokens + self.miss_tokens;
        if total == 0 {
            0.0
        } else {
            self.hit_tokens as f64 / total as f64
        }
    }
}

/// Per-tier prefix-hit counts of one hash chain (see
/// [`KvCacheManager::lookup_tier_hits_from_hashes`]).
///
/// The tiers chain: the CPU walk starts where the GPU walk stopped, and the network
/// walk starts where the CPU walk stopped — a block behind a miss in every tier above
/// it is unreachable without recomputation, exactly as at allocation time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierHits {
    /// Leading blocks resident in the GPU prefix cache.
    pub gpu_blocks: usize,
    /// Blocks *after* the GPU-hit prefix that are resident in the CPU tier (the
    /// reloadable continuation).
    pub cpu_blocks: usize,
    /// Blocks *after* the GPU- and CPU-hit prefix that are resident in the
    /// cluster-shared network tier (the remotely reloadable continuation).
    pub net_blocks: usize,
}

/// Which reload tier a [`ReloadQuote`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReloadTier {
    /// The CPU tier, reached over the host (PCIe) link.
    Cpu,
    /// The cluster-shared network tier, reached over the network link.
    Net,
}

/// One reload opportunity priced for the per-request reload-vs-recompute decision.
///
/// The manager builds a quote at the *observed* hit depth — after capping the
/// reloadable continuation by what can actually be made resident — and asks the
/// caller's policy whether the transfer is worth it.  Accepting means the segment is
/// rehydrated over the tier's link; declining means its tokens are recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadQuote {
    /// Which tier the blocks would come from.
    pub tier: ReloadTier,
    /// Blocks in the reloadable segment.
    pub blocks: u64,
    /// Bytes that would cross the tier's link.
    pub bytes: u64,
    /// Tokens already resident ahead of this segment (the GPU-cached prefix plus any
    /// previously accepted reload segments) — the attention context the recompute
    /// alternative would run against.
    pub resident_prefix_tokens: u64,
    /// Total tokens of the request.
    pub total_tokens: u64,
}

/// The per-request KV allocation produced by [`KvCacheManager::allocate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestKv {
    reused: Vec<(TokenBlockHash, BlockId)>,
    /// Blocks rehydrated from the CPU tier: resident like `new_full`, but their
    /// tokens need a host-link transfer instead of recomputation.
    reloaded: Vec<(TokenBlockHash, BlockId)>,
    /// Blocks rehydrated from the cluster-shared network tier (a network-link
    /// transfer instead of recomputation).
    net_reloaded: Vec<(TokenBlockHash, BlockId)>,
    new_full: Vec<(TokenBlockHash, BlockId)>,
    partial: Option<BlockId>,
    cached_tokens: u64,
    reloaded_bytes: u64,
    net_reloaded_bytes: u64,
    /// Net-reloaded blocks that were only visible thanks to mid-window propagation
    /// (see [`crate::NetKvPool::reload_prefix_accounted`]).
    net_propagated_blocks: u64,
    total_tokens: u64,
    block_size: usize,
}

impl RequestKv {
    /// Tokens whose KV was found in the GPU prefix cache.
    pub fn cached_tokens(&self) -> u64 {
        self.cached_tokens
    }

    /// Tokens whose KV is being rehydrated from the CPU tier (no recomputation, but a
    /// host-link transfer of [`Self::reloaded_bytes`] bytes).
    pub fn reloaded_tokens(&self) -> u64 {
        (self.reloaded.len() * self.block_size) as u64
    }

    /// Bytes that must cross the host link to rehydrate the reloaded blocks.
    pub fn reloaded_bytes(&self) -> u64 {
        self.reloaded_bytes
    }

    /// Tokens whose KV is being rehydrated from the network tier (no recomputation,
    /// but a network-link transfer of [`Self::net_reloaded_bytes`] bytes).
    pub fn net_reloaded_tokens(&self) -> u64 {
        (self.net_reloaded.len() * self.block_size) as u64
    }

    /// Bytes that must cross the network link to rehydrate the net-reloaded blocks.
    pub fn net_reloaded_bytes(&self) -> u64 {
        self.net_reloaded_bytes
    }

    /// Tokens of the net-reloaded segment that were only reloadable because another
    /// instance's spill propagated *within* the current replay window (zero unless
    /// the cluster models a finite `net_propagation_ms`).
    pub fn net_propagated_tokens(&self) -> u64 {
        self.net_propagated_blocks * self.block_size as u64
    }

    /// Total tokens of the request.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Tokens that must actually be forwarded through the model (neither GPU-cached
    /// nor reloaded from the CPU or network tier).
    pub fn uncached_tokens(&self) -> u64 {
        self.total_tokens - self.cached_tokens - self.reloaded_tokens() - self.net_reloaded_tokens()
    }

    /// Blocks resident in the pool on behalf of this request during execution.
    pub fn resident_blocks(&self) -> u64 {
        (self.reused.len()
            + self.reloaded.len()
            + self.net_reloaded.len()
            + self.new_full.len()
            + usize::from(self.partial.is_some())) as u64
    }

    /// Tokens covered by resident blocks (i.e. tokens whose KV is kept; the rest is the
    /// discarded suffix under [`RetentionPolicy::PrefixBestEffort`]).
    pub fn resident_tokens(&self) -> u64 {
        let full = (self.reused.len()
            + self.reloaded.len()
            + self.net_reloaded.len()
            + self.new_full.len()) as u64
            * self.block_size as u64;
        if self.partial.is_some() {
            self.total_tokens.min(full + self.block_size as u64)
        } else {
            full.min(self.total_tokens)
        }
    }

    /// Tokens whose KV is *not* retained (the discarded suffix).
    pub fn discarded_tokens(&self) -> u64 {
        self.total_tokens - self.resident_tokens()
    }
}

#[derive(Debug, Clone, Copy)]
struct CachedEntry {
    block: BlockId,
    last_used: SimTime,
}

/// Paged KV-cache manager with prefix caching.
///
/// ```
/// use kvcache::{KvCacheManager, RetentionPolicy};
/// use simcore::SimTime;
///
/// let mut kv = KvCacheManager::new(64, 16);
/// let prompt: Vec<u32> = (0..100).collect();
/// let alloc = kv
///     .allocate(&prompt, SimTime::ZERO, RetentionPolicy::FullResidency)
///     .unwrap();
/// assert_eq!(alloc.cached_tokens(), 0);
/// kv.commit(alloc, SimTime::ZERO);
///
/// // A repeat of the same prompt hits every full block (the 4-token tail of the
/// // 100-token prompt never fills a 16-token block, so it is always recomputed).
/// assert_eq!(kv.lookup_cached_tokens(&prompt), 96);
/// ```
#[derive(Debug, Clone)]
pub struct KvCacheManager {
    block_size: usize,
    pool: BlockPool,
    cached: HashMap<TokenBlockHash, CachedEntry>,
    /// Eviction order over the *unreferenced* cached blocks.
    ///
    /// Invariant: `(entry.last_used, hash)` is in this set iff `hash` is in `cached`
    /// and the entry's block has a reference count of zero.  The `(SimTime,
    /// TokenBlockHash)` ordering reproduces exactly the victim order of the original
    /// scan + sort implementation (oldest first, hash as the tie-break).
    lru: BTreeSet<(SimTime, TokenBlockHash)>,
    /// Bumped whenever a block is inserted into the prefix cache.
    commit_generation: u64,
    /// Bumped whenever a block is removed from the prefix cache.
    evict_generation: u64,
    /// The CPU tier eviction victims spill into (`None` = discard-on-evict).
    cpu: Option<CpuKvPool>,
    /// The cluster-shared network tier CPU eviction victims cascade into (`None` =
    /// two-tier behaviour).  Installed / harvested by the cluster around each
    /// replay window or epoch as an append-only [`NetPoolView`] — see
    /// [`NetKvPool`]'s module docs for the view and central-eviction semantics —
    /// or installed once as a private pool.
    net: Option<NetPoolView>,
    /// Network-tier and reload-policy accounting.  Kept on the manager (not the
    /// pool) because the net pool is swapped in and out every replay window while
    /// statistics must stay cumulative; only the `net_*` and `declined_*` fields are
    /// used.
    net_stats: OffloadStats,
    /// Bumped on every network-tier install: two installed views can
    /// share a content generation while holding different entries (the cluster
    /// filters by publish time), so probe memoisation must also key on *which*
    /// view is installed.
    net_swap_generation: u64,
    stats: CacheStats,
}

impl KvCacheManager {
    /// Creates a manager over `capacity_blocks` blocks of `block_size` tokens each,
    /// discarding eviction victims (the published PrefillOnly behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(capacity_blocks: u64, block_size: usize) -> KvCacheManager {
        assert!(block_size > 0, "block size must be positive");
        KvCacheManager {
            block_size,
            pool: BlockPool::new(capacity_blocks),
            cached: HashMap::new(),
            lru: BTreeSet::new(),
            commit_generation: 0,
            evict_generation: 0,
            cpu: None,
            net: None,
            net_stats: OffloadStats::default(),
            net_swap_generation: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a hierarchical manager: eviction victims spill into a CPU tier of
    /// `cpu_capacity_bytes` holding blocks of `block_bytes` each, and allocations
    /// rehydrate CPU-resident continuations of the GPU-cached prefix.
    ///
    /// A zero `cpu_capacity_bytes` yields a plain [`Self::new`] manager, so callers
    /// can thread a configuration knob straight through.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero, or if `block_bytes` is zero while
    /// `cpu_capacity_bytes` is not.
    pub fn with_offload(
        capacity_blocks: u64,
        block_size: usize,
        cpu_capacity_bytes: u64,
        block_bytes: u64,
    ) -> KvCacheManager {
        let mut manager = KvCacheManager::new(capacity_blocks, block_size);
        if cpu_capacity_bytes > 0 {
            manager.cpu = Some(CpuKvPool::new(cpu_capacity_bytes, block_bytes));
        }
        manager
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total pool capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.pool.total_blocks()
    }

    /// Blocks neither referenced nor cached.
    pub fn free_blocks(&self) -> u64 {
        self.pool.free_blocks()
    }

    /// Blocks currently held by the prefix cache (unreferenced, evictable).
    pub fn cached_blocks(&self) -> u64 {
        self.cached.len() as u64
    }

    /// Cumulative statistics of the GPU tier.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether eviction victims spill into a CPU tier.
    pub fn offload_enabled(&self) -> bool {
        self.cpu.is_some()
    }

    /// Cumulative statistics of the offload tiers: the CPU tier's own counters plus
    /// the manager-tracked network-tier and reload-policy counters (all zero when
    /// offload is disabled).
    pub fn offload_stats(&self) -> OffloadStats {
        let mut stats = self.cpu.as_ref().map(CpuKvPool::stats).unwrap_or_default();
        stats.merge(&self.net_stats);
        stats
    }

    /// Blocks currently resident in the CPU tier.
    pub fn cpu_resident_blocks(&self) -> u64 {
        self.cpu.as_ref().map_or(0, CpuKvPool::resident_blocks)
    }

    /// Installs a network-tier pool of this manager's own (replacing any previous
    /// tier): one no barrier merges, so it evicts in place — a standalone
    /// instance's tier, or a test fixture.
    pub fn install_net_pool(&mut self, pool: NetKvPool) {
        self.install_net_view(NetPoolView::private(pool));
    }

    /// Installs an append-only view of the cluster-shared network tier.  Every
    /// install bumps the swap generation: two views can share a content
    /// generation yet expose different entries, so a probe memoised under one
    /// view is never reused under the next.
    pub fn install_net_view(&mut self, view: NetPoolView) {
        self.net = Some(view);
        self.net_swap_generation += 1;
    }

    /// Harvests the installed view of the shared tier for the barrier merge; the
    /// manager reverts to two-tier behaviour until the next install.  A private
    /// pool ([`Self::install_net_pool`]) is never merged: it stays installed and
    /// this returns `None`.  Deliberately does *not* bump the swap generation:
    /// nothing probes the manager between a boundary's take and the next install,
    /// which bumps it.
    pub fn take_net_view(&mut self) -> Option<NetPoolView> {
        self.net.take_if(|view| !view.is_private())
    }

    /// The currently installed network-tier snapshot, if any.
    pub fn net_pool(&self) -> Option<&NetPoolView> {
        self.net.as_ref()
    }

    /// Whether a network tier is currently installed.
    pub fn net_enabled(&self) -> bool {
        self.net.is_some()
    }

    /// Blocks currently resident in the network-tier snapshot.
    pub fn net_resident_blocks(&self) -> u64 {
        self.net.as_ref().map_or(0, NetPoolView::resident_blocks)
    }

    /// Content generation of the network tier (0 when no tier is installed),
    /// mirroring [`Self::cpu_generation`]: probe memoisation of the three-tier lookup
    /// is valid only while all three counters are unchanged.
    pub fn net_generation(&self) -> u64 {
        self.net.as_ref().map_or(0, NetPoolView::generation)
    }

    /// Counter that changes on every network-tier install (not on a take).  Two
    /// probes are comparable only while *both* [`Self::net_generation`] and this
    /// counter are unchanged: the cluster may install snapshots of the same content
    /// generation whose visible entry sets differ (publish-time filtering).
    pub fn net_swap_generation(&self) -> u64 {
        self.net_swap_generation
    }

    /// Content generation of the CPU tier (0 when offload is disabled): changes
    /// exactly when a block enters or leaves CPU memory, mirroring
    /// [`Self::generation`] for the GPU tier.  Probe memoisation is valid for the
    /// hierarchical lookup only while *both* counters are unchanged.
    pub fn cpu_generation(&self) -> u64 {
        self.cpu.as_ref().map_or(0, CpuKvPool::generation)
    }

    /// Monotonically increasing counter that changes exactly when the prefix-cache
    /// *contents* change: it is bumped once per block inserted at commit time and once
    /// per block evicted or cleared.
    ///
    /// Two calls returning the same value guarantee that every
    /// [`Self::lookup_cached_tokens_from_hashes`] answer in between is still valid, so
    /// schedulers running continuous JCT calibration can reuse their previous probe
    /// results unchanged.
    pub fn generation(&self) -> u64 {
        self.commit_generation + self.evict_generation
    }

    /// The eviction half of [`Self::generation`]: bumped only when a block *leaves* the
    /// prefix cache.
    ///
    /// While this value is unchanged, cached prefixes can only grow, so a hash-chain
    /// walk may resume from its previously hit depth instead of restarting from block
    /// zero.
    pub fn evict_generation(&self) -> u64 {
        self.evict_generation
    }

    /// Returns how many leading tokens of `tokens` would hit the prefix cache right
    /// now, without allocating anything.  This is the `n_cached` input of the
    /// continuous JCT calibration (Algorithm 1, line 7).
    pub fn lookup_cached_tokens(&self, tokens: &[u32]) -> u64 {
        let hashes = hash_token_blocks(tokens, self.block_size);
        self.lookup_cached_tokens_from_hashes(&hashes)
    }

    /// Same as [`Self::lookup_cached_tokens`], but over a pre-computed block-hash
    /// chain.  The engine hashes each request once at arrival and re-probes cheaply at
    /// every scheduling step.
    pub fn lookup_cached_tokens_from_hashes(&self, hashes: &[TokenBlockHash]) -> u64 {
        self.lookup_cached_blocks_from_hashes(hashes) as u64 * self.block_size as u64
    }

    /// Number of leading blocks of `hashes` that currently hit the prefix cache.
    pub fn lookup_cached_blocks_from_hashes(&self, hashes: &[TokenBlockHash]) -> usize {
        self.walk_hash_chain(hashes, 0)
    }

    /// Per-tier prefix hits of a hash chain: the GPU-cached prefix, how far the CPU
    /// tier continues it, then how far the network tier continues *that*.  Each walk
    /// starts where the tier above stopped — blocks behind a miss in every upper tier
    /// are unreachable without recomputation, exactly as at allocation time.
    pub fn lookup_tier_hits_from_hashes(&self, hashes: &[TokenBlockHash]) -> TierHits {
        let gpu_blocks = self.walk_hash_chain(hashes, 0);
        let cpu_blocks = self.cpu_prefix_blocks_after(hashes, gpu_blocks);
        TierHits {
            gpu_blocks,
            cpu_blocks,
            net_blocks: self.net_prefix_blocks_after(hashes, gpu_blocks + cpu_blocks),
        }
    }

    /// How many blocks of `hashes` starting at `gpu_blocks` are resident in the CPU
    /// tier (the reloadable continuation of a known GPU hit depth).
    pub fn cpu_prefix_blocks_after(&self, hashes: &[TokenBlockHash], gpu_blocks: usize) -> usize {
        match self.cpu.as_ref() {
            Some(pool) => pool.lookup_prefix_blocks(&hashes[gpu_blocks..]) as usize,
            None => 0,
        }
    }

    /// How many blocks of `hashes` starting at `start` (the GPU + CPU hit depth) are
    /// resident in the network tier (the remotely reloadable continuation).
    pub fn net_prefix_blocks_after(&self, hashes: &[TokenBlockHash], start: usize) -> usize {
        match self.net.as_ref() {
            Some(pool) => pool.lookup_prefix_blocks(&hashes[start..]) as usize,
            None => 0,
        }
    }

    /// Resumes a hash-chain walk from a previously measured hit depth.
    ///
    /// Sound only while [`Self::evict_generation`] is unchanged since `prev_hit_blocks`
    /// was measured: with no evictions in between, the previously hit prefix is still
    /// resident, so the walk can skip straight to block `prev_hit_blocks` instead of
    /// re-verifying the prefix.  This is what makes continuous JCT calibration
    /// (Algorithm 1) cheap at high queue depth — each scheduling step pays O(new hits)
    /// per waiting request instead of O(chain length).
    pub fn resume_cached_blocks_from_hashes(
        &self,
        hashes: &[TokenBlockHash],
        prev_hit_blocks: usize,
    ) -> usize {
        debug_assert!(prev_hit_blocks <= hashes.len());
        debug_assert!(
            hashes
                .iter()
                .take(prev_hit_blocks)
                .all(|h| self.cached.contains_key(h)),
            "resume depth is stale: an eviction invalidated the previous walk"
        );
        self.walk_hash_chain(hashes, prev_hit_blocks)
    }

    fn walk_hash_chain(&self, hashes: &[TokenBlockHash], start: usize) -> usize {
        let mut hits = start;
        for hash in &hashes[start..] {
            if self.cached.contains_key(hash) {
                hits += 1;
            } else {
                break;
            }
        }
        hits
    }

    /// Allocates KV residency for a request.
    ///
    /// * Under [`RetentionPolicy::FullResidency`] every block must fit (after evicting
    ///   unreferenced cached blocks LRU-first); otherwise an error is returned and
    ///   nothing is held.
    /// * Under [`RetentionPolicy::PrefixBestEffort`] as many leading blocks as fit are
    ///   made resident and the rest of the request is marked as discarded suffix.
    pub fn allocate(
        &mut self,
        tokens: &[u32],
        now: SimTime,
        policy: RetentionPolicy,
    ) -> Result<RequestKv, KvError> {
        let hashes = hash_token_blocks(tokens, self.block_size);
        self.allocate_from_hashes(&hashes, tokens.len() as u64, now, policy)
    }

    /// Same as [`Self::allocate`], but over a pre-computed block-hash chain.
    ///
    /// Every reloadable segment is accepted unconditionally (the two-tier engines'
    /// behaviour, where the host link is always far cheaper than recomputation); use
    /// [`Self::allocate_from_hashes_with_policy`] for a per-request
    /// reload-vs-recompute decision.
    ///
    /// # Panics
    ///
    /// Panics if `hashes` is inconsistent with `total_tokens` (more full blocks than
    /// the token count allows).
    pub fn allocate_from_hashes(
        &mut self,
        hashes: &[TokenBlockHash],
        total_tokens: u64,
        now: SimTime,
        policy: RetentionPolicy,
    ) -> Result<RequestKv, KvError> {
        self.allocate_from_hashes_with_policy(hashes, total_tokens, now, policy, &mut |_| true)
    }

    /// Same as [`Self::allocate_from_hashes`], but with a per-request
    /// reload-vs-recompute decision: `decide` is called once per reloadable segment
    /// (CPU first, then network) with a [`ReloadQuote`] priced at the *observed* hit
    /// depth; returning `false` recomputes the segment instead of reloading it.
    ///
    /// The network segment is only quoted when the entire CPU-hit segment reloads
    /// (or no CPU hits exist): declining or truncating the CPU segment leaves a gap
    /// of non-resident KV in front of the network continuation, which would make its
    /// blocks unusable.
    ///
    /// # Panics
    ///
    /// Panics if `hashes` is inconsistent with `total_tokens` (more full blocks than
    /// the token count allows).
    pub fn allocate_from_hashes_with_policy(
        &mut self,
        hashes: &[TokenBlockHash],
        total_tokens: u64,
        now: SimTime,
        policy: RetentionPolicy,
        decide: &mut dyn FnMut(&ReloadQuote) -> bool,
    ) -> Result<RequestKv, KvError> {
        assert_eq!(
            hashes.len() as u64,
            total_tokens / self.block_size as u64,
            "hash chain must cover exactly the full blocks of the request"
        );
        self.stats.allocations += 1;
        let has_partial = !total_tokens.is_multiple_of(self.block_size as u64);

        // Phase 1: reuse cached prefix blocks.  Touching a block both refreshes its
        // recency and pins it: an unreferenced block leaves the LRU index here and
        // re-enters it (at its new timestamp) when the request commits or is released.
        let mut reused = Vec::new();
        for hash in hashes {
            match self.cached.get_mut(hash) {
                Some(entry) => {
                    if self.pool.ref_count(entry.block) == Some(0) {
                        self.lru.remove(&(entry.last_used, *hash));
                    }
                    entry.last_used = now;
                    self.pool.add_ref(entry.block);
                    reused.push((*hash, entry.block));
                }
                None => break,
            }
        }
        let cached_tokens = (reused.len() * self.block_size) as u64;

        // Phase 2: figure out how many new blocks we need.
        let new_full_needed = hashes.len() - reused.len();
        let partial_needed = u64::from(has_partial);
        let needed = new_full_needed as u64 + partial_needed;

        if policy == RetentionPolicy::FullResidency {
            let available = self.pool.free_blocks() + self.evictable_blocks();
            if needed > available {
                // Roll back the references taken in phase 1 (the refreshed timestamps
                // stay, so the touched prefix re-enters the LRU index as most recent).
                for (hash, block) in &reused {
                    if self.pool.dec_ref(*block) == 0 {
                        self.lru.insert((now, *hash));
                    }
                }
                self.stats.failed_allocations += 1;
                return Err(KvError {
                    needed_blocks: needed,
                    available_blocks: available,
                });
            }
        }

        // Phase 2.5: plan the tier reloads.  The blocks that follow the GPU-cached
        // prefix are looked up in the CPU pool and the blocks after *those* in the
        // network pool; each segment is capped by what can actually be made resident
        // (free + evictable, so the plan never exceeds what phase 3 can allocate) and
        // then submitted to the caller's reload-vs-recompute decision.  Accepted
        // segments have their recency refreshed and their transfer charged *before*
        // any spill from this very allocation can displace them in a lower tier's
        // LRU order.
        let budget = self.pool.free_blocks() + self.evictable_blocks();
        let cpu_tail = &hashes[reused.len()..];
        let cpu_hits = match self.cpu.as_ref() {
            Some(pool) => pool.lookup_prefix_blocks(cpu_tail),
            None => 0,
        };
        let mut cpu_planned = cpu_hits.min(budget);
        if cpu_planned > 0 {
            let block_bytes = self
                .cpu
                .as_ref()
                .expect("CPU hits imply a tier")
                .block_bytes();
            let quote = ReloadQuote {
                tier: ReloadTier::Cpu,
                blocks: cpu_planned,
                bytes: cpu_planned * block_bytes,
                resident_prefix_tokens: cached_tokens,
                total_tokens,
            };
            if !decide(&quote) {
                self.net_stats.declined_reload_blocks += cpu_planned;
                cpu_planned = 0;
            }
        }
        // The network continuation starts after the *full* CPU-hit run; it is only
        // reachable when that run reloads in its entirety (trivially true at zero).
        let net_reachable = cpu_planned == cpu_hits;
        let net_tail = &cpu_tail[cpu_hits.min(cpu_tail.len() as u64) as usize..];
        let mut net_planned = 0;
        if net_reachable {
            if let Some(pool) = self.net.as_ref() {
                net_planned = pool
                    .lookup_prefix_blocks(net_tail)
                    .min(budget - cpu_planned);
                if net_planned > 0 {
                    let quote = ReloadQuote {
                        tier: ReloadTier::Net,
                        blocks: net_planned,
                        bytes: net_planned * pool.block_bytes(),
                        resident_prefix_tokens: cached_tokens
                            + cpu_planned * self.block_size as u64,
                        total_tokens,
                    };
                    if !decide(&quote) {
                        self.net_stats.declined_reload_blocks += net_planned;
                        net_planned = 0;
                    }
                }
            }
        }
        let reloaded_bytes = if cpu_planned > 0 {
            self.cpu
                .as_mut()
                .expect("a reload plan implies a CPU tier")
                .reload_prefix(cpu_tail, cpu_planned, now)
        } else {
            0
        };
        let (net_reloaded_bytes, net_propagated_blocks) = if net_planned > 0 {
            let reload = self
                .net
                .as_mut()
                .expect("a net reload plan implies a net tier")
                .reload_prefix_accounted(net_tail, net_planned, now);
            self.net_stats.net_reloaded_blocks += net_planned;
            self.net_stats.net_reloaded_bytes += reload.bytes;
            self.net_stats.net_propagated_reload_blocks += reload.propagated_blocks;
            (reload.bytes, reload.propagated_blocks)
        } else {
            (0, 0)
        };

        // Phase 3: make room in one batch (evicting LRU cached blocks as required),
        // then allocate.  Reloaded blocks come first in the chain — CPU segment, then
        // network segment (contiguous, because a net plan requires the full CPU run
        // to reload) — so the plan above is always fully satisfied; under best-effort
        // we stop at the first block that cannot be satisfied.
        debug_assert!(
            net_planned == 0 || cpu_planned == cpu_hits,
            "a network reload requires the whole CPU segment to reload"
        );
        let free = self.pool.free_blocks();
        if needed > free {
            self.evict_lru_batch(needed - free, now);
        }
        let reload_planned = cpu_planned + net_planned;
        let mut reloaded = Vec::with_capacity(cpu_planned as usize);
        let mut net_reloaded = Vec::with_capacity(net_planned as usize);
        let mut new_full =
            Vec::with_capacity(new_full_needed.saturating_sub(reload_planned as usize));
        let mut exhausted = false;
        for (offset, hash) in hashes.iter().skip(reused.len()).enumerate() {
            match self.pool.allocate() {
                Some(block) => {
                    if (offset as u64) < cpu_planned {
                        reloaded.push((*hash, block));
                    } else if (offset as u64) < reload_planned {
                        net_reloaded.push((*hash, block));
                    } else {
                        new_full.push((*hash, block));
                    }
                }
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        debug_assert_eq!(
            (reloaded.len() + net_reloaded.len()) as u64,
            reload_planned,
            "the reload plan is capped at free + evictable blocks"
        );
        let partial = if has_partial && !exhausted {
            self.pool.allocate()
        } else {
            None
        };

        debug_assert!(
            policy == RetentionPolicy::PrefixBestEffort || !exhausted,
            "full-residency allocation must have been size-checked in phase 2"
        );

        self.stats.hit_tokens += cached_tokens;
        self.stats.miss_tokens += total_tokens - cached_tokens;
        if cached_tokens > 0 {
            self.stats.requests_with_hits += 1;
        }

        Ok(RequestKv {
            reused,
            reloaded,
            net_reloaded,
            new_full,
            partial,
            cached_tokens,
            reloaded_bytes,
            net_reloaded_bytes,
            net_propagated_blocks,
            total_tokens,
            block_size: self.block_size,
        })
    }

    /// Completes a request: newly written full blocks — recomputed *and* reloaded
    /// (from either tier) — enter the prefix cache, the partial block is freed, and
    /// reused blocks drop back to being cached-only.
    pub fn commit(&mut self, request: RequestKv, now: SimTime) {
        for (hash, block) in request.reused {
            let remaining = self.pool.dec_ref(block);
            if let Some(entry) = self.cached.get_mut(&hash) {
                entry.last_used = now;
                if remaining == 0 {
                    self.lru.insert((now, hash));
                }
            }
        }
        for (hash, block) in request
            .reloaded
            .into_iter()
            .chain(request.net_reloaded)
            .chain(request.new_full)
        {
            if self.pool.dec_ref(block) == 0 {
                if let std::collections::hash_map::Entry::Vacant(e) = self.cached.entry(hash) {
                    e.insert(CachedEntry {
                        block,
                        last_used: now,
                    });
                    self.lru.insert((now, hash));
                    self.stats.committed_blocks += 1;
                    self.commit_generation += 1;
                } else {
                    // A concurrent identical prefix already cached this content; drop
                    // the duplicate block.
                    self.pool.release(block);
                }
            }
        }
        if let Some(block) = request.partial {
            if self.pool.dec_ref(block) == 0 {
                self.pool.release(block);
            }
        }
    }

    /// Abandons a request without caching anything (e.g. the request failed).
    pub fn release_uncommitted(&mut self, request: RequestKv) {
        for (hash, block) in request.reused {
            if self.pool.dec_ref(block) == 0 {
                if let Some(entry) = self.cached.get(&hash) {
                    self.lru.insert((entry.last_used, hash));
                }
            }
        }
        for (_, block) in request
            .reloaded
            .into_iter()
            .chain(request.net_reloaded)
            .chain(request.new_full)
            .chain(request.partial.map(|b| (TokenBlockHash(0), b)))
        {
            if self.pool.dec_ref(block) == 0 {
                self.pool.release(block);
            }
        }
    }

    /// Drops every unreferenced cached block (used by tests and profile runs).
    ///
    /// This is an explicit reset, not memory pressure: nothing spills to the CPU
    /// tier.
    pub fn clear_cache(&mut self) {
        while let Some((_, hash)) = self.lru.pop_first() {
            let entry = self.cached.remove(&hash).expect("LRU entries are cached");
            self.pool.release(entry.block);
            self.stats.evicted_blocks += 1;
            self.evict_generation += 1;
        }
    }

    /// Blocks that could be evicted right now.  O(1): the LRU index holds exactly the
    /// unreferenced cached blocks.
    fn evictable_blocks(&self) -> u64 {
        self.lru.len() as u64
    }

    /// Publishes every reusable resident block into the installed network snapshot —
    /// the drain path of an instance leaving the fleet, so survivors inherit its
    /// work.  GPU-resident blocks spill unconditionally (they were committed prefix
    /// blocks, the strongest reuse evidence the hierarchy records) in `(last_used,
    /// hash)` order; CPU-resident blocks follow in their own LRU order through the
    /// same single-use filter the eviction cascade applies
    /// ([`NET_SPILL_MIN_USES`]).  Each spill keeps the entry's own `last_used`
    /// recency (the net LRU order extends the leaver's) and publishes at `now +
    /// propagation delay`, exactly like a cascade spill at `now`.
    ///
    /// The local tiers are left untouched: a spill is a copy, not a move, and the
    /// drained instance is about to be retired anyway.  No-op (all-zero report)
    /// when no network snapshot is installed.
    pub fn drain_to_net(&mut self, now: SimTime) -> DrainSpill {
        let mut report = DrainSpill::default();
        let Some(net) = self.net.as_mut() else {
            return report;
        };
        for &(last_used, hash) in &self.lru {
            let (written, evicted) =
                net.offload_spilled(std::slice::from_ref(&hash), last_used, now);
            report.gpu_blocks += written;
            report.evicted_blocks += evicted;
        }
        if let Some(cpu) = self.cpu.as_ref() {
            for victim in cpu.lru_entries() {
                if victim.uses >= NET_SPILL_MIN_USES {
                    let (written, evicted) = net.offload_spilled(
                        std::slice::from_ref(&victim.hash),
                        victim.last_used,
                        now,
                    );
                    report.cpu_blocks += written;
                    report.evicted_blocks += evicted;
                } else {
                    report.filtered_blocks += 1;
                }
            }
        }
        self.net_stats.net_offloaded_blocks += report.gpu_blocks + report.cpu_blocks;
        self.net_stats.net_filtered_blocks += report.filtered_blocks;
        self.net_stats.net_evicted_blocks += report.evicted_blocks;
        report
    }

    /// Evicts up to `count` least-recently-used unreferenced cached blocks, spilling
    /// each victim one tier down when offload is enabled.  Returns how many blocks
    /// were actually evicted.
    ///
    /// O(k log n) for `k` victims over `n` evictable blocks — the LRU index already
    /// holds the eviction order, so no scan or sort over the cache is needed.  Spilled
    /// victims keep their GPU `last_used` timestamp, so each lower tier's LRU order
    /// extends the one above it (a block cold enough to leave the GPU is the first to
    /// leave the CPU, too).
    ///
    /// The cascade continues downwards: a CPU resident displaced by the spill is
    /// itself spilled into the network tier — *if* it passes the single-use filter
    /// ([`NET_SPILL_MIN_USES`]); single-use suffix blocks are discarded rather than
    /// shared cluster-wide.  `now` is when the eviction happens — the spill instant
    /// that starts the network tier's propagation clock; the victims' (older)
    /// `last_used` timestamps only order the lower tiers' LRUs.
    fn evict_lru_batch(&mut self, count: u64, now: SimTime) -> u64 {
        let mut evicted = 0u64;
        while evicted < count {
            let Some((last_used, hash)) = self.lru.pop_first() else {
                break;
            };
            let entry = self.cached.remove(&hash).expect("LRU entries are cached");
            self.pool.release(entry.block);
            if let Some(cpu) = self.cpu.as_mut() {
                let net = &mut self.net;
                let net_stats = &mut self.net_stats;
                cpu.offload_with_evictions(&[hash], last_used, |victim| {
                    let Some(net) = net.as_mut() else { return };
                    if victim.uses >= NET_SPILL_MIN_USES {
                        let (written, net_evicted) = net.offload_spilled(
                            std::slice::from_ref(&victim.hash),
                            victim.last_used,
                            now,
                        );
                        net_stats.net_offloaded_blocks += written;
                        net_stats.net_evicted_blocks += net_evicted;
                    } else {
                        net_stats.net_filtered_blocks += 1;
                    }
                });
            }
            self.stats.evicted_blocks += 1;
            self.evict_generation += 1;
            evicted += 1;
        }
        evicted
    }

    /// Debug-only structural check of the LRU index invariant.
    #[cfg(test)]
    fn assert_lru_invariant(&self) {
        let evictable: BTreeSet<(SimTime, TokenBlockHash)> = self
            .cached
            .iter()
            .filter(|(_, e)| self.pool.ref_count(e.block) == Some(0))
            .map(|(h, e)| (e.last_used, *h))
            .collect();
        assert_eq!(evictable, self.lru, "LRU index out of sync with the cache");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(start: u32, len: usize) -> Vec<u32> {
        (start..start + len as u32).collect()
    }

    #[test]
    fn cold_allocation_has_no_hits() {
        let mut m = KvCacheManager::new(100, 16);
        let req = m
            .allocate(
                &tokens(0, 100),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        assert_eq!(req.cached_tokens(), 0);
        assert_eq!(req.total_tokens(), 100);
        assert_eq!(req.resident_blocks(), 7, "6 full blocks + 1 partial");
        assert_eq!(req.resident_tokens(), 100);
        m.commit(req, SimTime::ZERO);
        // 6 full blocks cached, partial freed.
        assert_eq!(m.cached_blocks(), 6);
        assert_eq!(m.stats().committed_blocks, 6);
    }

    #[test]
    fn warm_allocation_hits_the_shared_prefix() {
        let mut m = KvCacheManager::new(100, 16);
        let profile = tokens(0, 64);
        let mut req_a = profile.clone();
        req_a.extend(tokens(1000, 32));
        let mut req_b = profile.clone();
        req_b.extend(tokens(2000, 32));

        let a = m
            .allocate(&req_a, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(a, SimTime::ZERO);

        assert_eq!(m.lookup_cached_tokens(&req_b), 64);
        let b = m
            .allocate(
                &req_b,
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        assert_eq!(b.cached_tokens(), 64);
        assert_eq!(b.uncached_tokens(), 32);
        m.commit(b, SimTime::from_secs(1));
        assert!(m.stats().hit_rate() > 0.0);
        assert_eq!(m.stats().requests_with_hits, 1);
    }

    #[test]
    fn full_residency_fails_when_pool_too_small() {
        let mut m = KvCacheManager::new(4, 16);
        let err = m
            .allocate(
                &tokens(0, 200),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap_err();
        assert!(err.needed_blocks > err.available_blocks);
        assert_eq!(m.stats().failed_allocations, 1);
        // Nothing leaked.
        assert_eq!(m.free_blocks(), 4);
    }

    #[test]
    fn best_effort_retains_prefix_and_discards_suffix() {
        let mut m = KvCacheManager::new(4, 16);
        let req = m
            .allocate(
                &tokens(0, 200),
                SimTime::ZERO,
                RetentionPolicy::PrefixBestEffort,
            )
            .unwrap();
        assert_eq!(req.resident_blocks(), 4);
        assert_eq!(req.resident_tokens(), 64);
        assert_eq!(req.discarded_tokens(), 136);
        m.commit(req, SimTime::ZERO);
        assert_eq!(m.cached_blocks(), 4);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut m = KvCacheManager::new(8, 16);
        // Two requests fill the cache: A at t=0 (4 blocks), B at t=1 (4 blocks).
        let a = m
            .allocate(
                &tokens(0, 64),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(a, SimTime::ZERO);
        let b = m
            .allocate(
                &tokens(5000, 64),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(b, SimTime::from_secs(1));
        assert_eq!(m.cached_blocks(), 8);
        // C needs 4 blocks; A's blocks (older) should be evicted, keeping B's.
        let c = m
            .allocate(
                &tokens(9000, 64),
                SimTime::from_secs(2),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(c, SimTime::from_secs(2));
        assert_eq!(m.lookup_cached_tokens(&tokens(0, 64)), 0, "A evicted");
        assert_eq!(m.lookup_cached_tokens(&tokens(5000, 64)), 64, "B kept");
        assert_eq!(m.stats().evicted_blocks, 4);
    }

    #[test]
    fn referenced_blocks_are_not_evicted() {
        let mut m = KvCacheManager::new(4, 16);
        let a = m
            .allocate(
                &tokens(0, 64),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        // While A is still running (not committed), a full-residency request that needs
        // the whole pool must fail rather than evict A's in-use blocks.
        let err = m
            .allocate(
                &tokens(100, 64),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap_err();
        assert_eq!(err.available_blocks, 0);
        m.commit(a, SimTime::from_secs(2));
    }

    #[test]
    fn release_uncommitted_caches_nothing() {
        let mut m = KvCacheManager::new(16, 16);
        let a = m
            .allocate(
                &tokens(0, 64),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.release_uncommitted(a);
        assert_eq!(m.cached_blocks(), 0);
        assert_eq!(m.free_blocks(), 16);
    }

    #[test]
    fn clear_cache_frees_everything_unreferenced() {
        let mut m = KvCacheManager::new(16, 16);
        let a = m
            .allocate(
                &tokens(0, 128),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(a, SimTime::ZERO);
        assert!(m.cached_blocks() > 0);
        m.clear_cache();
        assert_eq!(m.cached_blocks(), 0);
        assert_eq!(m.free_blocks(), 16);
    }

    #[test]
    fn generation_tracks_cache_content_changes() {
        let mut m = KvCacheManager::new(8, 16);
        assert_eq!(m.generation(), 0);

        // A pure lookup changes nothing.
        m.lookup_cached_tokens(&tokens(0, 64));
        assert_eq!(m.generation(), 0);

        // Committing 4 blocks bumps the generation 4 times, none of them evictions.
        let a = m
            .allocate(
                &tokens(0, 64),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(a, SimTime::ZERO);
        assert_eq!(m.generation(), 4);
        assert_eq!(m.evict_generation(), 0);

        // A warm re-allocation of the same prefix commits nothing new: the cache
        // contents — and therefore the generation — are unchanged.
        let again = m
            .allocate(
                &tokens(0, 64),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(again, SimTime::from_secs(1));
        assert_eq!(m.generation(), 4);

        // Filling the pool with a second request and then forcing eviction bumps the
        // eviction generation.
        let b = m
            .allocate(
                &tokens(5_000, 64),
                SimTime::from_secs(2),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(b, SimTime::from_secs(2));
        let c = m
            .allocate(
                &tokens(9_000, 64),
                SimTime::from_secs(3),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(c, SimTime::from_secs(3));
        assert_eq!(m.evict_generation(), 4, "4 blocks evicted to fit C");
        assert_eq!(m.stats().evicted_blocks, 4);
        m.assert_lru_invariant();
    }

    #[test]
    fn resume_walk_matches_full_walk_while_no_evictions() {
        let mut m = KvCacheManager::new(64, 16);
        let prefix = tokens(0, 64);
        let mut chain = prefix.clone();
        chain.extend(tokens(10_000, 64));
        let hashes = kvcache_hashes(&chain, 16);

        // Nothing cached: both walks agree at depth 0.
        assert_eq!(m.lookup_cached_blocks_from_hashes(&hashes), 0);
        assert_eq!(m.resume_cached_blocks_from_hashes(&hashes, 0), 0);

        // Cache the 4-block prefix; a resumed walk from the old depth finds them.
        let a = m
            .allocate(&prefix, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(a, SimTime::ZERO);
        let full = m.lookup_cached_blocks_from_hashes(&hashes);
        assert_eq!(full, 4);
        assert_eq!(m.resume_cached_blocks_from_hashes(&hashes, 0), full);

        // Cache the whole chain; resuming from depth 4 walks only the new blocks.
        let b = m
            .allocate(
                &chain,
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(b, SimTime::from_secs(1));
        assert_eq!(m.resume_cached_blocks_from_hashes(&hashes, full), 8);
        m.assert_lru_invariant();
    }

    #[test]
    fn lru_index_stays_in_sync_through_rollback_and_release() {
        let mut m = KvCacheManager::new(6, 16);
        let a = m
            .allocate(
                &tokens(0, 64),
                SimTime::ZERO,
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(a, SimTime::ZERO);
        m.assert_lru_invariant();

        // Touch the cached prefix, then fail the allocation: the rollback must return
        // the touched blocks to the LRU index.
        let err = m
            .allocate(
                &tokens(0, 64 + 16 * 3),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap_err();
        assert!(err.needed_blocks > err.available_blocks);
        m.assert_lru_invariant();

        // Touch the cached prefix, then abandon the request: same story.
        let c = m
            .allocate(
                &tokens(0, 80),
                SimTime::from_secs(2),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.release_uncommitted(c);
        m.assert_lru_invariant();
        assert_eq!(m.cached_blocks(), 4);
    }

    fn kvcache_hashes(tokens: &[u32], block_size: usize) -> Vec<TokenBlockHash> {
        crate::hash::hash_token_blocks(tokens, block_size)
    }

    const CPU_BLOCK_BYTES: u64 = 16 * 128 * 1024;

    #[test]
    fn eviction_spills_to_cpu_and_reload_rehydrates() {
        let mut m = KvCacheManager::with_offload(8, 16, 1 << 30, CPU_BLOCK_BYTES);
        // A fills the pool (8 blocks), B evicts all of A into the CPU tier.
        let a_tokens = tokens(0, 128);
        let a = m
            .allocate(&a_tokens, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(a, SimTime::ZERO);
        let b = m
            .allocate(
                &tokens(5_000, 128),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(b, SimTime::from_secs(1));
        assert_eq!(m.offload_stats().offloaded_blocks, 8, "A spilled, not lost");
        assert_eq!(m.cpu_resident_blocks(), 8);
        assert_eq!(m.lookup_cached_tokens(&a_tokens), 0, "A left the GPU");
        let hashes = hash_token_blocks(&a_tokens, 16);
        let hits = m.lookup_tier_hits_from_hashes(&hashes);
        assert_eq!((hits.gpu_blocks, hits.cpu_blocks), (0, 8));

        // A's repeat rehydrates from CPU: no recomputation, a host transfer instead.
        let again = m
            .allocate(
                &a_tokens,
                SimTime::from_secs(2),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        assert_eq!(again.cached_tokens(), 0);
        assert_eq!(again.reloaded_tokens(), 128);
        assert_eq!(again.uncached_tokens(), 0);
        assert_eq!(again.reloaded_bytes(), 8 * CPU_BLOCK_BYTES);
        m.commit(again, SimTime::from_secs(2));
        assert_eq!(m.offload_stats().reloaded_blocks, 8);
        // Committed reloads are GPU-cached again.
        assert_eq!(m.lookup_cached_tokens(&a_tokens), 128);
        m.assert_lru_invariant();
    }

    #[test]
    fn reload_follows_the_gpu_hit_prefix() {
        let mut m = KvCacheManager::with_offload(8, 16, 1 << 30, CPU_BLOCK_BYTES);
        let chain = tokens(0, 128);
        let a = m
            .allocate(&chain, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(a, SimTime::ZERO);
        // Evict only part of the chain: a 4-block request at t=1 displaces A's 4
        // oldest (head) blocks... all of A has one timestamp, so the tie-break picks
        // by hash — instead, re-touch a prefix to control recency.
        let warm = m
            .allocate(
                &tokens(0, 64),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(warm, SimTime::from_secs(1));
        let b = m
            .allocate(
                &tokens(9_000, 64),
                SimTime::from_secs(2),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(b, SimTime::from_secs(2));
        // The 4-block head survives on the GPU; the 4-block tail spilled to CPU.
        let hashes = hash_token_blocks(&chain, 16);
        let hits = m.lookup_tier_hits_from_hashes(&hashes);
        assert_eq!(hits.gpu_blocks, 4);
        assert_eq!(hits.cpu_blocks, 4);

        // B's blocks are younger but evictable; re-running the full chain reuses the
        // GPU head and reloads the CPU tail.
        let again = m
            .allocate(
                &chain,
                SimTime::from_secs(3),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        assert_eq!(again.cached_tokens(), 64);
        assert_eq!(again.reloaded_tokens(), 64);
        assert_eq!(again.uncached_tokens(), 0);
        m.commit(again, SimTime::from_secs(3));
        m.assert_lru_invariant();
    }

    #[test]
    fn tier_walks_stop_at_the_first_block_missing_from_every_tier() {
        // A 6-block chain spread over all three tiers with a gap: blocks 0..2 on
        // the GPU, block 2 in the CPU tier, block 3 nowhere and blocks 4..6 in the
        // network tier.  The walk must stop at the gap.
        let mut m = KvCacheManager::with_offload(3, 16, 1 << 30, CPU_BLOCK_BYTES);
        let chain = tokens(0, 96);
        let hashes = hash_token_blocks(&chain, 16);
        let run = |m: &mut KvCacheManager, tokens: &[u32], secs: u64| {
            let alloc = m
                .allocate(
                    tokens,
                    SimTime::from_secs(secs),
                    RetentionPolicy::FullResidency,
                )
                .unwrap();
            m.commit(alloc, SimTime::from_secs(secs));
        };
        run(&mut m, &chain[..48], 0);
        // Re-touch the 2-block head so block 2 is the LRU victim of the next
        // allocation, which spills it to the CPU tier.
        run(&mut m, &chain[..32], 1);
        run(&mut m, &tokens(9_000, 16), 2);
        let mut net = crate::NetKvPool::new(1 << 30, CPU_BLOCK_BYTES);
        net.offload(&hashes[4..], SimTime::from_secs(2));
        m.install_net_pool(net);

        assert_eq!(m.cpu_resident_blocks(), 1);
        assert_eq!(
            m.net_resident_blocks(),
            2,
            "the blocks behind the gap are resident"
        );
        assert_eq!(
            m.lookup_tier_hits_from_hashes(&hashes),
            TierHits {
                gpu_blocks: 2,
                cpu_blocks: 1,
                net_blocks: 0,
            }
        );
        m.assert_lru_invariant();
    }

    #[test]
    fn best_effort_reload_is_capped_by_residency() {
        // Pool of 4 blocks, CPU tier holding an 8-block chain: a best-effort repeat
        // can only rehydrate what fits.
        let mut m = KvCacheManager::with_offload(4, 16, 1 << 30, CPU_BLOCK_BYTES);
        let chain = tokens(0, 128);
        let a = m
            .allocate(&chain, SimTime::ZERO, RetentionPolicy::PrefixBestEffort)
            .unwrap();
        assert_eq!(a.resident_blocks(), 4);
        m.commit(a, SimTime::ZERO);
        let b = m
            .allocate(
                &tokens(9_000, 64),
                SimTime::from_secs(1),
                RetentionPolicy::PrefixBestEffort,
            )
            .unwrap();
        m.commit(b, SimTime::from_secs(1));
        // A's first 4 blocks are now CPU-resident; a repeat reloads at most 4.
        let again = m
            .allocate(
                &chain,
                SimTime::from_secs(2),
                RetentionPolicy::PrefixBestEffort,
            )
            .unwrap();
        assert_eq!(again.cached_tokens(), 0);
        assert_eq!(again.reloaded_tokens(), 64);
        assert_eq!(again.resident_blocks(), 4);
        assert_eq!(again.discarded_tokens(), 64);
        m.release_uncommitted(again);
        m.assert_lru_invariant();
    }

    #[test]
    fn zero_cpu_capacity_behaves_like_a_plain_manager() {
        let mut plain = KvCacheManager::new(8, 16);
        let mut zero = KvCacheManager::with_offload(8, 16, 0, CPU_BLOCK_BYTES);
        assert!(!zero.offload_enabled());
        for (serial, start) in [(0u64, 0u32), (1, 5_000), (2, 9_000), (3, 0)] {
            let now = SimTime::from_secs(serial);
            let chain = tokens(start, 100);
            let a = plain
                .allocate(&chain, now, RetentionPolicy::FullResidency)
                .unwrap();
            let b = zero
                .allocate(&chain, now, RetentionPolicy::FullResidency)
                .unwrap();
            assert_eq!(a, b, "offload-disabled allocation must be identical");
            plain.commit(a, now);
            zero.commit(b, now);
            assert_eq!(plain.stats(), zero.stats());
            assert_eq!(plain.generation(), zero.generation());
        }
        assert_eq!(zero.offload_stats(), OffloadStats::default());
        assert_eq!(zero.cpu_generation(), 0);
    }

    #[test]
    fn cold_manager_reloads_a_warm_net_pool_prefix() {
        // A fresh instance joins a deployment whose shared network tier already
        // holds another instance's prefix: the allocation rehydrates it over the
        // network link instead of recomputing.
        let mut m = KvCacheManager::with_offload(8, 16, 1 << 30, CPU_BLOCK_BYTES);
        let chain = tokens(0, 128);
        let hashes = hash_token_blocks(&chain, 16);
        let mut warm = crate::NetKvPool::new(1 << 30, CPU_BLOCK_BYTES);
        warm.offload(&hashes, SimTime::ZERO);
        m.install_net_pool(warm);

        let hits = m.lookup_tier_hits_from_hashes(&hashes);
        assert_eq!(
            (hits.gpu_blocks, hits.cpu_blocks, hits.net_blocks),
            (0, 0, 8)
        );
        let alloc = m
            .allocate(
                &chain,
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        assert_eq!(alloc.cached_tokens(), 0);
        assert_eq!(alloc.reloaded_tokens(), 0);
        assert_eq!(alloc.net_reloaded_tokens(), 128);
        assert_eq!(alloc.net_reloaded_bytes(), 8 * CPU_BLOCK_BYTES);
        assert_eq!(alloc.uncached_tokens(), 0);
        m.commit(alloc, SimTime::from_secs(1));
        let stats = m.offload_stats();
        assert_eq!(stats.net_reloaded_blocks, 8);
        assert_eq!(stats.net_reloaded_bytes, 8 * CPU_BLOCK_BYTES);
        // Committed net reloads are GPU-cached like any other block.
        assert_eq!(m.lookup_cached_tokens(&chain), 128);
        m.assert_lru_invariant();
    }

    #[test]
    fn cpu_evictions_cascade_to_net_gated_by_the_single_use_filter() {
        // GPU pool 4 blocks, CPU pool 8 blocks (two chains), large net pool.
        let mut m = KvCacheManager::with_offload(4, 16, 8 * CPU_BLOCK_BYTES, CPU_BLOCK_BYTES);
        m.install_net_pool(crate::NetKvPool::new(1 << 30, CPU_BLOCK_BYTES));
        let a = tokens(0, 64);
        let hashes_a = hash_token_blocks(&a, 16);
        let run = |m: &mut KvCacheManager, chain: &[u32], secs: u64| {
            let alloc = m
                .allocate(
                    chain,
                    SimTime::from_secs(secs),
                    RetentionPolicy::FullResidency,
                )
                .unwrap();
            let reloaded = alloc.reloaded_tokens();
            m.commit(alloc, SimTime::from_secs(secs));
            reloaded
        };

        // A computed, evicted by B (A spills to CPU, uses = 1), then A returns —
        // reloaded from CPU (uses = 2) — and B spills next to it (CPU holds both).
        run(&mut m, &a, 0);
        run(&mut m, &tokens(5_000, 64), 1);
        assert_eq!(run(&mut m, &a, 2), 64, "A reloads from the CPU tier");
        // C evicts A again: the CPU copy is refreshed, not duplicated (uses = 3).
        run(&mut m, &tokens(9_000, 64), 3);
        assert_eq!(m.cpu_resident_blocks(), 8, "A and B fill the CPU tier");
        assert_eq!(m.offload_stats().net_offloaded_blocks, 0);

        // D evicts C; C's spill displaces the oldest CPU residents — B's single-use
        // blocks — which the filter keeps out of the net tier.
        run(&mut m, &tokens(13_000, 64), 4);
        let stats = m.offload_stats();
        assert_eq!(stats.net_filtered_blocks, 4, "single-use B stays out");
        assert_eq!(stats.net_offloaded_blocks, 0);

        // E evicts D; D's spill displaces A's reused blocks, which pass the filter
        // and become shareable cluster-wide.
        run(&mut m, &tokens(17_000, 64), 5);
        let stats = m.offload_stats();
        assert_eq!(stats.net_offloaded_blocks, 4, "reused A passes the filter");
        assert_eq!(stats.net_filtered_blocks, 4);
        assert_eq!(
            m.net_pool().unwrap().lookup_prefix_blocks(&hashes_a),
            4,
            "A's prefix is now in the shared tier"
        );
        m.assert_lru_invariant();
    }

    #[test]
    fn declined_reload_recomputes_instead() {
        let mut m = KvCacheManager::with_offload(8, 16, 1 << 30, CPU_BLOCK_BYTES);
        let chain = tokens(0, 128);
        let hashes = hash_token_blocks(&chain, 16);
        let alloc = m
            .allocate(&chain, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(alloc, SimTime::ZERO);
        let alloc = m
            .allocate(
                &tokens(5_000, 128),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(alloc, SimTime::from_secs(1));
        assert_eq!(m.cpu_resident_blocks(), 8, "A spilled to CPU");

        // The policy declines: the CPU-resident prefix is recomputed, not reloaded.
        let mut quotes = Vec::new();
        let alloc = m
            .allocate_from_hashes_with_policy(
                &hashes,
                128,
                SimTime::from_secs(2),
                RetentionPolicy::FullResidency,
                &mut |quote| {
                    quotes.push(*quote);
                    false
                },
            )
            .unwrap();
        assert_eq!(quotes.len(), 1);
        assert_eq!(quotes[0].tier, ReloadTier::Cpu);
        assert_eq!(quotes[0].blocks, 8);
        assert_eq!(quotes[0].bytes, 8 * CPU_BLOCK_BYTES);
        assert_eq!(alloc.reloaded_tokens(), 0);
        assert_eq!(alloc.uncached_tokens(), 128);
        assert_eq!(m.offload_stats().declined_reload_blocks, 8);
        assert_eq!(m.offload_stats().reloaded_blocks, 0);
        m.release_uncommitted(alloc);
        m.assert_lru_invariant();
    }

    /// Shadow model of the drain-to-net handoff: a flat reference — computed
    /// directly from the leaver's tier contents and the spill filter — of exactly
    /// which hashes must appear in the shared pool after [`KvCacheManager::drain_to_net`],
    /// with which publish timestamp and which origin bit, compared against the
    /// real spill path.  Coverage-guarded: the scenario must exercise all three
    /// drain flows (GPU spill, CPU pass-through, CPU filtered) or the test fails
    /// rather than pass vacuously.
    #[test]
    fn drain_to_net_matches_the_flat_shadow_model() {
        let delay = simcore::SimDuration::from_millis(1_500);
        // GPU 4 blocks, CPU roomy (16 blocks) so nothing cascades before the drain.
        let mut m = KvCacheManager::with_offload(4, 16, 16 * CPU_BLOCK_BYTES, CPU_BLOCK_BYTES);
        let shared = crate::NetKvPool::new(1 << 30, CPU_BLOCK_BYTES).with_propagation_delay(delay);
        let owner = 3usize;
        m.install_net_pool(shared.visible_snapshot(SimTime::ZERO, owner));

        let run = |m: &mut KvCacheManager, chain: &[u32], secs: u64| {
            let alloc = m
                .allocate(
                    chain,
                    SimTime::from_secs(secs),
                    RetentionPolicy::FullResidency,
                )
                .unwrap();
            m.commit(alloc, SimTime::from_secs(secs));
        };
        let multi_use = tokens(0, 64); // evicted, reloaded, evicted again: uses ≥ 2
        let single_use = tokens(9_000, 64); // computed once, evicted once: uses = 1
        let gpu_resident = tokens(13_000, 64); // still on the GPU at drain time
        run(&mut m, &multi_use, 0);
        run(&mut m, &single_use, 1); // evicts multi_use → CPU (uses 1)
        run(&mut m, &multi_use, 2); // reloads multi_use (uses 2), evicts single_use → CPU (uses 1)
        run(&mut m, &gpu_resident, 3); // evicts multi_use → CPU touch (uses 3)
        let hits = m.lookup_tier_hits_from_hashes(&kvcache_hashes(&gpu_resident, 16));
        assert_eq!(hits.gpu_blocks, 4, "the leaver must hold GPU-resident KV");
        assert_eq!(
            m.cpu_resident_blocks(),
            8,
            "multi_use and single_use on CPU"
        );
        assert_eq!(
            m.offload_stats().net_offloaded_blocks,
            0,
            "net fed only by the drain"
        );

        // The flat reference: every GPU-resident block spills unconditionally;
        // every CPU-resident block spills iff its reuse count passes the filter.
        // All of them publish at `drain_at + delay` with the leaver's origin bit.
        let drain_at = SimTime::from_secs(4);
        let expected_meta = (drain_at + delay, 1u64 << owner);
        let expected_spilled: Vec<TokenBlockHash> = kvcache_hashes(&gpu_resident, 16)
            .into_iter()
            .chain(kvcache_hashes(&multi_use, 16))
            .collect();
        let expected_filtered = kvcache_hashes(&single_use, 16);

        let report = m.drain_to_net(drain_at);
        // Coverage guard: all three flows exercised.
        assert_eq!(report.gpu_blocks, 4, "GPU tier must spill");
        assert_eq!(
            report.cpu_blocks, 4,
            "a reused CPU chain must pass the filter"
        );
        assert_eq!(
            report.filtered_blocks, 4,
            "a single-use CPU chain must be filtered"
        );
        assert_eq!(report.evicted_blocks, 0);

        let pool = m.net_pool().unwrap();
        assert_eq!(
            pool.resident_blocks(),
            8,
            "exactly the shadow set is resident"
        );
        for hash in &expected_spilled {
            assert_eq!(
                pool.entry_meta(*hash),
                Some(expected_meta),
                "spilled hash must carry the drain publish stamp and origin bit"
            );
        }
        for hash in &expected_filtered {
            assert_eq!(pool.entry_meta(*hash), None, "filtered hash must stay out");
        }
        // The drain is a copy, not a move: the leaver's own tiers are untouched.
        assert_eq!(m.lookup_cached_tokens(&gpu_resident), 64);
        assert_eq!(m.cpu_resident_blocks(), 8);
        let stats = m.offload_stats();
        assert_eq!(stats.net_offloaded_blocks, 8);
        assert_eq!(stats.net_filtered_blocks, 4);
        m.assert_lru_invariant();
    }

    #[test]
    fn repeated_identical_request_is_fully_cached_except_partial() {
        let mut m = KvCacheManager::new(64, 16);
        let toks = tokens(0, 100);
        let a = m
            .allocate(&toks, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(a, SimTime::ZERO);
        let b = m
            .allocate(&toks, SimTime::from_secs(1), RetentionPolicy::FullResidency)
            .unwrap();
        // 6 full blocks hit; the partial 4-token tail is always recomputed.
        assert_eq!(b.cached_tokens(), 96);
        m.commit(b, SimTime::from_secs(1));
        assert_eq!(m.cached_blocks(), 6, "no duplicate cache entries");
    }
}
