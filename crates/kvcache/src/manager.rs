//! The KV-cache manager: prefix caching, LRU eviction, suffix discarding and the
//! hierarchical (GPU → CPU) tier.
//!
//! The GPU tier keeps one record per block id (`BlockTable`, after vLLM v1's
//! `KVCacheBlock`): the hash the block is cached under, its `last_used`, its links in
//! the free-block queue and a `child` link to the block that last followed it in an
//! allocated chain.  The prefix map only pairs each cached hash with its block.
//!
//! * Eviction is driven by the free-block queue (vLLM v1's `FreeKVCacheBlockQueue`):
//!   a doubly linked list of the unreferenced cached blocks, threaded through the
//!   records.  Pinning a cached block (a prefix hit) unlinks it, each drop of a
//!   reference count to zero appends the block at the tail, and eviction pops the
//!   head — all O(1).  A request hands its blocks back deepest first, so a committed
//!   chain leaves the GPU tail first and the head it shares with other requests
//!   stays resident; no victim order depends on a hash value.
//! * Allocation looks a chain's first block up in the prefix map and reaches each
//!   later reused block through its parent's `child` link, checked against the next
//!   hash; only a stale link or a branch costs a map lookup.  A request keeps its
//!   blocks as ids, so commit, rollback and release unpin them without touching the
//!   map.
//!
//! The manager also exposes a monotonically increasing
//! [`KvCacheManager::generation`] that changes exactly when the *contents* of the
//! prefix cache change (a block is inserted or removed), and an eviction watermark
//! over the free-block queue's push stamps ([`KvCacheManager::evicted_below`]);
//! schedulers use them to skip re-probing hash chains whose cached prefix no
//! eviction reached.
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

use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::block::{BlockId, BlockPool};
use crate::hash::{hash_token_blocks, BlockMap, TokenBlockHash};
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
    /// The request's full blocks in chain order: the reused (GPU-cached) prefix,
    /// the blocks rehydrated from the CPU tier, those rehydrated from the network
    /// tier, then the newly computed blocks.  Sized once from the chain length.
    /// Each block's hash lives in the manager's block table.
    chain: Vec<BlockId>,
    /// Length of the reused prefix of `chain`.
    reused: usize,
    /// Blocks rehydrated from the CPU tier: resident like new blocks, but their
    /// tokens need a host-link transfer instead of recomputation.
    reloaded: usize,
    /// Blocks rehydrated from the cluster-shared network tier (a network-link
    /// transfer instead of recomputation).
    net_reloaded: usize,
    partial: Option<BlockId>,
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
        (self.reused * self.block_size) as u64
    }

    /// Tokens whose KV is being rehydrated from the CPU tier (no recomputation, but a
    /// host-link transfer of [`Self::reloaded_bytes`] bytes).
    pub fn reloaded_tokens(&self) -> u64 {
        (self.reloaded * self.block_size) as u64
    }

    /// Bytes that must cross the host link to rehydrate the reloaded blocks.
    pub fn reloaded_bytes(&self) -> u64 {
        self.reloaded_bytes
    }

    /// Tokens whose KV is being rehydrated from the network tier (no recomputation,
    /// but a network-link transfer of [`Self::net_reloaded_bytes`] bytes).
    pub fn net_reloaded_tokens(&self) -> u64 {
        (self.net_reloaded * self.block_size) as u64
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
        self.total_tokens
            - self.cached_tokens()
            - self.reloaded_tokens()
            - self.net_reloaded_tokens()
    }

    /// Blocks resident in the pool on behalf of this request during execution.
    pub fn resident_blocks(&self) -> u64 {
        (self.chain.len() + usize::from(self.partial.is_some())) as u64
    }

    /// Tokens covered by resident blocks (i.e. tokens whose KV is kept; the rest is the
    /// discarded suffix under [`RetentionPolicy::PrefixBestEffort`]).
    pub fn resident_tokens(&self) -> u64 {
        let full = self.chain.len() as u64 * self.block_size as u64;
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

/// Link value of "no block": the end of the free-block queue, a block not queued,
/// or a block with no recorded child.
const NIL: u32 = u32::MAX;

/// The GPU tier's bookkeeping of one block (vLLM v1's `KVCacheBlock`), kept in the
/// [`BlockTable`] at the block's id.
#[derive(Debug, Clone, Copy)]
struct BlockRecord {
    /// The hash the block is cached under while `cached`; while the block is a new
    /// block of a request in flight, the hash it will be cached under at commit.
    hash: TokenBlockHash,
    /// When a request last touched the block.  The GPU tier orders its victims by
    /// the free-block queue, not by this stamp; spills and
    /// [`KvCacheManager::drain_to_net`] carry it down to the CPU and network
    /// tiers, whose LRUs it orders.
    last_used: SimTime,
    /// The stamp of the block's last push onto the free-block queue
    /// ([`BlockTable::push_back`]).  A pinned block keeps the stamp of its last
    /// push, and every cached block has been pushed at least once: a block enters
    /// the cache unreferenced, at its commit.
    queued_at: u64,
    /// Free-block queue links ([`NIL`] at an end of the queue, or while unqueued).
    prev: u32,
    next: u32,
    /// The block that last followed this one in an allocated chain ([`NIL`] if
    /// none).  Only a hint: that block may since have been evicted, recycled or
    /// left for another continuation, so a walk checks it ([`BlockTable::child`]).
    child: u32,
    /// Whether the block is in the prefix cache, under `hash`.
    cached: bool,
}

impl BlockRecord {
    const VACANT: BlockRecord = BlockRecord {
        hash: TokenBlockHash(0),
        last_used: SimTime::ZERO,
        queued_at: 0,
        prev: NIL,
        next: NIL,
        child: NIL,
        cached: false,
    };
}

/// The GPU tier's per-block bookkeeping: one [`BlockRecord`] per block id, with the
/// free-block queue threaded through the records (vLLM v1's
/// `FreeKVCacheBlockQueue`).
///
/// * Queued = cached with a reference count of zero.  Nothing else is queued.
/// * A pin unlinks its block in O(1), an unpin appends it at the tail, and
///   eviction pops the head.  A request hands its blocks back deepest first —
///   [`KvCacheManager::commit`] walks its chain backwards, new blocks first, then
///   the reused prefix — so a chain leaves the GPU tail first and its shared head
///   stays resident.
/// * Within a slot every push happens at a non-decreasing `now`, so queue order
///   is `last_used` order.  [`KvCacheManager::release_uncommitted`] (no caller in
///   the engine; benches and tests only) appends at the tail too and leaves
///   `last_used` as it is.
/// * Each push stamps its record with the next value of a table-wide counter
///   (`queued_at`).  Pushes append, unlinks keep the order of the rest and pops
///   take the head, so the queue is in stamp order from head to tail and
///   successive pops return strictly increasing stamps.
/// * The prefix map pairs each cached hash with exactly one cached block, and each
///   cached record holds the hash it is paired with.  So a `child` link that
///   [`Self::child`] accepts names the block the map would return.
/// * The records grow with the block-id high-water mark, never past the pool's
///   capacity: a manager sized for a large pool allocates nothing up front.
#[derive(Debug, Clone)]
struct BlockTable {
    records: Vec<BlockRecord>,
    head: u32,
    tail: u32,
    queued: u64,
    /// The stamp the next push writes.
    next_stamp: u64,
}

impl BlockTable {
    fn new() -> BlockTable {
        BlockTable {
            records: Vec::new(),
            head: NIL,
            tail: NIL,
            queued: 0,
            next_stamp: 0,
        }
    }

    fn link(block: BlockId) -> u32 {
        u32::try_from(block.0)
            .ok()
            .filter(|&id| id != NIL)
            .expect("block ids fit the table's u32 links")
    }

    fn record(&self, block: BlockId) -> &BlockRecord {
        &self.records[block.0 as usize]
    }

    fn record_mut(&mut self, block: BlockId) -> &mut BlockRecord {
        &mut self.records[block.0 as usize]
    }

    /// Readies the record of a block the pool just handed out as a new block of a
    /// chain, to be cached under `hash` if its request commits.  The table grows to
    /// cover the block, by doubling but never past `capacity` (the pool's).
    fn assign(&mut self, block: BlockId, hash: TokenBlockHash, capacity: u64) {
        let slot = Self::link(block) as usize;
        if slot >= self.records.len() {
            if slot >= self.records.capacity() {
                let grown = (2 * self.records.capacity())
                    .min(capacity as usize)
                    .max(slot + 1);
                self.records.reserve_exact(grown - self.records.len());
            }
            self.records.resize(slot + 1, BlockRecord::VACANT);
        }
        let record = &mut self.records[slot];
        debug_assert!(!record.cached, "the pool handed out a cached block");
        record.hash = hash;
        record.child = NIL;
    }

    /// The block `parent`'s child link names, if that block is cached under `hash`:
    /// then it is the block the prefix map pairs with `hash`.
    fn child(&self, parent: BlockId, hash: TokenBlockHash) -> Option<BlockId> {
        let child = self.record(parent).child;
        // `NIL` indexes past the table, which never grows past `u32::MAX` records.
        let record = self.records.get(child as usize)?;
        (record.cached && record.hash == hash).then_some(BlockId(u64::from(child)))
    }

    /// Points `parent`'s child link at `child`.
    fn set_child(&mut self, parent: BlockId, child: BlockId) {
        self.record_mut(parent).child = Self::link(child);
    }

    /// Queued blocks: what eviction can free.
    fn queued(&self) -> u64 {
        self.queued
    }

    /// Appends an unqueued cached block at the tail, stamping it.
    fn push_back(&mut self, block: BlockId) {
        let id = Self::link(block);
        let record = &mut self.records[id as usize];
        debug_assert!(record.cached, "only cached blocks are queued");
        record.queued_at = self.next_stamp;
        self.next_stamp += 1;
        record.prev = self.tail;
        record.next = NIL;
        match self.tail {
            NIL => self.head = id,
            tail => self.records[tail as usize].next = id,
        }
        self.tail = id;
        self.queued += 1;
    }

    /// Unlinks a queued block.
    fn remove(&mut self, block: BlockId) {
        let record = self.record(block);
        let (prev, next) = (record.prev, record.next);
        match prev {
            NIL => self.head = next,
            prev => self.records[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.records[next as usize].prev = prev,
        }
        self.queued -= 1;
    }

    /// Unlinks the head and returns it.
    fn pop_front(&mut self) -> Option<BlockId> {
        if self.head == NIL {
            return None;
        }
        let block = BlockId(u64::from(self.head));
        self.remove(block);
        Some(block)
    }

    /// The queued blocks with their records, head (next victim) first.
    fn queue(&self) -> impl Iterator<Item = (BlockId, &BlockRecord)> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            let id = cursor;
            (id != NIL).then(|| {
                let record = &self.records[id as usize];
                cursor = record.next;
                (BlockId(u64::from(id)), record)
            })
        })
    }
}

/// Paged KV-cache manager with prefix caching.
///
/// # Queue stamps and the eviction watermark
///
/// Every push onto the GPU free-block queue stamps the block with the next value of
/// a counter, and every eviction raises [`Self::evicted_below`] to one past the
/// evicted block's stamp.  The queue is in stamp order and evicts from its head, so
/// evictions pop strictly increasing stamps and the watermark only rises.
///
/// A cached block found with stamp `s` can leave the cache only through an
/// eviction, which pops it with a stamp of at least `s` (a pinned block keeps its
/// last stamp and is re-stamped higher when it is unpinned), and that eviction
/// lifts the watermark above `s`.  So while [`Self::evicted_below`] is at most the
/// lowest stamp a walk saw over a hit prefix, every block of that prefix is still
/// cached: [`Self::resume_cached_blocks_from_hashes`] returns that lowest stamp
/// beside the depth, and [`crate::ProbeCache`] keeps a depth across every eviction
/// that missed it.
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
    /// The prefix cache: each cached hash and the one block cached under it.
    cached: BlockMap<BlockId>,
    /// One record per block id, with the eviction order over the unreferenced
    /// cached blocks (oldest first) threaded through them.
    blocks: BlockTable,
    /// Bumped whenever a block is inserted into the prefix cache.
    commit_generation: u64,
    /// Bumped whenever a block is removed from the prefix cache.
    evict_generation: u64,
    /// One past the queue stamp of the last evicted block (0 before any eviction):
    /// every block evicted so far had a stamp below it.
    evicted_below: u64,
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
            cached: BlockMap::default(),
            blocks: BlockTable::new(),
            commit_generation: 0,
            evict_generation: 0,
            evicted_below: 0,
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

    /// The commit half of [`Self::generation`]: bumped only when a block *enters*
    /// the prefix cache.  While it is unchanged, no miss of a hash-chain walk can
    /// have turned into a hit.
    pub fn commit_generation(&self) -> u64 {
        self.commit_generation
    }

    /// The eviction watermark: one past the queue stamp of the last evicted block,
    /// 0 before any eviction (see the type docs).  Every block evicted so far had a
    /// stamp below it, so a prefix whose lowest stamp, as
    /// [`Self::resume_cached_blocks_from_hashes`] returned it, is at least this
    /// value is still cached in full.
    pub fn evicted_below(&self) -> u64 {
        self.evicted_below
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
        self.walk_hash_chain(hashes)
    }

    /// Per-tier prefix hits of a hash chain: the GPU-cached prefix, how far the CPU
    /// tier continues it, then how far the network tier continues *that*.  Each walk
    /// starts where the tier above stopped — blocks behind a miss in every upper tier
    /// are unreachable without recomputation, exactly as at allocation time.
    pub fn lookup_tier_hits_from_hashes(&self, hashes: &[TokenBlockHash]) -> TierHits {
        let gpu_blocks = self.walk_hash_chain(hashes);
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

    /// Resumes a hash-chain walk from a previously measured hit depth, and returns
    /// the new depth with the lowest queue stamp of the blocks it walked
    /// (`u64::MAX` when it walked none).
    ///
    /// Sound only while blocks `[0, prev_hit_blocks)` are all still cached, which
    /// holds while [`Self::evicted_below`] is at most the lowest stamp the walks that
    /// found them returned (see the type docs).  The walk then skips straight to
    /// block `prev_hit_blocks` instead of re-verifying the prefix.  This is what makes
    /// continuous JCT calibration (Algorithm 1) cheap at high queue depth — each
    /// scheduling step pays O(new hits) per waiting request instead of O(chain
    /// length).
    pub fn resume_cached_blocks_from_hashes(
        &self,
        hashes: &[TokenBlockHash],
        prev_hit_blocks: usize,
    ) -> (usize, u64) {
        debug_assert!(prev_hit_blocks <= hashes.len());
        debug_assert!(
            hashes
                .iter()
                .take(prev_hit_blocks)
                .all(|h| self.cached.contains_key(h)),
            "resume depth is stale: an eviction reached the previously hit prefix"
        );
        let mut hits = prev_hit_blocks;
        let mut min_stamp = u64::MAX;
        for hash in &hashes[prev_hit_blocks..] {
            let Some(&block) = self.cached.get(hash) else {
                break;
            };
            min_stamp = min_stamp.min(self.blocks.record(block).queued_at);
            hits += 1;
        }
        (hits, min_stamp)
    }

    /// Leading blocks of `hashes` in the prefix map: the walk of lookups and
    /// routing, which need no stamps.
    fn walk_hash_chain(&self, hashes: &[TokenBlockHash]) -> usize {
        hashes
            .iter()
            .take_while(|hash| self.cached.contains_key(hash))
            .count()
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

        // Phase 1: reuse cached prefix blocks.  The chain's first block comes from
        // the prefix map; each later one from its parent's child link when the
        // linked block is cached under exactly the next hash, and otherwise from one
        // map lookup, which re-points the link.  Touching a block both refreshes its
        // recency and pins it: an unreferenced block leaves the free-block queue
        // here and is appended again when the request commits or is released.
        let mut chain = Vec::with_capacity(hashes.len());
        for hash in hashes {
            let parent = chain.last().copied();
            let block = match parent.and_then(|parent| self.blocks.child(parent, *hash)) {
                Some(block) => block,
                None => {
                    let Some(&block) = self.cached.get(hash) else {
                        break;
                    };
                    if let Some(parent) = parent {
                        self.blocks.set_child(parent, block);
                    }
                    block
                }
            };
            if self.pool.ref_count(block) == Some(0) {
                self.blocks.remove(block);
            }
            self.blocks.record_mut(block).last_used = now;
            self.pool.add_ref(block);
            chain.push(block);
        }
        let reused = chain.len();
        let cached_tokens = (reused * self.block_size) as u64;

        // Phase 2: figure out how many new blocks we need.
        let new_full_needed = hashes.len() - reused;
        let partial_needed = u64::from(has_partial);
        let needed = new_full_needed as u64 + partial_needed;

        if policy == RetentionPolicy::FullResidency {
            let available = self.pool.free_blocks() + self.blocks.queued();
            if needed > available {
                // Roll back the references taken in phase 1, deepest first (the
                // refreshed timestamps stay, so the touched prefix re-enters the
                // queue as most recent).
                for &block in chain.iter().rev() {
                    if self.pool.dec_ref(block) == 0 {
                        self.blocks.push_back(block);
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
        let budget = self.pool.free_blocks() + self.blocks.queued();
        let cpu_tail = &hashes[reused..];
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
        // Each new block is readied under its hash and linked from its parent, so
        // the next allocation of the same chain follows the links.
        let capacity = self.pool.total_blocks();
        let mut exhausted = false;
        for hash in &hashes[reused..] {
            let Some(block) = self.pool.allocate() else {
                exhausted = true;
                break;
            };
            self.blocks.assign(block, *hash, capacity);
            if let Some(&parent) = chain.last() {
                self.blocks.set_child(parent, block);
            }
            chain.push(block);
        }
        let written = chain.len() - reused;
        let reloaded = (cpu_planned as usize).min(written);
        let net_reloaded = ((cpu_planned + net_planned) as usize).min(written) - reloaded;
        debug_assert_eq!(
            (reloaded + net_reloaded) as u64,
            cpu_planned + net_planned,
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
            chain,
            reused,
            reloaded,
            net_reloaded,
            partial,
            reloaded_bytes,
            net_reloaded_bytes,
            net_propagated_blocks,
            total_tokens,
            block_size: self.block_size,
        })
    }

    /// Completes a request: newly written full blocks — recomputed *and* reloaded
    /// (from either tier) — enter the prefix cache, the partial block is freed, and
    /// reused blocks drop back to being cached-only.  The chain's blocks join the
    /// free-block queue deepest first (the new blocks, then the reused prefix, each
    /// in reverse chain order), so the chain is evicted tail first.  The blocks are
    /// unpinned by id: only a new block entering the cache touches the prefix map.
    pub fn commit(&mut self, request: RequestKv, now: SimTime) {
        let (reused, written) = request.chain.split_at(request.reused);
        for &block in written.iter().rev() {
            if self.pool.dec_ref(block) == 0 {
                let hash = self.blocks.record(block).hash;
                if let std::collections::hash_map::Entry::Vacant(e) = self.cached.entry(hash) {
                    e.insert(block);
                    let record = self.blocks.record_mut(block);
                    record.cached = true;
                    record.last_used = now;
                    self.blocks.push_back(block);
                    self.stats.committed_blocks += 1;
                    self.commit_generation += 1;
                } else {
                    // A concurrent identical prefix already cached this content; drop
                    // the duplicate block.
                    self.pool.release(block);
                }
            }
        }
        for &block in reused.iter().rev() {
            let remaining = self.pool.dec_ref(block);
            let record = self.blocks.record_mut(block);
            debug_assert!(record.cached, "a pinned block is never evicted");
            record.last_used = now;
            if remaining == 0 {
                self.blocks.push_back(block);
            }
        }
        if let Some(block) = request.partial {
            if self.pool.dec_ref(block) == 0 {
                self.pool.release(block);
            }
        }
    }

    /// Abandons a request without caching anything (e.g. the request failed).  The
    /// reused prefix rejoins the free-block queue deepest first, at the tail, with
    /// the `last_used` its allocation gave it.
    pub fn release_uncommitted(&mut self, request: RequestKv) {
        let (reused, written) = request.chain.split_at(request.reused);
        for &block in reused.iter().rev() {
            if self.pool.dec_ref(block) == 0 {
                self.blocks.push_back(block);
            }
        }
        for &block in written.iter().chain(&request.partial) {
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
        while self.evict_lru_head().is_some() {}
    }

    /// Evicts the head of the free-block queue — drops it from the cache, frees its
    /// block and lifts the eviction watermark past its stamp — and returns its
    /// `(last_used, hash)`.  The only way a block leaves the prefix cache.
    fn evict_lru_head(&mut self) -> Option<(SimTime, TokenBlockHash)> {
        let block = self.blocks.pop_front()?;
        let record = self.blocks.record_mut(block);
        record.cached = false;
        let (last_used, hash) = (record.last_used, record.hash);
        self.evicted_below = record.queued_at + 1;
        let removed = self.cached.remove(&hash);
        debug_assert_eq!(removed, Some(block), "the table and the prefix map agree");
        self.pool.release(block);
        self.stats.evicted_blocks += 1;
        self.evict_generation += 1;
        Some((last_used, hash))
    }

    /// Publishes every reusable resident block into the installed network snapshot —
    /// the drain path of an instance leaving the fleet, so survivors inherit its
    /// work.  GPU-resident blocks spill unconditionally (they were committed prefix
    /// blocks, the strongest reuse evidence the hierarchy records) in free-block
    /// queue order; CPU-resident blocks follow in their own LRU order through the
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
        for (_, record) in self.blocks.queue() {
            let (written, evicted) =
                net.offload_spilled(std::slice::from_ref(&record.hash), record.last_used, now);
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
    /// O(1) per victim: the free-block queue already holds the eviction order.
    /// Spilled victims keep their GPU `last_used` timestamp, so each lower tier's
    /// LRU order extends the one above it (a block cold enough to leave the GPU is
    /// the first to leave the CPU, too).
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
            let Some((last_used, hash)) = self.evict_lru_head() else {
                break;
            };
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
            evicted += 1;
        }
        evicted
    }

    /// Test-only structural check of the block table.  The free-block queue's links
    /// agree both ways, its head and tail are the ends of the walk, its length is
    /// the walk's, and the queued blocks are exactly the unreferenced cached
    /// blocks.  Queue stamps strictly increase from head to tail, and none is below
    /// the eviction watermark.  Every record marked cached holds the hash the
    /// prefix map pairs with its block, and no other record claims to be cached.
    /// The table never holds more records than the pool has blocks.
    #[cfg(test)]
    pub(crate) fn assert_lru_invariant(&self) {
        use std::collections::BTreeSet;
        let table = &self.blocks;
        let mut walked = Vec::new();
        let mut prev = NIL;
        let mut cursor = table.head;
        while cursor != NIL {
            let record = &table.records[cursor as usize];
            assert_eq!(record.prev, prev, "prev link of block {cursor}");
            assert!(walked.len() as u64 <= table.queued, "the queue has a cycle");
            assert!(
                record.queued_at >= self.evicted_below,
                "block {cursor} is queued with stamp {} under the watermark {}",
                record.queued_at,
                self.evicted_below
            );
            assert!(
                record.queued_at < table.next_stamp,
                "block {cursor} holds a stamp no push wrote"
            );
            if prev != NIL {
                assert!(
                    table.records[prev as usize].queued_at < record.queued_at,
                    "stamps do not increase from head to tail at block {cursor}"
                );
            }
            walked.push(cursor);
            prev = cursor;
            cursor = record.next;
        }
        assert_eq!(table.tail, prev, "the tail ends the walk");
        assert_eq!(table.queued, walked.len() as u64, "queue length");
        let queued: BTreeSet<BlockId> = table.queue().map(|(block, _)| block).collect();
        assert_eq!(queued.len(), walked.len(), "a block is queued twice");
        let unreferenced: BTreeSet<BlockId> = self
            .cached
            .values()
            .copied()
            .filter(|&block| self.pool.ref_count(block) == Some(0))
            .collect();
        assert_eq!(
            queued, unreferenced,
            "the free-block queue is out of sync with the cache"
        );
        let mut cached_records = 0;
        for (id, record) in table.records.iter().enumerate() {
            if record.cached {
                cached_records += 1;
                assert_eq!(
                    self.cached.get(&record.hash),
                    Some(&BlockId(id as u64)),
                    "block {id} is marked cached under a hash the map pairs elsewhere"
                );
            }
        }
        assert_eq!(
            cached_records,
            self.cached.len(),
            "a block the map caches is not marked cached"
        );
        assert!(
            table.records.capacity() as u64 <= self.pool.total_blocks(),
            "the table outgrew the pool"
        );
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
        assert_eq!(
            m.resume_cached_blocks_from_hashes(&hashes, 0),
            (0, u64::MAX)
        );

        // Cache the 4-block prefix; a resumed walk from the old depth finds them.
        let a = m
            .allocate(&prefix, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(a, SimTime::ZERO);
        let full = m.lookup_cached_blocks_from_hashes(&hashes);
        assert_eq!(full, 4);
        assert_eq!(m.resume_cached_blocks_from_hashes(&hashes, 0).0, full);

        // Cache the whole chain; resuming from depth 4 walks only the new blocks.
        let b = m
            .allocate(
                &chain,
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        m.commit(b, SimTime::from_secs(1));
        assert_eq!(m.resume_cached_blocks_from_hashes(&hashes, full).0, 8);
        m.assert_lru_invariant();
    }

    /// The block table grows with the block-id high-water mark by doubling, so
    /// filling a pool reallocates it O(log capacity) times, and it never holds
    /// room for more records than the pool has blocks.
    #[test]
    fn block_table_grows_by_doubling_up_to_the_pool_capacity() {
        let mut m = KvCacheManager::new(1_000, 16);
        let mut capacities = Vec::new();
        for chain in 0..1_000u32 {
            let alloc = m
                .allocate(
                    &tokens(chain * 16, 16),
                    SimTime::ZERO,
                    RetentionPolicy::FullResidency,
                )
                .unwrap();
            m.commit(alloc, SimTime::ZERO);
            capacities.push(m.blocks.records.capacity());
        }
        capacities.dedup();
        assert_eq!(
            capacities,
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_000],
            "table capacities while the pool fills"
        );
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
        // the touched blocks to the free-block queue.
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

    /// Model check of the block table with allocations in flight, against two flat
    /// references: a plain `Vec` of hashes in the order their blocks became
    /// unreferenced, and map lookups for the blocks a walk pins.
    ///
    /// * A pin removes, an unpin appends, a commit appends deepest first (its new
    ///   blocks, then its reused prefix, each in reverse chain order), and an
    ///   eviction takes the front.
    /// * Up to eight allocations are held at once and finished out of order, by
    ///   commit or release, under both retention policies and coarse, repeating
    ///   timestamps: pins outlive other requests' evictions, commits land while a
    ///   second holder still pins a block, and full-residency failures roll their
    ///   pins back.
    /// * Three users' chains branch wherever one request's suffix leaves its user's
    ///   prefix, and evictions recycle block ids, so child links go stale.
    ///
    /// After every allocation the pinned block ids must equal the map lookups of
    /// the hit prefix, and every consecutive pair of the allocated chain must be
    /// linked.  After every operation the manager's queue must equal the reference
    /// and pass the structural check, and on every step that is not a release and
    /// whose `now` is not earlier than the newest queued `last_used`, a queue in
    /// `last_used` order must stay in it.  The scenario must reach every case
    /// above, and every kind of link a walk meets, or the test fails.
    #[test]
    fn free_block_queue_matches_a_flat_reference_with_requests_in_flight() {
        use std::collections::{BTreeSet, HashMap, HashSet};

        let (mut evictions, mut pinned_evictions, mut ordered_steps) = (0u64, 0u64, 0u64);
        let (mut rollbacks, mut shared_commits, mut releases) = (0u64, 0u64, 0u64);
        // Links met by walks: followed, re-pointed from a sibling continuation,
        // rejected because the linked block is no longer cached, rejected because
        // its id was recycled into another chain, and rejected at the end of a hit
        // prefix although the linked block holds the next hash (a new block of a
        // request still in flight).
        let (mut followed, mut branches, mut uncached) = (0u64, 0u64, 0u64);
        let (mut recycled, mut in_flight_links) = (0u64, 0u64);
        let stamps = |m: &KvCacheManager| -> Vec<SimTime> {
            m.blocks
                .queue()
                .map(|(_, record)| record.last_used)
                .collect()
        };
        let hashes_of = |m: &KvCacheManager, blocks: &[BlockId]| -> Vec<TokenBlockHash> {
            blocks
                .iter()
                .map(|&block| m.blocks.record(block).hash)
                .collect()
        };
        for seed in 0..10u64 {
            let mut rng = simcore::SimRng::seed_from_u64(0x4ea9 + seed);
            let mut m = KvCacheManager::new(rng.gen_range(64u64..160), 16);
            let mut in_flight: Vec<RequestKv> = Vec::new();
            let mut reference: Vec<TokenBlockHash> = Vec::new();
            // Each block hash ever allocated → the hash of the block before it.
            let mut parent_of: HashMap<TokenBlockHash, TokenBlockHash> = HashMap::new();
            for op in 0..360u32 {
                let now = SimTime::from_millis(u64::from(op / 4) + rng.gen_range(0u64..3));
                let before = stamps(&m);
                let ordered_before = before.is_sorted();
                let not_backwards = before.last().is_none_or(|&newest| now >= newest);
                let start =
                    in_flight.is_empty() || (in_flight.len() < 8 && rng.gen_range(0u32..100) < 55);
                let mut released = false;
                if start {
                    let user = rng.gen_range(0u32..3) * 1_000_000;
                    let mut chain: Vec<u32> = (user..user + rng.gen_range(1u32..24) * 16).collect();
                    let suffix = 500_000_000 + op * 1_000;
                    chain.extend(suffix..suffix + rng.gen_range(0u32..40));
                    let policy = if rng.gen_range(0u32..2) == 0 {
                        RetentionPolicy::FullResidency
                    } else {
                        RetentionPolicy::PrefixBestEffort
                    };
                    let hashes = kvcache_hashes(&chain, 16);
                    parent_of.extend(hashes.windows(2).map(|pair| (pair[1], pair[0])));
                    let hit_prefix: Vec<TokenBlockHash> = hashes
                        .iter()
                        .copied()
                        .take_while(|hash| m.cached.contains_key(hash))
                        .collect();
                    // The map-only walk: the blocks the allocation must pin.
                    let hit_blocks: Vec<BlockId> =
                        hit_prefix.iter().map(|hash| m.cached[hash]).collect();
                    for (depth, &parent) in hit_blocks.iter().enumerate() {
                        let child = m.blocks.record(parent).child;
                        let Some(target) = m.blocks.records.get(child as usize) else {
                            continue;
                        };
                        match hit_blocks.get(depth + 1) {
                            Some(&next) if BlockTable::link(next) == child => followed += 1,
                            Some(_) if !target.cached => uncached += 1,
                            Some(_) if parent_of.get(&target.hash) == Some(&hit_prefix[depth]) => {
                                branches += 1;
                            }
                            Some(_) => recycled += 1,
                            None if !target.cached
                                && hashes.get(depth + 1) == Some(&target.hash) =>
                            {
                                in_flight_links += 1;
                            }
                            None => {}
                        }
                    }
                    // Pins: the hit prefix's unreferenced blocks leave the queue.
                    let was_queued: HashSet<TokenBlockHash> = hit_prefix
                        .iter()
                        .copied()
                        .filter(|hash| reference.contains(hash))
                        .collect();
                    reference.retain(|hash| !was_queued.contains(hash));
                    let cached_before: Vec<TokenBlockHash> = m.cached.keys().copied().collect();
                    let evicted_before = m.stats().evicted_blocks;
                    match m.allocate(&chain, now, policy) {
                        Ok(alloc) => {
                            assert_eq!(
                                &alloc.chain[..alloc.reused],
                                &hit_blocks[..],
                                "seed {seed} op {op}: pinned blocks"
                            );
                            assert_eq!(
                                hashes_of(&m, &alloc.chain),
                                hashes[..alloc.chain.len()],
                                "seed {seed} op {op}: the records hold the chain's hashes"
                            );
                            for pair in alloc.chain.windows(2) {
                                assert_eq!(
                                    m.blocks.record(pair[0]).child,
                                    BlockTable::link(pair[1]),
                                    "seed {seed} op {op}: chain link"
                                );
                            }
                            let evicted: BTreeSet<TokenBlockHash> = cached_before
                                .into_iter()
                                .filter(|hash| !m.cached.contains_key(hash))
                                .collect();
                            let count = m.stats().evicted_blocks - evicted_before;
                            assert_eq!(evicted.len() as u64, count, "seed {seed} op {op}");
                            let expected: BTreeSet<TokenBlockHash> =
                                reference.drain(..count as usize).collect();
                            assert_eq!(evicted, expected, "seed {seed} op {op}: victims");
                            evictions += count;
                            if count > 0 && in_flight.iter().any(|held| held.reused > 0) {
                                pinned_evictions += 1;
                            }
                            in_flight.push(alloc);
                        }
                        Err(_) => {
                            assert_eq!(m.stats().evicted_blocks, evicted_before);
                            // The rollback unpins deepest first.
                            reference.extend(
                                hit_prefix
                                    .iter()
                                    .rev()
                                    .filter(|hash| was_queued.contains(hash)),
                            );
                            rollbacks += 1;
                        }
                    }
                } else {
                    let alloc = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                    let held: HashSet<TokenBlockHash> = in_flight
                        .iter()
                        .flat_map(|other| hashes_of(&m, &other.chain[..other.reused]))
                        .collect();
                    let (reused, written) = alloc.chain.split_at(alloc.reused);
                    let unpinned: Vec<TokenBlockHash> = hashes_of(&m, reused)
                        .into_iter()
                        .rev()
                        .filter(|hash| !held.contains(hash))
                        .collect();
                    if rng.gen_range(0u32..4) == 0 {
                        reference.extend(unpinned);
                        m.release_uncommitted(alloc);
                        released = true;
                        releases += 1;
                    } else {
                        // A new block is cached (and queued) unless its hash already
                        // is; the reused prefix follows it.
                        let fresh: Vec<TokenBlockHash> = hashes_of(&m, written)
                            .into_iter()
                            .rev()
                            .filter(|hash| !m.cached.contains_key(hash))
                            .collect();
                        reference.extend(fresh);
                        if unpinned.len() < reused.len() {
                            shared_commits += 1;
                        }
                        reference.extend(unpinned);
                        m.commit(alloc, now);
                    }
                }
                m.assert_lru_invariant();
                let queue: Vec<TokenBlockHash> =
                    m.blocks.queue().map(|(_, record)| record.hash).collect();
                assert_eq!(queue, reference, "seed {seed} op {op}: queue order");
                if ordered_before && not_backwards && !released {
                    assert!(
                        stamps(&m).is_sorted(),
                        "seed {seed} op {op}: queue order left last_used order"
                    );
                    ordered_steps += 1;
                }
            }
        }
        assert!(
            evictions > 0 && pinned_evictions > 0,
            "no eviction behind a pin"
        );
        assert!(rollbacks > 0, "no full-residency rollback");
        assert!(shared_commits > 0, "no commit under a second holder's pin");
        assert!(releases > 0, "no release");
        assert!(
            ordered_steps >= 100,
            "only {ordered_steps} steps checked for last_used order"
        );
        assert!(followed > 0, "no child link followed");
        assert!(branches > 0, "no link re-pointed at a branch");
        assert!(uncached > 0, "no stale link to an evicted block rejected");
        assert!(
            recycled > 0,
            "no stale link to a recycled block id rejected"
        );
        assert!(
            in_flight_links > 0,
            "no link to an uncommitted block under the next hash rejected"
        );
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
        // Evict only part of the chain: a 4-block request displaces A's 4 deepest
        // blocks, because a committed chain leaves the GPU tail first.
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
    fn a_committed_chain_is_evicted_tail_first() {
        let mut m = KvCacheManager::with_offload(8, 16, 1 << 30, CPU_BLOCK_BYTES);
        let chain = tokens(0, 128);
        let a = m
            .allocate(&chain, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        m.commit(a, SimTime::ZERO);
        // Every block of the chain shares one `last_used`; the four victims of a
        // 4-block request must still be its four deepest blocks.
        let b = m
            .allocate(
                &tokens(9_000, 64),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        let hits = m.lookup_tier_hits_from_hashes(&hash_token_blocks(&chain, 16));
        assert_eq!((hits.gpu_blocks, hits.cpu_blocks), (4, 4));
        m.commit(b, SimTime::from_secs(1));
        m.assert_lru_invariant();
    }

    /// Eviction order does not depend on hash values: one scripted run over the
    /// chains' real hashes and one over the same hashes relabelled by
    /// `reverse_bits` (a bijection that scrambles their order) must evict the same
    /// blocks, identified by (chain, depth), and agree on every statistic and every
    /// lookup after every operation.  Coarse timestamps make whole chains tie on
    /// `last_used`, and up to four allocations are held at once.
    #[test]
    fn victims_do_not_depend_on_hash_values() {
        let relabel = |hash: TokenBlockHash| TokenBlockHash(hash.0.reverse_bits());
        let mut partial_evictions = 0u64;
        for seed in 0..8u64 {
            let mut rng = simcore::SimRng::seed_from_u64(0x7a11 + seed);
            let capacity = rng.gen_range(24u64..96);
            let mut plain = KvCacheManager::new(capacity, 16);
            let mut relabelled = KvCacheManager::new(capacity, 16);
            let mut chains: Vec<Vec<TokenBlockHash>> = Vec::new();
            let mut in_flight: Vec<(RequestKv, RequestKv)> = Vec::new();
            for op in 0..240u32 {
                let now = SimTime::from_millis(u64::from(op / 8) * 10);
                if in_flight.is_empty() || (in_flight.len() < 4 && rng.gen_range(0u32..2) == 0) {
                    let user = rng.gen_range(0u32..4) * 1_000_000;
                    let mut chain: Vec<u32> = (user..user + rng.gen_range(1u32..20) * 16).collect();
                    let suffix = 500_000_000 + op * 1_000;
                    chain.extend(suffix..suffix + rng.gen_range(0u32..48));
                    let policy = if rng.gen_range(0u32..2) == 0 {
                        RetentionPolicy::FullResidency
                    } else {
                        RetentionPolicy::PrefixBestEffort
                    };
                    let hashes = hash_token_blocks(&chain, 16);
                    let renamed: Vec<TokenBlockHash> = hashes.iter().map(|&h| relabel(h)).collect();
                    let total = chain.len() as u64;
                    let a = plain.allocate_from_hashes(&hashes, total, now, policy);
                    let b = relabelled.allocate_from_hashes(&renamed, total, now, policy);
                    assert_eq!(a.is_ok(), b.is_ok(), "seed {seed} op {op}: outcome");
                    if let (Ok(a), Ok(b)) = (a, b) {
                        in_flight.push((a, b));
                    }
                    chains.push(hashes);
                } else {
                    let (a, b) = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                    if rng.gen_range(0u32..4) == 0 {
                        plain.release_uncommitted(a);
                        relabelled.release_uncommitted(b);
                    } else {
                        plain.commit(a, now);
                        relabelled.commit(b, now);
                    }
                }
                assert_eq!(plain.stats(), relabelled.stats(), "seed {seed} op {op}");
                for (index, chain) in chains.iter().enumerate() {
                    let renamed: Vec<TokenBlockHash> = chain.iter().map(|&h| relabel(h)).collect();
                    assert_eq!(
                        plain.lookup_cached_blocks_from_hashes(chain),
                        relabelled.lookup_cached_blocks_from_hashes(&renamed),
                        "seed {seed} op {op}: lookup of chain {index}"
                    );
                    for (depth, (hash, renamed)) in chain.iter().zip(&renamed).enumerate() {
                        assert_eq!(
                            plain.cached.contains_key(hash),
                            relabelled.cached.contains_key(renamed),
                            "seed {seed} op {op}: chain {index} block {depth}"
                        );
                    }
                    let resident = chain
                        .iter()
                        .filter(|h| plain.cached.contains_key(h))
                        .count();
                    if resident > 0 && resident < chain.len() {
                        partial_evictions += 1;
                    }
                }
            }
            assert!(
                plain.stats().evicted_blocks > 0,
                "seed {seed}: nothing evicted"
            );
        }
        assert!(partial_evictions > 0, "no chain was ever partly evicted");
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
