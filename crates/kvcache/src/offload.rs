//! CPU-side KV offloading (the §9 "Offloading the KV caches to CPU" extension).
//!
//! The published PrefillOnly *discards* the KV cache of suffix tokens that do not fit in
//! GPU memory, which forfeits any chance of reusing that computation later.  §9 points
//! out that the same mechanism could instead *offload* those blocks to CPU memory (à la
//! LMCache / SGLang's hierarchical cache) and reload them over PCIe when a future
//! request shares the prefix.  This module provides that CPU tier: a capacity-bounded,
//! LRU-evicted map from block-content hashes to block-sized KV entries, plus the byte
//! accounting the engine needs to decide whether reloading is cheaper than recomputing.
//!
//! The pool orders its residents by `(last_used, hash)` in an indexed binary
//! min-heap, so LRU eviction is O(log n) *and* fully deterministic (ties in
//! `last_used` break on the hash, never on map iteration order — a requirement of
//! the byte-identical parallel replay).  The heap's root is the next victim:
//!
//! * a spill into a full pool overwrites the root's record with the new entry and
//!   sifts it down once, so an eviction and its replacement cost one sift;
//! * a spill into a pool with room pushes a record and sifts it up;
//! * a reload or a duplicate spill only ever moves a record's `last_used` forward,
//!   so it sifts the record down from where the slot table says it sits.
//!
//! Hashes are unique among the residents, so `(last_used, hash)` orders them
//! totally: the root is the one entry an ordered set's first element would be, and
//! every victim the heap picks is the one a `BTreeSet` of the same keys would pop.
//! The heap's key is the one place that order is defined.
//!
//! The GPU-tier [`KvCacheManager`](crate::KvCacheManager) orders its victims
//! differently: by when each block became unreferenced, through a free-block queue
//! whose pins, unpins and evictions are O(1).  Spills arrive here in that order,
//! each with the `last_used` it had on the GPU.  The pool also
//! exposes a [`CpuKvPool::generation`] counter that changes exactly when the pool's
//! *contents* change, which lets the scheduler's probe memoisation extend to the CPU
//! tier.

use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::hash::{BlockMap, TokenBlockHash};

/// Statistics of the offload tiers (CPU and, when enabled, the cluster-shared
/// network tier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffloadStats {
    /// Blocks written to CPU memory.
    pub offloaded_blocks: u64,
    /// Blocks evicted from CPU memory to make room.
    pub evicted_blocks: u64,
    /// Blocks served back to the GPU from CPU memory.
    pub reloaded_blocks: u64,
    /// Bytes that crossed the host link to serve reloads.
    pub reloaded_bytes: u64,
    /// CPU-tier eviction victims admitted into the network tier.
    pub net_offloaded_blocks: u64,
    /// CPU-tier eviction victims the single-use spill filter kept out of the network
    /// tier (blocks whose content was never reused — sharing them would only thrash).
    pub net_filtered_blocks: u64,
    /// Blocks evicted from the network tier to make room.
    pub net_evicted_blocks: u64,
    /// Blocks served back to the GPU from the network tier.
    pub net_reloaded_blocks: u64,
    /// Bytes that crossed the network link to serve reloads.
    pub net_reloaded_bytes: u64,
    /// The subset of `net_reloaded_blocks` that was only visible thanks to
    /// mid-window propagation (`net_propagation_ms > 0`): blocks spilled by another
    /// instance *within* the current replay window, which the window-boundary-only
    /// sharing model would have recomputed.
    pub net_propagated_reload_blocks: u64,
    /// Blocks the per-request reload policy chose to *recompute* instead of reload
    /// (the modelled transfer exceeded the modelled recompute saving).
    pub declined_reload_blocks: u64,
    /// Prefill→decode KV handoffs enqueued on the fabric (disaggregated fleets).
    pub handoff_records: u64,
    /// Bytes of reserved KV chains that crossed the fabric in those handoffs.
    pub handoff_bytes: u64,
}

impl OffloadStats {
    /// Merges another tier's statistics into this one (cluster-level aggregation).
    pub fn merge(&mut self, other: &OffloadStats) {
        self.offloaded_blocks += other.offloaded_blocks;
        self.evicted_blocks += other.evicted_blocks;
        self.reloaded_blocks += other.reloaded_blocks;
        self.reloaded_bytes += other.reloaded_bytes;
        self.net_offloaded_blocks += other.net_offloaded_blocks;
        self.net_filtered_blocks += other.net_filtered_blocks;
        self.net_evicted_blocks += other.net_evicted_blocks;
        self.net_reloaded_blocks += other.net_reloaded_blocks;
        self.net_reloaded_bytes += other.net_reloaded_bytes;
        self.net_propagated_reload_blocks += other.net_propagated_reload_blocks;
        self.declined_reload_blocks += other.declined_reload_blocks;
        self.handoff_records += other.handoff_records;
        self.handoff_bytes += other.handoff_bytes;
    }
}

/// One CPU-tier eviction, reported back to the owning manager so it can cascade the
/// victim into the network tier (subject to the single-use spill filter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuEviction {
    /// Content hash of the evicted block.
    pub hash: TokenBlockHash,
    /// The entry's recency at eviction time (carried down the hierarchy, so the net
    /// tier's LRU order extends the CPU tier's).
    pub last_used: SimTime,
    /// How many times the block's content proved reusable while CPU-resident: 1 for
    /// the initial spill, +1 for every reload or re-spill of the same content.  A
    /// value of 1 marks a single-use suffix block.
    pub uses: u32,
}

/// One resident entry's record in the pool's slot table.
#[derive(Debug, Clone, Copy)]
struct CpuSlot {
    hash: TokenBlockHash,
    last_used: SimTime,
    /// Reuse evidence for the single-use spill filter (see [`CpuEviction::uses`]).
    uses: u32,
    /// Where the record's slot id sits in the heap.
    position: u32,
}

impl CpuSlot {
    /// The eviction order's key: the smallest key is the next victim.
    fn key(&self) -> (SimTime, TokenBlockHash) {
        (self.last_used, self.hash)
    }

    fn eviction(&self) -> CpuEviction {
        CpuEviction {
            hash: self.hash,
            last_used: self.last_used,
            uses: self.uses,
        }
    }
}

/// A capacity-bounded CPU-memory pool of offloaded KV blocks.
///
/// Residents live in a slot table ordered by an indexed binary min-heap on
/// `(last_used, hash)`:
///
/// * `slots` holds one record per resident; a record never moves, and its slot id
///   is its index;
/// * `heap` holds the slot ids, each parent's key below its children's, so the
///   root names the least recently used entry;
/// * `slot_of` maps each resident hash to its slot id.
///
/// The pool only evicts to make room for a new entry, and the new entry takes the
/// victim's slot, so the table never has holes.  Both vectors grow by doubling but
/// never past the capacity: a pool sized for a large tier allocates nothing up
/// front.
///
/// ```
/// use kvcache::{hash_token_blocks, CpuKvPool};
/// use simcore::SimTime;
///
/// let block_bytes = 16 * 128 * 1024;
/// let mut pool = CpuKvPool::new(1 << 30, block_bytes);
/// let tokens: Vec<u32> = (0..160).collect();
/// let hashes = hash_token_blocks(&tokens, 16);
/// assert_eq!(pool.offload(&hashes, SimTime::ZERO), 10);
/// assert_eq!(pool.lookup_prefix_blocks(&hashes), 10);
/// let bytes = pool.reload_prefix(&hashes, 10, SimTime::from_secs(1));
/// assert_eq!(bytes, 10 * block_bytes);
/// ```
#[derive(Debug, Clone)]
pub struct CpuKvPool {
    block_bytes: u64,
    capacity_blocks: u64,
    /// Resident hash → slot id.
    slot_of: BlockMap<u32>,
    /// One record per resident, indexed by slot id.
    slots: Vec<CpuSlot>,
    /// Slot ids as a binary min-heap on their records' `(last_used, hash)`.
    heap: Vec<u32>,
    /// Bumped whenever an entry is inserted or removed (recency refreshes do not
    /// count: they change eviction order, not which prefixes hit).
    generation: u64,
    stats: OffloadStats,
}

impl CpuKvPool {
    /// Creates a pool of `capacity_bytes` of CPU memory holding blocks of
    /// `block_bytes` each (all layers of one token-block).
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub fn new(capacity_bytes: u64, block_bytes: u64) -> CpuKvPool {
        assert!(block_bytes > 0, "block size in bytes must be positive");
        CpuKvPool {
            block_bytes,
            capacity_blocks: capacity_bytes / block_bytes,
            slot_of: BlockMap::default(),
            slots: Vec::new(),
            heap: Vec::new(),
            generation: 0,
            stats: OffloadStats::default(),
        }
    }

    /// Bytes of KV held per block.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Maximum number of blocks the pool can hold.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Number of blocks currently offloaded.
    pub fn resident_blocks(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Bytes currently occupied in CPU memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_blocks() * self.block_bytes
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> OffloadStats {
        self.stats
    }

    /// Monotonically increasing counter that changes exactly when the pool *contents*
    /// change (an entry is inserted or evicted).  While it is unchanged, every
    /// [`Self::lookup_prefix_blocks`] answer remains valid, so probe memoisation can
    /// skip re-walking the CPU tier.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Refreshes the recency of the entry in `slot`, never moving it backwards: a
    /// spill of a stale GPU duplicate carries the victim's old `last_used`, and must
    /// not demote a CPU entry that a recent reload already marked hot.  Every touch —
    /// recency-advancing or not — counts as reuse evidence for the spill filter.
    fn touch(&mut self, slot: u32, now: SimTime) {
        let record = &mut self.slots[slot as usize];
        record.uses = record.uses.saturating_add(1);
        if record.last_used < now {
            record.last_used = now;
            let position = record.position;
            self.sift_down(position as usize);
        }
    }

    /// Offloads the given block-hash chain (typically the evicted suffix of a
    /// request), evicting the least-recently-used entries if the pool is full.
    ///
    /// Returns the number of blocks actually written (existing entries are refreshed,
    /// not duplicated).  Evicted residents are discarded; use
    /// [`Self::offload_with_evictions`] to cascade them into a lower tier.
    pub fn offload(&mut self, hashes: &[TokenBlockHash], now: SimTime) -> u64 {
        self.offload_with_evictions(hashes, now, |_| {})
    }

    /// Like [`Self::offload`], but reports every evicted resident to `on_evict` so
    /// the caller can spill it one tier down (the CPU→network cascade of the
    /// three-tier hierarchy).
    pub fn offload_with_evictions(
        &mut self,
        hashes: &[TokenBlockHash],
        now: SimTime,
        mut on_evict: impl FnMut(CpuEviction),
    ) -> u64 {
        if self.capacity_blocks == 0 {
            return 0;
        }
        let mut written = 0;
        for &hash in hashes {
            if let Some(&slot) = self.slot_of.get(&hash) {
                self.touch(slot, now);
                continue;
            }
            let record = CpuSlot {
                hash,
                last_used: now,
                uses: 1,
                position: 0,
            };
            if self.resident_blocks() >= self.capacity_blocks {
                // The new entry takes the victim's slot at the root, then sinks.
                let slot = self.heap[0];
                let victim = std::mem::replace(&mut self.slots[slot as usize], record);
                self.slot_of.remove(&victim.hash);
                self.generation += 1;
                self.stats.evicted_blocks += 1;
                on_evict(victim.eviction());
                self.slot_of.insert(hash, slot);
                self.sift_down(0);
            } else {
                let slot =
                    u32::try_from(self.slots.len()).expect("slot ids fit the heap's u32 links");
                push_within(&mut self.slots, record, self.capacity_blocks);
                push_within(&mut self.heap, slot, self.capacity_blocks);
                self.slot_of.insert(hash, slot);
                self.sift_up(self.heap.len() - 1);
            }
            self.generation += 1;
            self.stats.offloaded_blocks += 1;
            written += 1;
        }
        written
    }

    /// Every resident entry in eviction order — oldest `(last_used, hash)` first —
    /// carrying the same reuse evidence an eviction would report (see
    /// [`CpuEviction::uses`]).  The drain path of an instance leaving the fleet walks
    /// this to push the tier's reusable contents through the single-use spill filter
    /// without disturbing the pool.  Sorts a copy of the records: the heap keeps
    /// only its root in order.
    pub fn lru_entries(&self) -> impl Iterator<Item = CpuEviction> + '_ {
        let mut records = self.slots.clone();
        records.sort_unstable_by_key(CpuSlot::key);
        records.into_iter().map(|record| record.eviction())
    }

    /// Returns how many *leading* blocks of `hashes` are present in CPU memory (the
    /// reloadable prefix).
    pub fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        let mut hits = 0;
        for hash in hashes {
            if self.slot_of.contains_key(hash) {
                hits += 1;
            } else {
                break;
            }
        }
        hits
    }

    /// Marks the leading `blocks` blocks of `hashes` as reloaded to the GPU (refreshing
    /// their recency) and returns the number of bytes that must cross the CPU-GPU link.
    ///
    /// The CPU copy is retained — a reload is a host→device *copy*, so the entry can
    /// serve later requests even after the GPU-side blocks are evicted again.
    pub fn reload_prefix(&mut self, hashes: &[TokenBlockHash], blocks: u64, now: SimTime) -> u64 {
        let blocks = blocks.min(hashes.len() as u64);
        let mut bytes = 0;
        for hash in &hashes[..blocks as usize] {
            if let Some(&slot) = self.slot_of.get(hash) {
                self.touch(slot, now);
                self.stats.reloaded_blocks += 1;
                bytes += self.block_bytes;
            }
        }
        self.stats.reloaded_bytes += bytes;
        bytes
    }

    /// The key of the record whose slot id sits at heap `position`.
    fn key_at(&self, position: usize) -> (SimTime, TokenBlockHash) {
        self.slots[self.heap[position] as usize].key()
    }

    /// Puts `slot` at heap `position` and records the position in its record.
    fn place(&mut self, position: usize, slot: u32) {
        self.heap[position] = slot;
        self.slots[slot as usize].position = position as u32;
    }

    /// Restores the heap order after the key at `position` decreased (or arrived).
    fn sift_up(&mut self, mut position: usize) {
        let slot = self.heap[position];
        let key = self.slots[slot as usize].key();
        while position > 0 {
            let parent = (position - 1) / 2;
            if self.key_at(parent) < key {
                break;
            }
            self.place(position, self.heap[parent]);
            position = parent;
        }
        self.place(position, slot);
    }

    /// Restores the heap order after the key at `position` increased.
    fn sift_down(&mut self, mut position: usize) {
        let slot = self.heap[position];
        let key = self.slots[slot as usize].key();
        let len = self.heap.len();
        loop {
            let left = 2 * position + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.key_at(right) < self.key_at(left) {
                right
            } else {
                left
            };
            if key < self.key_at(child) {
                break;
            }
            self.place(position, self.heap[child]);
            position = child;
        }
        self.place(position, slot);
    }

    /// Test-only structural check of the slot table and its heap.  Every parent's
    /// key is below its children's, each record's position names the heap entry
    /// holding its slot id, the heap holds every slot id once, the map pairs each
    /// resident hash with the slot whose record holds it, and neither vector holds
    /// room for more records than the pool has blocks.
    #[cfg(test)]
    fn assert_lru_invariant(&self) {
        assert_eq!(
            self.heap.len(),
            self.slots.len(),
            "one heap entry per record"
        );
        assert_eq!(
            self.slot_of.len(),
            self.slots.len(),
            "one map entry per record"
        );
        let mut seen = vec![false; self.slots.len()];
        for (position, &slot) in self.heap.iter().enumerate() {
            let record = &self.slots[slot as usize];
            assert_eq!(
                record.position as usize, position,
                "slot {slot} disagrees with its heap position"
            );
            assert!(
                !std::mem::replace(&mut seen[slot as usize], true),
                "slot {slot} sits twice in the heap"
            );
            if position > 0 {
                assert!(
                    self.key_at((position - 1) / 2) < record.key(),
                    "heap order broken at position {position}"
                );
            }
            assert_eq!(
                self.slot_of.get(&record.hash),
                Some(&slot),
                "the map disagrees with slot {slot}"
            );
        }
        assert!(
            self.slots.capacity() as u64 <= self.capacity_blocks
                && self.heap.capacity() as u64 <= self.capacity_blocks,
            "storage for {} records and {} heap entries exceeds the capacity of {} blocks",
            self.slots.capacity(),
            self.heap.capacity(),
            self.capacity_blocks
        );
    }
}

/// Appends `value` to `items`, growing its storage by doubling but never past
/// `capacity` elements (the pool's blocks).
fn push_within<T>(items: &mut Vec<T>, value: T, capacity: u64) {
    if items.len() == items.capacity() {
        let grown = (2 * items.capacity())
            .min(capacity as usize)
            .max(items.len() + 1);
        items.reserve_exact(grown - items.len());
    }
    items.push(value);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use simcore::SimRng;

    use super::*;
    use crate::hash::hash_token_blocks;

    const BLOCK_TOKENS: usize = 16;
    const BLOCK_BYTES: u64 = 16 * 128 * 1024; // 16 tokens x 128 KiB/token (Llama-8B).

    fn hashes(start: u32, tokens: usize) -> Vec<TokenBlockHash> {
        let toks: Vec<u32> = (start..start + tokens as u32).collect();
        hash_token_blocks(&toks, BLOCK_TOKENS)
    }

    #[test]
    fn offload_and_lookup_round_trip() {
        let mut pool = CpuKvPool::new(1 << 30, BLOCK_BYTES);
        let chain = hashes(0, 1_600);
        assert_eq!(pool.lookup_prefix_blocks(&chain), 0);
        let written = pool.offload(&chain, SimTime::ZERO);
        assert_eq!(written, 100);
        assert_eq!(pool.resident_blocks(), 100);
        assert_eq!(pool.lookup_prefix_blocks(&chain), 100);
        assert_eq!(pool.resident_bytes(), 100 * BLOCK_BYTES);
        pool.assert_lru_invariant();
    }

    #[test]
    fn duplicate_offloads_do_not_grow_the_pool() {
        let mut pool = CpuKvPool::new(1 << 30, BLOCK_BYTES);
        let chain = hashes(0, 320);
        pool.offload(&chain, SimTime::ZERO);
        let generation = pool.generation();
        let written_again = pool.offload(&chain, SimTime::from_secs(1));
        assert_eq!(written_again, 0);
        assert_eq!(pool.resident_blocks(), 20);
        assert_eq!(pool.stats().offloaded_blocks, 20);
        assert_eq!(
            pool.generation(),
            generation,
            "recency refreshes do not change the contents"
        );
        pool.assert_lru_invariant();
    }

    #[test]
    fn lru_eviction_under_capacity_pressure() {
        // Capacity of 10 blocks; two 8-block chains cannot both stay resident.
        let mut pool = CpuKvPool::new(10 * BLOCK_BYTES, BLOCK_BYTES);
        let a = hashes(0, 128);
        let b = hashes(10_000, 128);
        pool.offload(&a, SimTime::ZERO);
        pool.offload(&b, SimTime::from_secs(1));
        assert_eq!(pool.resident_blocks(), 10);
        assert!(pool.stats().evicted_blocks >= 6);
        // The younger chain is fully resident; the older one lost its head blocks.
        assert_eq!(pool.lookup_prefix_blocks(&b), 8);
        assert!(pool.lookup_prefix_blocks(&a) < 8);
        pool.assert_lru_invariant();
    }

    #[test]
    fn eviction_order_is_deterministic_under_timestamp_ties() {
        // Every entry shares one timestamp: victims must come out in hash order, the
        // same on every run (the entry map's iteration order must never leak through).
        let chain = hashes(0, 8 * BLOCK_TOKENS);
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        for _ in 0..4 {
            let mut pool = CpuKvPool::new(8 * BLOCK_BYTES, BLOCK_BYTES);
            pool.offload(&chain, SimTime::ZERO);
            // Push two fresh blocks; exactly the two smallest hashes must be evicted.
            pool.offload(&hashes(1_000_000, 2 * BLOCK_TOKENS), SimTime::from_secs(1));
            for victim in &sorted[..2] {
                assert_eq!(pool.lookup_prefix_blocks(std::slice::from_ref(victim)), 0);
            }
            pool.assert_lru_invariant();
        }
    }

    #[test]
    fn reload_accounts_transfer_bytes_and_recency() {
        let mut pool = CpuKvPool::new(1 << 30, BLOCK_BYTES);
        let chain = hashes(0, 800);
        pool.offload(&chain, SimTime::ZERO);
        let bytes = pool.reload_prefix(&chain, 30, SimTime::from_secs(5));
        assert_eq!(bytes, 30 * BLOCK_BYTES);
        assert_eq!(pool.stats().reloaded_blocks, 30);
        assert_eq!(pool.stats().reloaded_bytes, 30 * BLOCK_BYTES);
        // Asking for more blocks than the chain has is clamped.
        let bytes = pool.reload_prefix(&chain, 10_000, SimTime::from_secs(6));
        assert_eq!(bytes, 50 * BLOCK_BYTES);
        pool.assert_lru_invariant();
    }

    #[test]
    fn reload_charges_only_resident_blocks() {
        let mut pool = CpuKvPool::new(1 << 30, BLOCK_BYTES);
        let chain = hashes(0, 320);
        pool.offload(&chain[..10], SimTime::ZERO);
        // Asking to reload 20 blocks when only 10 are resident charges 10.
        let bytes = pool.reload_prefix(&chain, 20, SimTime::from_secs(1));
        assert_eq!(bytes, 10 * BLOCK_BYTES);
        assert_eq!(pool.stats().reloaded_blocks, 10);
    }

    #[test]
    fn zero_capacity_pool_is_inert() {
        let mut pool = CpuKvPool::new(0, BLOCK_BYTES);
        let chain = hashes(0, 160);
        assert_eq!(pool.offload(&chain, SimTime::ZERO), 0);
        assert_eq!(pool.resident_blocks(), 0);
        assert_eq!(pool.lookup_prefix_blocks(&chain), 0);
        assert_eq!(pool.generation(), 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_bytes_panics() {
        CpuKvPool::new(1 << 20, 0);
    }

    #[test]
    fn evictions_report_reuse_evidence_for_the_spill_filter() {
        // Pool of 4 blocks.  Chain A is spilled, reloaded (reuse) and re-spilled;
        // chain B is spilled once and never referenced again (single-use suffix).
        let mut pool = CpuKvPool::new(4 * BLOCK_BYTES, BLOCK_BYTES);
        let a = hashes(0, 2 * BLOCK_TOKENS);
        let b = hashes(10_000, 2 * BLOCK_TOKENS);
        pool.offload(&a, SimTime::ZERO);
        pool.reload_prefix(&a, 2, SimTime::from_secs(1));
        pool.offload(&a, SimTime::from_secs(2)); // re-spill refresh
        pool.offload(&b, SimTime::from_secs(3));

        // Four fresh blocks displace everything; A's victims carry uses >= 3, B's
        // exactly 1.
        let mut evictions = Vec::new();
        pool.offload_with_evictions(
            &hashes(500_000, 4 * BLOCK_TOKENS),
            SimTime::from_secs(4),
            |e| evictions.push(e),
        );
        assert_eq!(evictions.len(), 4);
        for eviction in &evictions {
            if a.contains(&eviction.hash) {
                assert!(eviction.uses >= 3, "reused block must carry its evidence");
            } else {
                assert!(b.contains(&eviction.hash));
                assert_eq!(eviction.uses, 1, "single-use block stays at 1");
            }
        }
        pool.assert_lru_invariant();
    }

    /// The slot table and the heap grow with the resident count by doubling, so
    /// filling a pool reallocates them O(log capacity) times, and neither holds
    /// room for more records than the pool has blocks.
    #[test]
    fn storage_grows_by_doubling_up_to_the_pool_capacity() {
        let mut pool = CpuKvPool::new(1_000 * BLOCK_BYTES, BLOCK_BYTES);
        let mut capacities = Vec::new();
        for hash in hashes(0, 1_200 * BLOCK_TOKENS) {
            pool.offload(&[hash], SimTime::ZERO);
            assert_eq!(pool.slots.capacity(), pool.heap.capacity());
            capacities.push(pool.slots.capacity());
        }
        capacities.dedup();
        assert_eq!(
            capacities,
            [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_000],
            "storage capacities while the pool fills and then evicts"
        );
        assert_eq!(pool.resident_blocks(), 1_000);
        pool.assert_lru_invariant();
    }

    /// What the model check saw happen, so it can prove it exercised the orders
    /// that only the hash tie-break or the no-demotion rule decide.
    #[derive(Default)]
    struct Coverage {
        /// Evictions whose victim shared its `last_used` with another resident.
        tie_broken_evictions: u64,
        /// Touches carrying a `last_used` older than the resident's.
        non_demoting_refreshes: u64,
        /// Spills of an already-resident hash.
        re_spills: u64,
    }

    /// The flat reference of the CPU tier: an entry map whose victim is found by a
    /// min-scan over `(last_used, hash)`, as `ShadowTiers::spill` in
    /// `tests/hierarchy.rs` specifies it.
    struct FlatPool {
        capacity: u64,
        /// `hash → (last_used, uses)`.
        entries: HashMap<TokenBlockHash, (SimTime, u32)>,
        generation: u64,
        stats: OffloadStats,
    }

    impl FlatPool {
        fn touch(&mut self, hash: TokenBlockHash, now: SimTime, coverage: &mut Coverage) -> bool {
            let Some((last_used, uses)) = self.entries.get_mut(&hash) else {
                return false;
            };
            *uses += 1;
            if now < *last_used {
                coverage.non_demoting_refreshes += 1;
            }
            *last_used = (*last_used).max(now);
            true
        }

        fn offload(
            &mut self,
            hashes: &[TokenBlockHash],
            now: SimTime,
            evictions: &mut Vec<CpuEviction>,
            coverage: &mut Coverage,
        ) -> u64 {
            if self.capacity == 0 {
                return 0;
            }
            let mut written = 0;
            for &hash in hashes {
                if self.touch(hash, now, coverage) {
                    coverage.re_spills += 1;
                    continue;
                }
                if self.entries.len() as u64 >= self.capacity {
                    let (last_used, victim) = self
                        .entries
                        .iter()
                        .map(|(hash, (last_used, _))| (*last_used, *hash))
                        .min()
                        .expect("a full pool has entries");
                    if self.entries.values().filter(|e| e.0 == last_used).count() > 1 {
                        coverage.tie_broken_evictions += 1;
                    }
                    let (_, uses) = self.entries.remove(&victim).expect("victim is resident");
                    evictions.push(CpuEviction {
                        hash: victim,
                        last_used,
                        uses,
                    });
                    self.generation += 1;
                    self.stats.evicted_blocks += 1;
                }
                self.entries.insert(hash, (now, 1));
                self.generation += 1;
                self.stats.offloaded_blocks += 1;
                written += 1;
            }
            written
        }

        fn reload(
            &mut self,
            hashes: &[TokenBlockHash],
            blocks: u64,
            now: SimTime,
            coverage: &mut Coverage,
        ) -> u64 {
            let mut bytes = 0;
            for &hash in hashes.iter().take(blocks as usize) {
                if self.touch(hash, now, coverage) {
                    self.stats.reloaded_blocks += 1;
                    bytes += BLOCK_BYTES;
                }
            }
            self.stats.reloaded_bytes += bytes;
            bytes
        }

        fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
            hashes
                .iter()
                .take_while(|hash| self.entries.contains_key(hash))
                .count() as u64
        }

        fn lru_entries(&self) -> Vec<CpuEviction> {
            let mut entries: Vec<CpuEviction> = self
                .entries
                .iter()
                .map(|(&hash, &(last_used, uses))| CpuEviction {
                    hash,
                    last_used,
                    uses,
                })
                .collect();
            entries.sort_unstable_by_key(|entry| (entry.last_used, entry.hash));
            entries
        }
    }

    /// Model check: seeded random spills (multi-block batches sharing one
    /// `last_used`, duplicates carrying an older or a newer one) and reloads drive
    /// the pool and the [`FlatPool`] reference side by side over a small hash
    /// universe and a clock with few distinct values, so `last_used` ties are
    /// common.  After every operation the two agree on the eviction cascade (hash,
    /// `last_used`, uses, in order), the written counts and reload bytes, prefix
    /// lookups, the generation, the statistics, the resident count and the full
    /// eviction order, and the heap passes its structural check.
    #[test]
    fn heap_pool_matches_a_flat_min_scan_reference() {
        let mut coverage = Coverage::default();
        for capacity in [0u64, 1, 2, 7, 64] {
            for trial in 0..4u64 {
                let mut rng = SimRng::seed_from_u64(0xc9a0 + (capacity << 8 | trial));
                let universe = hashes(0, (2 * capacity as usize + 3) * BLOCK_TOKENS);
                let mut pool = CpuKvPool::new(capacity * BLOCK_BYTES, BLOCK_BYTES);
                let mut flat = FlatPool {
                    capacity,
                    entries: HashMap::new(),
                    generation: 0,
                    stats: OffloadStats::default(),
                };
                let mut clock = 3u64;
                for step in 0..600 {
                    match rng.gen_range(0..10u32) {
                        0..=5 => {
                            let len = rng.gen_range(1..=4usize);
                            let batch: Vec<TokenBlockHash> = (0..len)
                                .map(|_| universe[rng.gen_range(0..universe.len())])
                                .collect();
                            let at = SimTime::from_secs(clock.saturating_sub(rng.gen_range(0..3)));
                            let mut evicted = Vec::new();
                            let written =
                                pool.offload_with_evictions(&batch, at, |e| evicted.push(e));
                            let mut expected = Vec::new();
                            let expected_written =
                                flat.offload(&batch, at, &mut expected, &mut coverage);
                            assert_eq!(evicted, expected, "cascade at step {step}");
                            assert_eq!(written, expected_written, "written at step {step}");
                        }
                        6..=8 => {
                            let start = rng.gen_range(0..universe.len());
                            let end = (start + rng.gen_range(1..=6usize)).min(universe.len());
                            let chain = &universe[start..end];
                            let blocks = rng.gen_range(0..chain.len() as u64 + 2);
                            let now = SimTime::from_secs(clock);
                            assert_eq!(
                                pool.reload_prefix(chain, blocks, now),
                                flat.reload(chain, blocks, now, &mut coverage),
                                "reload bytes at step {step}"
                            );
                        }
                        _ => clock += 1,
                    }
                    pool.assert_lru_invariant();
                    assert_eq!(
                        pool.generation(),
                        flat.generation,
                        "generation at step {step}"
                    );
                    assert_eq!(pool.stats(), flat.stats, "stats at step {step}");
                    assert_eq!(pool.resident_blocks(), flat.entries.len() as u64);
                    assert_eq!(
                        pool.lru_entries().collect::<Vec<_>>(),
                        flat.lru_entries(),
                        "eviction order at step {step}"
                    );
                    for start in [0, universe.len() / 3, universe.len() / 2] {
                        assert_eq!(
                            pool.lookup_prefix_blocks(&universe[start..]),
                            flat.lookup_prefix_blocks(&universe[start..]),
                            "prefix lookup at step {step}"
                        );
                    }
                }
            }
        }
        assert!(
            coverage.tie_broken_evictions > 0,
            "no eviction decided by the hash"
        );
        assert!(
            coverage.non_demoting_refreshes > 0,
            "no refresh that must not demote"
        );
        assert!(coverage.re_spills > 0, "no re-spill of a resident entry");
    }
}
