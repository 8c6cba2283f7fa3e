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
//! The pool keeps an ordered `(last_used, hash)` index (a `BTreeSet`) next to the
//! entry map, so LRU eviction is O(log n) *and* fully deterministic (ties in
//! `last_used` break on the hash, never on map iteration order — a requirement of
//! the byte-identical parallel replay).  The GPU-tier
//! [`KvCacheManager`](crate::KvCacheManager) orders its victims differently: by
//! when each block became unreferenced, through a free-block queue whose pins,
//! unpins and evictions are O(1).  Spills arrive here in that order, each with the
//! `last_used` it had on the GPU; the CPU tier keeps the ordered index because only
//! spills and reloads touch it.  It also
//! exposes a [`CpuKvPool::generation`] counter that changes exactly when the pool's
//! *contents* change, which lets the scheduler's probe memoisation extend to the CPU
//! tier.

use std::collections::BTreeSet;

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

#[derive(Debug, Clone, Copy)]
struct CpuEntry {
    last_used: SimTime,
    /// Reuse evidence for the single-use spill filter (see [`CpuEviction::uses`]).
    uses: u32,
}

/// A capacity-bounded CPU-memory pool of offloaded KV blocks.
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
    entries: BlockMap<CpuEntry>,
    /// Eviction order: `(last_used, hash)` for every entry, oldest first.
    lru: BTreeSet<(SimTime, TokenBlockHash)>,
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
            entries: BlockMap::default(),
            lru: BTreeSet::new(),
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
        self.entries.len() as u64
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

    /// Refreshes an entry's recency, never moving it backwards: a spill of a stale
    /// GPU duplicate carries the victim's old `last_used`, and must not demote a CPU
    /// entry that a recent reload already marked hot.  Every touch — recency-advancing
    /// or not — counts as reuse evidence for the spill filter.
    fn touch(&mut self, hash: TokenBlockHash, now: SimTime) {
        if let Some(entry) = self.entries.get_mut(&hash) {
            entry.uses = entry.uses.saturating_add(1);
            let previous = entry.last_used;
            if previous < now {
                self.lru.remove(&(previous, hash));
                entry.last_used = now;
                self.lru.insert((now, hash));
            }
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
        let mut written = 0;
        for hash in hashes {
            if self.capacity_blocks == 0 {
                break;
            }
            if self.entries.contains_key(hash) {
                self.touch(*hash, now);
                continue;
            }
            if self.resident_blocks() >= self.capacity_blocks {
                if let Some(victim) = self.evict_lru() {
                    on_evict(victim);
                }
            }
            self.entries.insert(
                *hash,
                CpuEntry {
                    last_used: now,
                    uses: 1,
                },
            );
            self.lru.insert((now, *hash));
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
    /// without disturbing the pool.
    pub fn lru_entries(&self) -> impl Iterator<Item = CpuEviction> + '_ {
        self.lru.iter().map(|&(last_used, hash)| CpuEviction {
            hash,
            last_used,
            uses: self.entries[&hash].uses,
        })
    }

    /// Returns how many *leading* blocks of `hashes` are present in CPU memory (the
    /// reloadable prefix).
    pub fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        let mut hits = 0;
        for hash in hashes {
            if self.entries.contains_key(hash) {
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
            if self.entries.contains_key(hash) {
                self.touch(*hash, now);
                self.stats.reloaded_blocks += 1;
                bytes += self.block_bytes;
            }
        }
        self.stats.reloaded_bytes += bytes;
        bytes
    }

    fn evict_lru(&mut self) -> Option<CpuEviction> {
        let (last_used, victim) = self.lru.pop_first()?;
        let entry = self
            .entries
            .remove(&victim)
            .expect("LRU entries are resident");
        self.generation += 1;
        self.stats.evicted_blocks += 1;
        Some(CpuEviction {
            hash: victim,
            last_used,
            uses: entry.uses,
        })
    }

    /// Debug-only structural check of the LRU index invariant.
    #[cfg(test)]
    fn assert_lru_invariant(&self) {
        let expected: BTreeSet<(SimTime, TokenBlockHash)> = self
            .entries
            .iter()
            .map(|(h, e)| (e.last_used, *h))
            .collect();
        assert_eq!(expected, self.lru, "CPU LRU index out of sync");
    }
}

#[cfg(test)]
mod tests {
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
}
