//! Incremental cache probing for continuous JCT calibration.
//!
//! Algorithm 1 of the paper re-estimates the JCT of *every* waiting request at *every*
//! scheduling step, which requires knowing how many of each request's blocks currently
//! hit the prefix cache.  A naive implementation walks each request's full hash chain
//! per step — O(queue depth × chain length) per scheduling decision, the dominant cost
//! at high queue depth.
//!
//! [`ProbeCache`] memoises the last probe result per request, keyed by the manager's
//! [`generation`](crate::KvCacheManager::generation) counters:
//!
//! * cache contents unchanged since the last probe → return the memoised count, O(1);
//! * only *commits* since the last probe → cached prefixes can only have grown, so the
//!   walk resumes from the previously hit depth and pays only for *new* hits;
//! * at least one *eviction* since the last probe → the previous prefix may be gone;
//!   the walk restarts from block zero.
//!
//! Between consecutive scheduling steps the cache contents usually have not changed at
//! all (nothing committed, nothing evicted), so the common case is the O(1) path.
//!
//! # The checkpoint memo
//!
//! The two walking cases share one more memo, across requests: every
//! [`CHECKPOINT_BLOCKS`] blocks (checkpoints `c = 64, 128, …`), the chain hash of block
//! `c − 1` maps to the first GPU miss in `[0, c)` — or to `c` when every block hits.
//! A walk jumps from checkpoint to checkpoint through that memo and walks only the
//! blocks no earlier walk of this cache generation covered, so a queue of requests
//! behind one long shared prefix (a burst of one user's requests) walks that prefix
//! once per generation instead of once per request.
//!
//! The memo is exact.  The rolling hash of block `c − 1` identifies the whole prefix
//! `[0, c)` — the same key the manager caches that block under — so two chains with
//! the same anchor agree on the first miss in `[0, c)` (barring a 64-bit collision,
//! which would already alias cache blocks).  The memo is cleared whenever
//! [`generation`](crate::KvCacheManager::generation) moves, which every commit and
//! every eviction does, so each entry depends only on the cache contents it was
//! walked against.  The CPU and network continuations are not memoised across
//! requests: they start where the GPU walk stops.

use crate::hash::{BlockMap, RequestMap, TokenBlockHash};
use crate::manager::{KvCacheManager, TierHits};

#[derive(Debug, Clone, Copy)]
struct ProbeEntry {
    /// `KvCacheManager::generation()` at the time of the walk.
    generation: u64,
    /// `KvCacheManager::evict_generation()` at the time of the walk.
    evict_generation: u64,
    /// `KvCacheManager::cpu_generation()` at the time of the walk.
    cpu_generation: u64,
    /// `KvCacheManager::net_generation()` at the time of the walk.
    net_generation: u64,
    /// `KvCacheManager::net_swap_generation()` at the time of the walk: the cluster
    /// can install a differently-filtered snapshot of the *same* content generation
    /// (publish-time visibility), so the net half is additionally keyed on which
    /// snapshot is installed.
    net_swap_generation: u64,
    /// Blocks of the chain that hit the GPU prefix cache at that point.
    hit_blocks: usize,
    /// Blocks after the GPU prefix that hit the CPU tier at that point.
    cpu_hit_blocks: usize,
    /// Blocks after the GPU + CPU prefix that hit the network tier at that point.
    net_hit_blocks: usize,
}

/// Memoised per-request cache-probe results (see the module docs).
///
/// # Contract
///
/// One `ProbeCache` serves **one** [`KvCacheManager`]: the memoised entries are keyed
/// by that manager's generation counters, which have no meaning across managers.
/// Querying a different manager (or a diverged clone) that happens to share a
/// generation value returns stale counts — create a fresh `ProbeCache` per manager.
#[derive(Debug, Clone, Default)]
pub struct ProbeCache {
    entries: RequestMap<ProbeEntry>,
    checkpoints: CheckpointMemo,
}

/// Blocks between two checkpoints of the shared-prefix memo (see the module docs).
/// A walk over a chain of `C` blocks costs at most `C / 64` memo lookups plus a tail
/// of fewer than 64 blocks: a narrower stride would shorten the tail but grow the
/// memo and the lookups, and chains shorter than one stride never touch the memo.
const CHECKPOINT_BLOCKS: usize = 64;

/// The cross-request checkpoint memo: chain hash of block `c − 1` → first GPU miss in
/// `[0, c)` (or `c`), valid for one cache generation.
#[derive(Debug, Clone, Default)]
struct CheckpointMemo {
    /// `KvCacheManager::generation()` the entries were walked against.
    generation: u64,
    reached: BlockMap<usize>,
}

impl CheckpointMemo {
    /// GPU prefix hits of `hashes`, given that blocks `[0, start)` are known to hit.
    ///
    /// Each walked segment goes through
    /// [`KvCacheManager::resume_cached_blocks_from_hashes`], whose debug assertion
    /// re-checks every prefix the walk jumped over.
    fn gpu_hits(&mut self, kv: &KvCacheManager, hashes: &[TokenBlockHash], start: usize) -> usize {
        let mut hit = start;
        let mut checkpoint = (start / CHECKPOINT_BLOCKS + 1) * CHECKPOINT_BLOCKS;
        if checkpoint <= hashes.len() && self.generation != kv.generation() {
            self.reached.clear();
            self.generation = kv.generation();
        }
        while checkpoint <= hashes.len() {
            let anchor = hashes[checkpoint - 1];
            let reached = match self.reached.get(&anchor) {
                Some(&reached) => {
                    debug_assert!(
                        reached == checkpoint
                            || kv.resume_cached_blocks_from_hashes(&hashes[..=reached], reached)
                                == reached,
                        "checkpoint memo is stale: block {reached} hits"
                    );
                    reached
                }
                None => {
                    let reached = kv.resume_cached_blocks_from_hashes(&hashes[..checkpoint], hit);
                    self.reached.insert(anchor, reached);
                    reached
                }
            };
            if reached < checkpoint {
                return reached;
            }
            hit = checkpoint;
            checkpoint += CHECKPOINT_BLOCKS;
        }
        kv.resume_cached_blocks_from_hashes(hashes, hit)
    }
}

impl ProbeCache {
    /// Creates an empty probe cache.
    pub fn new() -> ProbeCache {
        ProbeCache::default()
    }

    /// Returns how many leading blocks of `hashes` currently hit `kv`'s prefix cache,
    /// reusing the memoised result for `request_id` where the generation counters
    /// prove it is still valid.
    ///
    /// Always returns exactly what
    /// [`KvCacheManager::lookup_cached_blocks_from_hashes`] would.
    pub fn cached_blocks(
        &mut self,
        kv: &KvCacheManager,
        request_id: u64,
        hashes: &[TokenBlockHash],
    ) -> usize {
        self.tier_hits(kv, request_id, hashes).gpu_blocks
    }

    /// Per-tier prefix hits of `hashes`, memoised like [`Self::cached_blocks`].
    ///
    /// Always returns exactly what
    /// [`KvCacheManager::lookup_tier_hits_from_hashes`] would.  The GPU half follows
    /// the generation rules above; the CPU half is additionally invalidated by
    /// [`KvCacheManager::cpu_generation`] (a spill or CPU eviction changed the CPU
    /// tier's contents) and by any change of the GPU hit depth (the CPU walk starts
    /// where the GPU walk stops); the network half likewise by
    /// [`KvCacheManager::net_generation`] and by any change of the GPU + CPU hit
    /// depth it continues from.
    pub fn tier_hits(
        &mut self,
        kv: &KvCacheManager,
        request_id: u64,
        hashes: &[TokenBlockHash],
    ) -> TierHits {
        let generation = kv.generation();
        let evict_generation = kv.evict_generation();
        let cpu_generation = kv.cpu_generation();
        let net_generation = kv.net_generation();
        let net_swap_generation = kv.net_swap_generation();
        match self.entries.get_mut(&request_id) {
            Some(entry)
                if entry.generation == generation
                    && entry.cpu_generation == cpu_generation
                    && entry.net_generation == net_generation
                    && entry.net_swap_generation == net_swap_generation =>
            {
                TierHits {
                    gpu_blocks: entry.hit_blocks,
                    cpu_blocks: entry.cpu_hit_blocks,
                    net_blocks: entry.net_hit_blocks,
                }
            }
            Some(entry) if entry.evict_generation == evict_generation => {
                // Commits only: the previously hit GPU prefix is still resident, so
                // the walk resumes from the old depth.  The CPU continuation must be
                // re-walked if its own contents changed or the GPU depth moved, and
                // the network continuation if its contents changed or the CPU
                // continuation's end moved.
                let hit_blocks = self.checkpoints.gpu_hits(kv, hashes, entry.hit_blocks);
                let cpu_moved =
                    hit_blocks != entry.hit_blocks || entry.cpu_generation != cpu_generation;
                if cpu_moved {
                    entry.cpu_hit_blocks = kv.cpu_prefix_blocks_after(hashes, hit_blocks);
                    entry.cpu_generation = cpu_generation;
                }
                if cpu_moved
                    || entry.net_generation != net_generation
                    || entry.net_swap_generation != net_swap_generation
                {
                    entry.net_hit_blocks =
                        kv.net_prefix_blocks_after(hashes, hit_blocks + entry.cpu_hit_blocks);
                    entry.net_generation = net_generation;
                    entry.net_swap_generation = net_swap_generation;
                }
                entry.hit_blocks = hit_blocks;
                entry.generation = generation;
                TierHits {
                    gpu_blocks: entry.hit_blocks,
                    cpu_blocks: entry.cpu_hit_blocks,
                    net_blocks: entry.net_hit_blocks,
                }
            }
            _ => {
                let gpu_blocks = self.checkpoints.gpu_hits(kv, hashes, 0);
                let cpu_blocks = kv.cpu_prefix_blocks_after(hashes, gpu_blocks);
                let hits = TierHits {
                    gpu_blocks,
                    cpu_blocks,
                    net_blocks: kv.net_prefix_blocks_after(hashes, gpu_blocks + cpu_blocks),
                };
                self.entries.insert(
                    request_id,
                    ProbeEntry {
                        generation,
                        evict_generation,
                        cpu_generation,
                        net_generation,
                        net_swap_generation,
                        hit_blocks: hits.gpu_blocks,
                        cpu_hit_blocks: hits.cpu_blocks,
                        net_hit_blocks: hits.net_blocks,
                    },
                );
                hits
            }
        }
    }

    /// Same as [`Self::cached_blocks`], in tokens.
    pub fn cached_tokens(
        &mut self,
        kv: &KvCacheManager,
        request_id: u64,
        hashes: &[TokenBlockHash],
    ) -> u64 {
        self.cached_blocks(kv, request_id, hashes) as u64 * kv.block_size() as u64
    }

    /// Drops the memoised result for a request that left the queue.
    pub fn forget(&mut self, request_id: u64) {
        self.entries.remove(&request_id);
    }

    /// Number of memoised requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_token_blocks;
    use crate::manager::RetentionPolicy;
    use simcore::{SimRng, SimTime};

    const BLOCK_SIZE: usize = 16;

    fn tokens(start: u32, len: usize) -> Vec<u32> {
        (start..start + len as u32).collect()
    }

    #[test]
    fn probe_is_transparent_across_commits_and_evictions() {
        let mut kv = KvCacheManager::new(8, BLOCK_SIZE);
        let mut probe = ProbeCache::new();
        let chain_a = tokens(0, 64);
        let chain_b = tokens(5_000, 64);
        let hashes_a = hash_token_blocks(&chain_a, BLOCK_SIZE);
        let hashes_b = hash_token_blocks(&chain_b, BLOCK_SIZE);

        // Cold: no hits, result memoised.
        assert_eq!(probe.cached_blocks(&kv, 1, &hashes_a), 0);
        assert_eq!(probe.cached_blocks(&kv, 1, &hashes_a), 0);

        // Commit A: the probe must see the new hits (commit-only resume path).
        let a = kv
            .allocate(&chain_a, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        kv.commit(a, SimTime::ZERO);
        assert_eq!(probe.cached_blocks(&kv, 1, &hashes_a), 4);

        // Commit B, evicting A: the probe must notice the eviction (full re-walk).
        let b = kv
            .allocate(
                &chain_b,
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        kv.commit(b, SimTime::from_secs(1));
        let c = kv
            .allocate(
                &tokens(9_000, 64),
                SimTime::from_secs(2),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        assert!(
            kv.stats().evicted_blocks > 0,
            "pool pressure forced eviction"
        );
        kv.release_uncommitted(c);
        assert_eq!(
            probe.cached_blocks(&kv, 1, &hashes_a),
            kv.lookup_cached_blocks_from_hashes(&hashes_a)
        );
        assert_eq!(
            probe.cached_blocks(&kv, 2, &hashes_b),
            kv.lookup_cached_blocks_from_hashes(&hashes_b)
        );
    }

    /// Model check: under random interleavings of allocate/commit/release and probes,
    /// the memoising probe always agrees with a fresh full walk.
    ///
    /// Besides short per-user chains, the universe holds chains longer than two
    /// checkpoints whose shared prefix ends before, at and after a checkpoint
    /// boundary, each probed under several request ids at capacities that force
    /// evictions — so stale or mis-keyed checkpoint entries surface as wrong counts.
    #[test]
    fn probe_always_matches_full_walk() {
        let mut deep_probes = 0usize;
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let capacity = rng.gen_range(8u64..400);
            let mut kv = KvCacheManager::new(capacity, BLOCK_SIZE);
            let mut probe = ProbeCache::new();
            // A small universe of chains sharing per-user prefixes.
            let mut chains: Vec<Vec<TokenBlockHash>> = (0..6u32)
                .map(|user| {
                    let mut toks = tokens(user / 2 * 100_000, 16 * ((user as usize % 3) + 2));
                    toks.extend(tokens(900_000 + user * 10_000, 48));
                    hash_token_blocks(&toks, BLOCK_SIZE)
                })
                .collect();
            // Long chains over one 200-block base, diverging at these block depths.
            chains.push(hash_token_blocks(&tokens(0, 200 * BLOCK_SIZE), BLOCK_SIZE));
            for diverge in [40usize, 64, 90, 128, 140] {
                let mut toks = tokens(0, diverge * BLOCK_SIZE);
                toks.extend(tokens(
                    2_000_000 + diverge as u32 * 10_000,
                    100 * BLOCK_SIZE,
                ));
                chains.push(hash_token_blocks(&toks, BLOCK_SIZE));
            }

            for step in 0..300 {
                let now = SimTime::from_millis(step);
                let idx = rng.gen_range(0usize..chains.len());
                match rng.gen_range(0u32..3) {
                    0 => {
                        // Probe a random chain under one of its request ids and
                        // cross-check against the full walk.
                        let request_id = idx as u64 + chains.len() as u64 * rng.gen_range(0u64..3);
                        let got = probe.cached_blocks(&kv, request_id, &chains[idx]);
                        let want = kv.lookup_cached_blocks_from_hashes(&chains[idx]);
                        assert_eq!(got, want, "seed {seed} step {step}");
                        deep_probes += usize::from(want >= CHECKPOINT_BLOCKS);
                    }
                    1 => {
                        let total = chains[idx].len() as u64 * BLOCK_SIZE as u64;
                        if let Ok(alloc) = kv.allocate_from_hashes(
                            &chains[idx],
                            total,
                            now,
                            RetentionPolicy::PrefixBestEffort,
                        ) {
                            kv.commit(alloc, now);
                        }
                    }
                    _ => {
                        let total = chains[idx].len() as u64 * BLOCK_SIZE as u64;
                        if let Ok(alloc) = kv.allocate_from_hashes(
                            &chains[idx],
                            total,
                            now,
                            RetentionPolicy::FullResidency,
                        ) {
                            kv.release_uncommitted(alloc);
                        }
                    }
                }
            }
        }
        // Guard against vacuous agreement: many probes must reach past a checkpoint.
        assert!(
            deep_probes > 500,
            "checkpoint memo under-exercised: {deep_probes}"
        );
    }
}
