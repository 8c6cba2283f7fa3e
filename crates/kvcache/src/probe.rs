//! Incremental cache probing for continuous JCT calibration.
//!
//! Algorithm 1 of the paper re-estimates the JCT of *every* waiting request at *every*
//! scheduling step, which requires knowing how many of each request's blocks currently
//! hit the prefix cache.  A naive implementation walks each request's full hash chain
//! per step — O(queue depth × chain length) per scheduling decision, the dominant cost
//! at high queue depth.
//!
//! [`ProbeCache`] memoises the last probe result per request: its GPU hit depth `d`,
//! the manager's [`commit_generation`](crate::KvCacheManager::commit_generation) at
//! the time, and the lowest queue stamp it saw over the hit prefix `[0, d)`.  A probe
//! then takes one of three cases:
//!
//! * no eviction reached the prefix and nothing was committed since → return the
//!   memoised depth, O(1);
//! * no eviction reached the prefix, but blocks were committed → a miss can only have
//!   turned into a hit, so the walk resumes from the memoised depth and pays only for
//!   the *new* hits;
//! * an eviction may have reached the prefix → the walk restarts from block zero.
//!
//! # Why a depth survives an eviction that missed it
//!
//! Every push onto the GPU free-block queue stamps the block with the next value of a
//! counter, and every eviction lifts the manager's
//! [`evicted_below`](crate::KvCacheManager::evicted_below) watermark to one past the
//! evicted block's stamp (see [`KvCacheManager`]'s docs).  A block the walk found
//! cached with stamp `s` — queued, or pinned with the stamp of its last push — can
//! leave the cache only by being popped from the head of the queue, with a stamp of at
//! least `s`, which lifts the watermark above `s`.  So while the watermark is at most
//! the lowest stamp over `[0, d)`, all of `[0, d)` is still cached; an entry that hit
//! nothing keeps its depth of zero across any eviction.  A memoised stamp can only be
//! lower than the blocks' current ones (an unpin re-stamps a block higher), which only
//! ever forces a re-walk that was not needed.  In debug builds every answer is checked
//! against [`KvCacheManager::lookup_tier_hits_from_hashes`].
//!
//! On a deep queue of users with their own prefixes, nearly every step evicts, yet
//! nearly every eviction takes other users' blocks, so most probes take one of the
//! first two cases.
//!
//! # The checkpoint memo
//!
//! The two walking cases share one more memo, across requests: every
//! [`CHECKPOINT_BLOCKS`] blocks (checkpoints `c = 64, 128, …`), the chain hash of block
//! `c − 1` maps to the first GPU miss in `[0, c)` — or to `c` when every block hits —
//! and to the lowest stamp known for the blocks before that miss.  A walk jumps from
//! checkpoint to checkpoint through that memo and walks only the blocks no earlier
//! walk of this cache generation covered, so a queue of requests behind one long
//! shared prefix (a burst of one user's requests) walks that prefix once per
//! generation instead of once per request.
//!
//! The memo is exact.  The rolling hash of block `c − 1` identifies the whole prefix
//! `[0, c)` — the same key the manager caches that block under — so two chains with
//! the same anchor agree on the first miss in `[0, c)` (barring a 64-bit collision,
//! which would already alias cache blocks).  The memo is cleared whenever
//! [`generation`](crate::KvCacheManager::generation) moves, which every commit and
//! every eviction does, so each entry depends only on the cache contents it was
//! walked against; within one generation stamps only rise, so its stamp stays a lower
//! bound.  The CPU and network continuations are not memoised across requests: they
//! start where the GPU walk stops, and a request's own entry re-walks them when their
//! tier's generation counter or the depth they start from moved.

use crate::hash::{BlockMap, RequestMap, TokenBlockHash};
use crate::manager::{KvCacheManager, TierHits};

#[derive(Debug, Clone, Copy)]
struct ProbeEntry {
    /// `KvCacheManager::commit_generation()` at the time of the walk.
    commit_generation: u64,
    /// A lower bound on the queue stamps of blocks `[0, hit_blocks)` (`u64::MAX`
    /// when `hit_blocks` is 0): the depth stands while the eviction watermark is at
    /// most this.
    min_stamp: u64,
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
/// by that manager's generation counters and queue stamps, which have no meaning
/// across managers.  Querying a different manager (or a diverged clone) can return
/// stale counts — create a fresh `ProbeCache` per manager.
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
/// `[0, c)` (or `c`) and a lower bound on the stamps before it, valid for one cache
/// generation.
#[derive(Debug, Clone, Default)]
struct CheckpointMemo {
    /// `KvCacheManager::generation()` the entries were walked against.
    generation: u64,
    reached: BlockMap<(usize, u64)>,
}

impl CheckpointMemo {
    /// GPU prefix hits of `hashes` and a lower bound on their stamps, given that
    /// blocks `[0, start)` are known to hit with stamps of at least `start_stamp`.
    ///
    /// Each walked segment goes through
    /// [`KvCacheManager::resume_cached_blocks_from_hashes`], whose debug assertion
    /// re-checks every prefix the walk jumped over.
    fn gpu_hits(
        &mut self,
        kv: &KvCacheManager,
        hashes: &[TokenBlockHash],
        start: usize,
        start_stamp: u64,
    ) -> (usize, u64) {
        let (mut hit, mut min_stamp) = (start, start_stamp);
        let mut checkpoint = (start / CHECKPOINT_BLOCKS + 1) * CHECKPOINT_BLOCKS;
        if checkpoint <= hashes.len() && self.generation != kv.generation() {
            self.reached.clear();
            self.generation = kv.generation();
        }
        while checkpoint <= hashes.len() {
            let anchor = hashes[checkpoint - 1];
            let (reached, stamp) = match self.reached.get(&anchor) {
                Some(&memo) => {
                    let reached = memo.0;
                    debug_assert!(
                        reached == checkpoint
                            || kv
                                .resume_cached_blocks_from_hashes(&hashes[..=reached], reached)
                                .0
                                == reached,
                        "checkpoint memo is stale: block {reached} hits"
                    );
                    memo
                }
                None => {
                    let (reached, walked) =
                        kv.resume_cached_blocks_from_hashes(&hashes[..checkpoint], hit);
                    let memo = (reached, min_stamp.min(walked));
                    self.reached.insert(anchor, memo);
                    memo
                }
            };
            min_stamp = stamp;
            if reached < checkpoint {
                return (reached, min_stamp);
            }
            hit = checkpoint;
            checkpoint += CHECKPOINT_BLOCKS;
        }
        let (hit, walked) = kv.resume_cached_blocks_from_hashes(hashes, hit);
        (hit, min_stamp.min(walked))
    }
}

impl ProbeCache {
    /// Creates an empty probe cache.
    pub fn new() -> ProbeCache {
        ProbeCache::default()
    }

    /// Returns how many leading blocks of `hashes` currently hit `kv`'s prefix cache,
    /// reusing the memoised result for `request_id` where the eviction watermark and
    /// the commit generation prove it is still valid.
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
    /// the three cases of the module docs; the CPU half is re-walked when
    /// [`KvCacheManager::cpu_generation`] moved (a spill or CPU eviction changed the
    /// CPU tier's contents) or the GPU hit depth changed (the CPU walk starts where
    /// the GPU walk stops); the network half likewise when
    /// [`KvCacheManager::net_generation`] or the installed snapshot moved, or the
    /// GPU + CPU hit depth it continues from changed.
    pub fn tier_hits(
        &mut self,
        kv: &KvCacheManager,
        request_id: u64,
        hashes: &[TokenBlockHash],
    ) -> TierHits {
        let commit_generation = kv.commit_generation();
        let cpu_generation = kv.cpu_generation();
        let net_generation = kv.net_generation();
        let net_swap_generation = kv.net_swap_generation();
        let hits = match self.entries.get_mut(&request_id) {
            Some(entry) if kv.evicted_below() <= entry.min_stamp => {
                // No eviction reached the memoised prefix, so it is still cached.
                // Only a commit can have turned the miss after it into a hit.
                let mut gpu_moved = false;
                if entry.commit_generation != commit_generation {
                    let (hit_blocks, min_stamp) =
                        self.checkpoints
                            .gpu_hits(kv, hashes, entry.hit_blocks, entry.min_stamp);
                    gpu_moved = hit_blocks != entry.hit_blocks;
                    entry.hit_blocks = hit_blocks;
                    entry.min_stamp = min_stamp;
                    entry.commit_generation = commit_generation;
                }
                let cpu_moved = gpu_moved || entry.cpu_generation != cpu_generation;
                if cpu_moved {
                    entry.cpu_hit_blocks = kv.cpu_prefix_blocks_after(hashes, entry.hit_blocks);
                    entry.cpu_generation = cpu_generation;
                }
                if cpu_moved
                    || entry.net_generation != net_generation
                    || entry.net_swap_generation != net_swap_generation
                {
                    entry.net_hit_blocks =
                        kv.net_prefix_blocks_after(hashes, entry.hit_blocks + entry.cpu_hit_blocks);
                    entry.net_generation = net_generation;
                    entry.net_swap_generation = net_swap_generation;
                }
                TierHits {
                    gpu_blocks: entry.hit_blocks,
                    cpu_blocks: entry.cpu_hit_blocks,
                    net_blocks: entry.net_hit_blocks,
                }
            }
            _ => {
                let (gpu_blocks, min_stamp) = self.checkpoints.gpu_hits(kv, hashes, 0, u64::MAX);
                let cpu_blocks = kv.cpu_prefix_blocks_after(hashes, gpu_blocks);
                let hits = TierHits {
                    gpu_blocks,
                    cpu_blocks,
                    net_blocks: kv.net_prefix_blocks_after(hashes, gpu_blocks + cpu_blocks),
                };
                self.entries.insert(
                    request_id,
                    ProbeEntry {
                        commit_generation,
                        min_stamp,
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
        };
        debug_assert_eq!(
            hits,
            kv.lookup_tier_hits_from_hashes(hashes),
            "the memoised probe of request {request_id} disagrees with a full walk"
        );
        hits
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
    use crate::hash::{extend_token_blocks, hash_token_blocks};
    use crate::manager::{RequestKv, RetentionPolicy};
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

    /// Model check: under random interleavings of allocations, commits, releases,
    /// cache clears and probes, the memoising probe always agrees with a fresh full
    /// walk, and the block table's stamps stay in queue order.
    ///
    /// Besides short per-user chains, the universe holds chains longer than two
    /// checkpoints whose shared prefix ends before, at and after a checkpoint
    /// boundary, each probed under several request ids at capacities that force
    /// evictions — so stale or mis-keyed checkpoint entries surface as wrong counts.
    /// Requests stay in flight across probes: some allocations are held for several
    /// steps and then committed (re-stamping the prefix they pinned) or released,
    /// and two in-flight allocations of one new chain take the duplicate-commit
    /// path.  Coverage guards count the probes the stamp rule decides: answers
    /// from entries that outlived an eviction, resumes after an eviction, and
    /// re-walks after an eviction that reached the memoised prefix.
    #[test]
    fn probe_always_matches_full_walk() {
        /// Request ids per chain, so that several requests probe each chain.
        const IDS_PER_CHAIN: u64 = 3;
        let (mut deep_probes, mut outlived, mut resumed, mut rewalked) = (0usize, 0, 0, 0);
        let mut duplicates = 0usize;
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
            // Allocations in flight: the step they finish at, whether they commit.
            let mut in_flight: Vec<(u64, bool, RequestKv)> = Vec::new();
            // `evict_generation()` at each request id's last probe.
            let mut probed_at: std::collections::HashMap<u64, u64> = Default::default();

            for step in 0..300u64 {
                let now = SimTime::from_millis(step);
                let (due, held): (Vec<_>, Vec<_>) =
                    in_flight.drain(..).partition(|(at, ..)| *at <= step);
                in_flight = held;
                for (_, commit, alloc) in due {
                    if commit {
                        kv.commit(alloc, now);
                    } else {
                        kv.release_uncommitted(alloc);
                    }
                }
                let idx = rng.gen_range(0usize..chains.len());
                let total = chains[idx].len() as u64 * BLOCK_SIZE as u64;
                match rng.gen_range(0u32..40) {
                    0..=15 => {
                        // A scheduling step: probe a few random chains, each under
                        // one of its request ids, and cross-check each against the
                        // full walk.
                        for _ in 0..rng.gen_range(1u32..7) {
                            let idx = rng.gen_range(0usize..chains.len());
                            let request_id =
                                idx as u64 * IDS_PER_CHAIN + rng.gen_range(0u64..IDS_PER_CHAIN);
                            let before = probe.entries.get(&request_id).copied();
                            let got = probe.tier_hits(&kv, request_id, &chains[idx]);
                            let want = kv.lookup_tier_hits_from_hashes(&chains[idx]);
                            assert_eq!(got, want, "seed {seed} step {step}");
                            deep_probes += usize::from(want.gpu_blocks >= CHECKPOINT_BLOCKS);
                            let evicted_since = probed_at
                                .insert(request_id, kv.evict_generation())
                                .is_some_and(|at| at != kv.evict_generation());
                            let Some(entry) = before.filter(|_| evicted_since) else {
                                continue;
                            };
                            if kv.evicted_below() > entry.min_stamp {
                                rewalked += usize::from(want.gpu_blocks < entry.hit_blocks);
                            } else if entry.hit_blocks > 0 {
                                if entry.commit_generation == kv.commit_generation() {
                                    outlived += 1;
                                } else {
                                    resumed += 1;
                                }
                            }
                        }
                    }
                    16..=19 => {
                        if let Ok(alloc) = kv.allocate_from_hashes(
                            &chains[idx],
                            total,
                            now,
                            RetentionPolicy::PrefixBestEffort,
                        ) {
                            kv.commit(alloc, now);
                        }
                    }
                    20..=25 => {
                        if let Ok(alloc) = kv.allocate_from_hashes(
                            &chains[idx],
                            total,
                            now,
                            RetentionPolicy::FullResidency,
                        ) {
                            kv.release_uncommitted(alloc);
                        }
                    }
                    26..=34 => {
                        // Hold the allocation for a few steps, then commit or
                        // release it.
                        let finish = step + rng.gen_range(1u64..8);
                        let commit = rng.gen_range(0u32..4) != 0;
                        if let Ok(alloc) = kv.allocate_from_hashes(
                            &chains[idx],
                            total,
                            now,
                            RetentionPolicy::PrefixBestEffort,
                        ) {
                            in_flight.push((finish, commit, alloc));
                        }
                    }
                    35..=38 => {
                        // A new chain — a prefix of an existing one, then fresh
                        // tokens — allocated twice before either commits: the
                        // second commit finds its blocks cached by the first.
                        let keep = rng.gen_range(0..=chains[idx].len());
                        let mut chain = chains[idx][..keep].to_vec();
                        let fresh = 50_000_000 + (seed * 1_000 + step) as u32 * 1_000;
                        extend_token_blocks(&mut chain, &tokens(fresh, 5 * BLOCK_SIZE), BLOCK_SIZE);
                        let total = chain.len() as u64 * BLOCK_SIZE as u64;
                        for finish in [step + 1, step + 2] {
                            let alloc = kv
                                .allocate_from_hashes(
                                    &chain,
                                    total,
                                    now,
                                    RetentionPolicy::PrefixBestEffort,
                                )
                                .expect("best effort never fails");
                            duplicates += usize::from(
                                finish == step + 2
                                    && alloc.resident_tokens() > alloc.cached_tokens(),
                            );
                            in_flight.push((finish, true, alloc));
                        }
                        chains.push(chain);
                    }
                    _ => kv.clear_cache(),
                }
                kv.assert_lru_invariant();
            }
        }
        // Guard against vacuous agreement: many probes must reach past a checkpoint,
        // and the stamp rule must decide many probes each way.
        assert!(
            deep_probes > 2_000,
            "checkpoint memo under-exercised: {deep_probes}"
        );
        assert!(outlived > 40, "entries outliving an eviction: {outlived}");
        assert!(resumed > 250, "resumes after an eviction: {resumed}");
        assert!(rewalked > 2_500, "re-walks after an eviction: {rewalked}");
        assert!(duplicates > 500, "duplicate in-flight chains: {duplicates}");
    }
}
