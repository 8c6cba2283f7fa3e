//! An immutable three-tier prefix-depth probe over a manager snapshot.
//!
//! Cache-aware routing needs to ask "how deep would this request's hash chain hit on
//! that instance?" for *every* instance of a deployment, without touching the live
//! [`KvCacheManager`](crate::KvCacheManager)s — the managers are owned by instances
//! that may be simulating on other threads, and the routing decision must be a pure
//! function of the window-start state for the parallel replay to stay byte-identical
//! to the sequential reference.
//!
//! [`PrefixProbe`] is that frozen view: [`KvCacheManager::prefix_probe`] captures the
//! set of block hashes resident in each tier (GPU prefix cache, CPU pool, network
//! pool) at a point in time, and [`PrefixProbe::tier_hits`] answers chain walks
//! against that snapshot forever after, unaffected by anything the live manager does
//! next.  The walk semantics are exactly those of
//! [`KvCacheManager::lookup_tier_hits_from_hashes`]: each tier's walk starts where
//! the tier above stopped, because a block behind a miss in every upper tier is
//! unreachable without recomputation.

use std::collections::HashSet;
use std::sync::Arc;

use crate::hash::TokenBlockHash;
use crate::manager::{KvCacheManager, TierHits};

/// A frozen, read-only three-tier residency view of one [`KvCacheManager`]
/// (see the module docs).
///
/// ```
/// use kvcache::{hash_token_blocks, KvCacheManager, RetentionPolicy};
/// use simcore::SimTime;
///
/// let mut kv = KvCacheManager::new(64, 16);
/// let tokens: Vec<u32> = (0..64).collect();
/// let alloc = kv
///     .allocate(&tokens, SimTime::ZERO, RetentionPolicy::FullResidency)
///     .unwrap();
/// kv.commit(alloc, SimTime::ZERO);
///
/// let probe = kv.prefix_probe();
/// let hashes = hash_token_blocks(&tokens, 16);
/// assert_eq!(probe.tier_hits(&hashes).gpu_blocks, 4);
///
/// // The probe is a snapshot: clearing the live cache does not change its answers.
/// kv.clear_cache();
/// assert_eq!(probe.tier_hits(&hashes).gpu_blocks, 4);
/// ```
///
/// [`KvCacheManager`]: crate::KvCacheManager
#[derive(Debug, Clone)]
pub struct PrefixProbe {
    block_size: usize,
    /// Per-tier resident sets behind `Arc`s: cloning a probe — or reusing an
    /// unchanged tier across captures ([`PrefixProbeCache`]) — is O(1), not
    /// O(resident blocks).
    gpu: Arc<HashSet<TokenBlockHash>>,
    cpu: Arc<HashSet<TokenBlockHash>>,
    net: Arc<HashSet<TokenBlockHash>>,
}

impl PrefixProbe {
    /// Builds a probe from explicit per-tier resident sets.  Most callers should use
    /// [`KvCacheManager::prefix_probe`](crate::KvCacheManager::prefix_probe); this
    /// constructor exists for tests and synthetic routing scenarios.
    pub fn new(
        block_size: usize,
        gpu: HashSet<TokenBlockHash>,
        cpu: HashSet<TokenBlockHash>,
        net: HashSet<TokenBlockHash>,
    ) -> PrefixProbe {
        PrefixProbe {
            block_size,
            gpu: Arc::new(gpu),
            cpu: Arc::new(cpu),
            net: Arc::new(net),
        }
    }

    /// Tokens per block of the snapshotted manager.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Blocks resident per tier at snapshot time (GPU, CPU, network).
    pub fn resident_blocks(&self) -> (usize, usize, usize) {
        (self.gpu.len(), self.cpu.len(), self.net.len())
    }

    /// Per-tier prefix hits of `hashes` against the snapshot, with the same chaining
    /// semantics as the live manager's lookup: the CPU walk starts where the GPU walk
    /// stopped and the network walk where the CPU walk stopped.
    pub fn tier_hits(&self, hashes: &[TokenBlockHash]) -> TierHits {
        let gpu_blocks = Self::walk(&self.gpu, hashes, 0);
        let cpu_blocks = Self::walk(&self.cpu, hashes, gpu_blocks) - gpu_blocks;
        let start = gpu_blocks + cpu_blocks;
        let net_blocks = Self::walk(&self.net, hashes, start) - start;
        TierHits {
            gpu_blocks,
            cpu_blocks,
            net_blocks,
        }
    }

    fn walk(tier: &HashSet<TokenBlockHash>, hashes: &[TokenBlockHash], start: usize) -> usize {
        let mut hits = start;
        for hash in &hashes[start..] {
            if tier.contains(hash) {
                hits += 1;
            } else {
                break;
            }
        }
        hits
    }
}

/// The generation counters a [`CachedTierSet`] was captured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TierKey {
    /// [`KvCacheManager::generation`] for the GPU tier,
    /// [`KvCacheManager::cpu_generation`] for the CPU tier, and
    /// [`KvCacheManager::net_generation`] for the network tier.
    generation: u64,
    /// [`KvCacheManager::net_swap_generation`] — always 0 for the GPU and CPU
    /// tiers, which are never swapped out from under the manager.
    swap: u64,
}

#[derive(Debug, Clone)]
struct CachedTierSet {
    key: TierKey,
    set: Arc<HashSet<TokenBlockHash>>,
}

/// Incrementally maintained [`PrefixProbe`] capture (copy-on-write, keyed by the
/// tiers' generation counters — the same discipline as
/// [`ProbeCache`](crate::ProbeCache)).
///
/// [`KvCacheManager::prefix_probe`] clones every tier's resident set on every call —
/// O(resident blocks) per instance per capture, which multiplies once cache-aware
/// routing refreshes its probes per propagation *epoch* rather than per replay
/// window.  This cache keeps the previous capture's per-tier `Arc`s and rebuilds
/// only the tiers whose generation counters prove their contents changed; an
/// unchanged tier costs one `Arc` clone.
///
/// # Contract
///
/// One `PrefixProbeCache` serves **one** [`KvCacheManager`] (generation counters
/// have no meaning across managers), exactly like
/// [`ProbeCache`](crate::ProbeCache).  The returned probe always equals what
/// [`KvCacheManager::prefix_probe`] would build — pinned by the
/// `cached_probe_always_matches_a_full_rebuild` shadow-model test.
#[derive(Debug, Clone, Default)]
pub struct PrefixProbeCache {
    block_size: Option<usize>,
    gpu: Option<CachedTierSet>,
    cpu: Option<CachedTierSet>,
    net: Option<CachedTierSet>,
}

impl PrefixProbeCache {
    /// Creates an empty cache; the first capture builds every tier.
    pub fn new() -> PrefixProbeCache {
        PrefixProbeCache::default()
    }

    /// Captures the manager's current three-tier residency snapshot, reusing every
    /// tier whose generation counters are unchanged since the previous capture.
    pub fn probe(&mut self, kv: &KvCacheManager) -> PrefixProbe {
        debug_assert!(
            self.block_size.is_none_or(|b| b == kv.block_size()),
            "one PrefixProbeCache serves one manager"
        );
        self.block_size = Some(kv.block_size());
        let gpu = Self::tier(
            &mut self.gpu,
            TierKey {
                generation: kv.generation(),
                swap: 0,
            },
            || kv.resident_gpu_hashes().collect(),
        );
        let cpu = Self::tier(
            &mut self.cpu,
            TierKey {
                generation: kv.cpu_generation(),
                swap: 0,
            },
            || kv.resident_cpu_hashes().collect(),
        );
        let net = Self::tier(
            &mut self.net,
            TierKey {
                generation: kv.net_generation(),
                swap: kv.net_swap_generation(),
            },
            || kv.resident_net_hashes().collect(),
        );
        PrefixProbe {
            block_size: kv.block_size(),
            gpu,
            cpu,
            net,
        }
    }

    fn tier(
        slot: &mut Option<CachedTierSet>,
        key: TierKey,
        rebuild: impl FnOnce() -> HashSet<TokenBlockHash>,
    ) -> Arc<HashSet<TokenBlockHash>> {
        match slot {
            Some(cached) if cached.key == key => Arc::clone(&cached.set),
            _ => {
                let set = Arc::new(rebuild());
                *slot = Some(CachedTierSet {
                    key,
                    set: Arc::clone(&set),
                });
                set
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_token_blocks;
    use crate::manager::{KvCacheManager, RetentionPolicy};
    use crate::netpool::NetKvPool;
    use simcore::SimTime;

    const BLOCK_SIZE: usize = 16;
    const BLOCK_BYTES: u64 = 16 * 128 * 1024;

    fn tokens(start: u32, len: usize) -> Vec<u32> {
        (start..start + len as u32).collect()
    }

    #[test]
    fn snapshot_agrees_with_the_live_three_tier_lookup() {
        let mut kv = KvCacheManager::with_offload(8, BLOCK_SIZE, 1 << 30, BLOCK_BYTES);

        // Net tier holds a foreign chain, GPU+CPU are populated by churn.
        let remote = tokens(700_000, 128);
        let remote_hashes = hash_token_blocks(&remote, BLOCK_SIZE);
        let mut pool = NetKvPool::new(1 << 30, BLOCK_BYTES);
        assert_eq!(pool.offload(&remote_hashes, SimTime::ZERO).0, 8);
        kv.install_net_pool(pool);

        let a = tokens(0, 128);
        let alloc = kv
            .allocate(&a, SimTime::from_secs(1), RetentionPolicy::FullResidency)
            .unwrap();
        kv.commit(alloc, SimTime::from_secs(1));
        let b = tokens(100_000, 64);
        let alloc = kv
            .allocate(&b, SimTime::from_secs(2), RetentionPolicy::FullResidency)
            .unwrap();
        kv.commit(alloc, SimTime::from_secs(2));

        let probe = kv.prefix_probe();
        for chain in [&a, &b, &remote, &tokens(0, 200), &tokens(999, 64)] {
            let hashes = hash_token_blocks(chain, BLOCK_SIZE);
            assert_eq!(
                probe.tier_hits(&hashes),
                kv.lookup_tier_hits_from_hashes(&hashes),
                "snapshot must agree with the live lookup for chain head {:?}",
                chain.first()
            );
        }
    }

    #[test]
    fn snapshot_is_immutable_under_later_manager_activity() {
        let mut kv = KvCacheManager::new(8, BLOCK_SIZE);
        let a = tokens(0, 64);
        let alloc = kv
            .allocate(&a, SimTime::ZERO, RetentionPolicy::FullResidency)
            .unwrap();
        kv.commit(alloc, SimTime::ZERO);

        let probe = kv.prefix_probe();
        let hashes = hash_token_blocks(&a, BLOCK_SIZE);
        assert_eq!(probe.tier_hits(&hashes).gpu_blocks, 4);

        // Evict A with fresh traffic: the live view changes, the snapshot does not.
        let alloc = kv
            .allocate(
                &tokens(50_000, 128),
                SimTime::from_secs(1),
                RetentionPolicy::FullResidency,
            )
            .unwrap();
        kv.commit(alloc, SimTime::from_secs(1));
        assert_eq!(kv.lookup_tier_hits_from_hashes(&hashes).gpu_blocks, 0);
        assert_eq!(probe.tier_hits(&hashes).gpu_blocks, 4);
    }

    /// Shadow model: under random interleavings of commits, evictions (with CPU →
    /// net cascade) and net-snapshot swaps, the incremental [`PrefixProbeCache`]
    /// always captures exactly what a full [`KvCacheManager::prefix_probe`] rebuild
    /// would — per-tier resident sets and chain walks alike.
    #[test]
    fn cached_probe_always_matches_a_full_rebuild() {
        use simcore::SimRng;

        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut kv = KvCacheManager::with_offload(8, BLOCK_SIZE, 4 * BLOCK_BYTES, BLOCK_BYTES);
            let mut shared = NetKvPool::new(1 << 30, BLOCK_BYTES);
            kv.install_net_view(shared.view(), false);
            let mut cache = crate::PrefixProbeCache::new();
            let chains: Vec<Vec<u32>> = (0..5u32)
                .map(|i| tokens(i * 100_000, 16 * ((i as usize % 3) + 2)))
                .collect();

            let mut reuses = 0u32;
            let mut previous: Option<PrefixProbe> = None;
            for step in 0..120u64 {
                let now = SimTime::from_millis(step);
                let mutated = match rng.gen_range(0u32..4) {
                    0 | 1 => {
                        let chain = &chains[rng.gen_range(0usize..chains.len())];
                        if let Ok(alloc) =
                            kv.allocate(chain, now, RetentionPolicy::PrefixBestEffort)
                        {
                            kv.commit(alloc, now);
                        }
                        true
                    }
                    2 => {
                        // A barrier: merge the view back and install a fresh one,
                        // sometimes filtered to the *same* content generation but
                        // fewer visible entries — the case the swap generation
                        // exists for.
                        if let Some(view) = kv.take_net_view() {
                            shared.absorb(view.into_delta());
                        }
                        let reinstall = if rng.gen_range(0u32..2) == 0 {
                            shared.view_at(SimTime::ZERO, 0)
                        } else {
                            shared.view()
                        };
                        kv.install_net_view(reinstall, false);
                        true
                    }
                    _ => false, // capture-only step: the reuse path must stay correct
                };

                let incremental = cache.probe(&kv);
                let full = kv.prefix_probe();
                assert_eq!(
                    incremental.resident_blocks(),
                    full.resident_blocks(),
                    "seed {seed} step {step}"
                );
                if let Some(previous) = &previous {
                    if !mutated {
                        assert!(
                            Arc::ptr_eq(&incremental.gpu, &previous.gpu)
                                && Arc::ptr_eq(&incremental.cpu, &previous.cpu)
                                && Arc::ptr_eq(&incremental.net, &previous.net),
                            "an unchanged manager must reuse every tier set"
                        );
                        reuses += 1;
                    }
                }
                previous = Some(incremental.clone());
                for chain in &chains {
                    let hashes = hash_token_blocks(chain, BLOCK_SIZE);
                    assert_eq!(
                        incremental.tier_hits(&hashes),
                        full.tier_hits(&hashes),
                        "seed {seed} step {step}"
                    );
                }
            }
            assert!(reuses > 0, "the copy-on-write path must actually be taken");
        }
    }

    #[test]
    fn tier_walks_chain_like_the_manager() {
        // Hand-build a probe where the chain spans all three tiers with a gap: the
        // walk must stop at the gap even though deeper blocks are "resident".
        let chain = hash_token_blocks(&tokens(0, 96), BLOCK_SIZE); // 6 blocks
        let gpu: HashSet<_> = chain[..2].iter().copied().collect();
        let cpu: HashSet<_> = chain[2..3].iter().copied().collect();
        // Block 3 missing everywhere; blocks 4..6 net-resident but unreachable.
        let net: HashSet<_> = chain[4..].iter().copied().collect();
        let probe = PrefixProbe::new(BLOCK_SIZE, gpu, cpu, net);
        assert_eq!(
            probe.tier_hits(&chain),
            TierHits {
                gpu_blocks: 2,
                cpu_blocks: 1,
                net_blocks: 0,
            }
        );
        assert_eq!(probe.block_size(), BLOCK_SIZE);
    }
}
