//! Shadow-model property test for the hierarchical (GPU → CPU → network) KV cache.
//!
//! Mirrors the LRU shadow test of `properties.rs` one level up: a flat reference
//! model — plain maps of block hash → per-tier recency — is replayed against
//! `KvCacheManager` + `CpuKvPool` + `NetKvPool` over seeded random
//! allocate/commit/release sequences, asserting after every operation that
//!
//! * **tier placement** agrees: every chain hits the GPU prefix cache to the same
//!   depth, the CPU tier continues it by the same number of blocks, and the network
//!   tier continues *that* by the same number of blocks;
//! * **OffloadStats** agree: CPU spills/evictions/reloads, net admissions, filter
//!   skips, net evictions/reloads and transferred bytes, and policy declines;
//! * **generation counters** agree: the GPU commit/evict counters and both lower
//!   tiers' content counters advance exactly when the reference model's contents
//!   change;
//! * the **spill filter** agrees: a CPU eviction victim reaches the network tier iff
//!   its reuse evidence meets [`NET_SPILL_MIN_USES`];
//! * the **per-request reload decision** agrees: both sides consult the same pure
//!   decision function of the [`ReloadQuote`], and a declined segment is recomputed
//!   on both.
//!
//! The reference model selects GPU victims in the order their blocks became
//! unreferenced (a request hands its blocks back deepest first) and CPU and network
//! victims in `(last_used, hash)` order, oldest first, so any tie-break or ordering
//! bug in any tier's eviction index diverges immediately.

use std::collections::HashMap;

use simcore::{SimRng, SimTime};

use kvcache::{
    hash_token_blocks, KvCacheManager, NetKvPool, ReloadQuote, ReloadTier, RetentionPolicy,
    TokenBlockHash, NET_SPILL_MIN_USES,
};

const BLOCK_SIZE: usize = 16;
const BLOCK_BYTES: u64 = 1024;

#[derive(Debug, Clone)]
struct RequestSpec {
    user: u8,
    prefix_tokens: u16,
    suffix_tokens: u16,
}

fn request_tokens(spec: &RequestSpec, serial: u32) -> Vec<u32> {
    let base = u32::from(spec.user) * 1_000_000;
    let mut tokens: Vec<u32> = (base..base + u32::from(spec.prefix_tokens)).collect();
    let suffix_base = 500_000_000 + serial * 10_000;
    tokens.extend(suffix_base..suffix_base + u32::from(spec.suffix_tokens));
    tokens
}

fn random_spec(rng: &mut SimRng) -> RequestSpec {
    RequestSpec {
        user: rng.gen_range(0u8..4),
        prefix_tokens: rng.gen_range(16u16..384),
        suffix_tokens: rng.gen_range(0u16..96),
    }
}

/// The shared per-segment reload decision: a pure function of the quote, so the real
/// manager (via the `decide` callback) and the shadow model reach the same verdict
/// without communicating.  Declines roughly one segment in four, on both tiers.
fn reload_decision(quote: &ReloadQuote) -> bool {
    let tier_salt = match quote.tier {
        ReloadTier::Cpu => 0,
        ReloadTier::Net => 1,
    };
    !(quote.blocks * 7 + quote.resident_prefix_tokens / BLOCK_SIZE as u64 * 3 + tier_salt)
        .is_multiple_of(4)
}

#[derive(Debug, Clone, Copy)]
struct ShadowCpuEntry {
    last_used: SimTime,
    uses: u32,
}

#[derive(Debug, Clone, Copy)]
struct ShadowGpuEntry {
    last_used: SimTime,
    /// When the block last became unreferenced: the GPU victim order.
    unreferenced_at: u64,
}

/// Flat three-tier reference model: each hash may be resident in any subset of the
/// tiers, with one recency timestamp per tier (plus an unreference stamp on the GPU
/// tier and reuse evidence on the CPU tier).
struct ShadowTiers {
    gpu_capacity: u64,
    cpu_capacity: u64,
    net_capacity: u64,
    gpu: HashMap<TokenBlockHash, ShadowGpuEntry>,
    next_stamp: u64,
    cpu: HashMap<TokenBlockHash, ShadowCpuEntry>,
    net: HashMap<TokenBlockHash, SimTime>,
    // GPU-tier statistics / counters.
    committed_blocks: u64,
    gpu_evicted_blocks: u64,
    failed: u64,
    // CPU-tier statistics / counters.
    offloaded_blocks: u64,
    cpu_evicted_blocks: u64,
    reloaded_blocks: u64,
    reloaded_bytes: u64,
    cpu_generation: u64,
    // Network-tier statistics / counters.
    net_offloaded_blocks: u64,
    net_filtered_blocks: u64,
    net_evicted_blocks: u64,
    net_reloaded_blocks: u64,
    net_reloaded_bytes: u64,
    net_generation: u64,
    // Reload-policy statistics.
    declined_reload_blocks: u64,
}

enum ShadowOutcome {
    Ok {
        cached_tokens: u64,
        reloaded_tokens: u64,
        reloaded_bytes: u64,
        net_reloaded_tokens: u64,
        net_reloaded_bytes: u64,
    },
    Err,
}

impl ShadowTiers {
    fn new(gpu_capacity: u64, cpu_capacity: u64, net_capacity: u64) -> ShadowTiers {
        ShadowTiers {
            gpu_capacity,
            cpu_capacity,
            net_capacity,
            gpu: HashMap::new(),
            next_stamp: 0,
            cpu: HashMap::new(),
            net: HashMap::new(),
            committed_blocks: 0,
            gpu_evicted_blocks: 0,
            failed: 0,
            offloaded_blocks: 0,
            cpu_evicted_blocks: 0,
            reloaded_blocks: 0,
            reloaded_bytes: 0,
            cpu_generation: 0,
            net_offloaded_blocks: 0,
            net_filtered_blocks: 0,
            net_evicted_blocks: 0,
            net_reloaded_blocks: 0,
            net_reloaded_bytes: 0,
            net_generation: 0,
            declined_reload_blocks: 0,
        }
    }

    fn gpu_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> usize {
        hashes
            .iter()
            .take_while(|h| self.gpu.contains_key(h))
            .count()
    }

    fn cpu_prefix_blocks_after(&self, hashes: &[TokenBlockHash], start: usize) -> usize {
        hashes[start..]
            .iter()
            .take_while(|h| self.cpu.contains_key(h))
            .count()
    }

    fn net_prefix_blocks_after(&self, hashes: &[TokenBlockHash], start: usize) -> usize {
        hashes[start..]
            .iter()
            .take_while(|h| self.net.contains_key(h))
            .count()
    }

    /// Specification net admission: insert (or refresh, never demote) one block,
    /// evicting the `(time, hash)`-smallest entry when full.  Zero capacity is inert.
    fn net_insert(&mut self, hash: TokenBlockHash, last_used: SimTime) {
        if self.net_capacity == 0 {
            return;
        }
        if let Some(entry) = self.net.get_mut(&hash) {
            *entry = (*entry).max(last_used);
            return;
        }
        if self.net.len() as u64 >= self.net_capacity {
            let victim = self
                .net
                .iter()
                .map(|(h, t)| (*t, *h))
                .min()
                .expect("full pool has entries");
            self.net.remove(&victim.1);
            self.net_evicted_blocks += 1;
            self.net_generation += 1;
        }
        self.net.insert(hash, last_used);
        self.net_offloaded_blocks += 1;
        self.net_generation += 1;
    }

    /// Specification CPU spill: insert (or refresh, counting a use, never demoting)
    /// one victim, evicting the `(time, hash)`-smallest CPU entry when full — and
    /// cascading that victim into the net tier iff it passes the single-use filter.
    fn spill(&mut self, hash: TokenBlockHash, last_used: SimTime) {
        if self.cpu_capacity == 0 {
            return;
        }
        if let Some(entry) = self.cpu.get_mut(&hash) {
            entry.uses += 1;
            entry.last_used = entry.last_used.max(last_used);
            return;
        }
        if self.cpu.len() as u64 >= self.cpu_capacity {
            let victim = self
                .cpu
                .iter()
                .map(|(h, e)| (e.last_used, *h))
                .min()
                .expect("full pool has entries");
            let entry = self.cpu.remove(&victim.1).expect("victim is resident");
            self.cpu_evicted_blocks += 1;
            self.cpu_generation += 1;
            if entry.uses >= NET_SPILL_MIN_USES {
                self.net_insert(victim.1, victim.0);
            } else {
                self.net_filtered_blocks += 1;
            }
        }
        self.cpu.insert(hash, ShadowCpuEntry { last_used, uses: 1 });
        self.offloaded_blocks += 1;
        self.cpu_generation += 1;
    }

    /// Marks `hashes` GPU-cached and unreferenced at `last_used`, deepest (last)
    /// first.
    fn unreference(&mut self, hashes: &[TokenBlockHash], last_used: SimTime) {
        for hash in hashes.iter().rev() {
            let unreferenced_at = self.next_stamp;
            self.next_stamp += 1;
            self.gpu.insert(
                *hash,
                ShadowGpuEntry {
                    last_used,
                    unreferenced_at,
                },
            );
        }
    }

    /// Specification GPU eviction: full scan, sort by unreference stamp, spill each
    /// victim into the CPU tier at its GPU recency.
    fn evict_gpu(&mut self, count: u64, referenced: &[TokenBlockHash]) {
        let mut victims: Vec<(u64, TokenBlockHash)> = self
            .gpu
            .iter()
            .filter(|(h, _)| !referenced.contains(h))
            .map(|(h, e)| (e.unreferenced_at, *h))
            .collect();
        victims.sort_unstable();
        for (_, hash) in victims.into_iter().take(count as usize) {
            let entry = self.gpu.remove(&hash).expect("victim is resident");
            self.gpu_evicted_blocks += 1;
            self.spill(hash, entry.last_used);
        }
    }

    fn allocate(
        &mut self,
        hashes: &[TokenBlockHash],
        total_tokens: u64,
        now: SimTime,
        policy: RetentionPolicy,
        commit: bool,
    ) -> ShadowOutcome {
        let hits = self.gpu_prefix_blocks(hashes);
        let hit_prefix: Vec<TokenBlockHash> = hashes[..hits].to_vec();
        // Phase 1 pins and touches the reused prefix before any feasibility check;
        // the manager never rolls the timestamps back.  Every way out — rollback,
        // commit or release — hands the prefix back deepest first, at `now`.
        let has_partial = !total_tokens.is_multiple_of(BLOCK_SIZE as u64);
        let needed = (hashes.len() - hits) as u64 + u64::from(has_partial);
        let free = self.gpu_capacity - self.gpu.len() as u64;
        let evictable = (self.gpu.len() - hits) as u64;
        if policy == RetentionPolicy::FullResidency && needed > free + evictable {
            self.unreference(&hit_prefix, now);
            self.failed += 1;
            return ShadowOutcome::Err;
        }

        // Phase 2.5: the reload plans — the CPU continuation of the GPU prefix and
        // the net continuation of *that*, each capped by what can be made resident,
        // each submitted to the shared per-request decision, charged and
        // recency-refreshed before any spill from this very allocation.
        let budget = free + evictable;
        let cached_tokens = (hits * BLOCK_SIZE) as u64;
        let cpu_hits = self.cpu_prefix_blocks_after(hashes, hits) as u64;
        let mut cpu_planned = cpu_hits.min(budget);
        if cpu_planned > 0
            && !reload_decision(&ReloadQuote {
                tier: ReloadTier::Cpu,
                blocks: cpu_planned,
                bytes: cpu_planned * BLOCK_BYTES,
                resident_prefix_tokens: cached_tokens,
                total_tokens,
            })
        {
            self.declined_reload_blocks += cpu_planned;
            cpu_planned = 0;
        }
        let net_start = hits + cpu_hits as usize;
        let mut net_planned = 0;
        if cpu_planned == cpu_hits {
            net_planned =
                (self.net_prefix_blocks_after(hashes, net_start) as u64).min(budget - cpu_planned);
            if net_planned > 0
                && !reload_decision(&ReloadQuote {
                    tier: ReloadTier::Net,
                    blocks: net_planned,
                    bytes: net_planned * BLOCK_BYTES,
                    resident_prefix_tokens: cached_tokens + cpu_planned * BLOCK_SIZE as u64,
                    total_tokens,
                })
            {
                self.declined_reload_blocks += net_planned;
                net_planned = 0;
            }
        }
        for hash in hashes[hits..].iter().take(cpu_planned as usize) {
            let entry = self
                .cpu
                .get_mut(hash)
                .expect("planned reloads are resident");
            entry.uses += 1;
            entry.last_used = entry.last_used.max(now);
        }
        self.reloaded_blocks += cpu_planned;
        self.reloaded_bytes += cpu_planned * BLOCK_BYTES;
        for hash in hashes[net_start..].iter().take(net_planned as usize) {
            let entry = self
                .net
                .get_mut(hash)
                .expect("planned net reloads are resident");
            *entry = (*entry).max(now);
        }
        self.net_reloaded_blocks += net_planned;
        self.net_reloaded_bytes += net_planned * BLOCK_BYTES;

        // Phase 3: evict (spilling down the cascade), then allocate; reloaded blocks
        // come first.
        if needed > free {
            self.evict_gpu((needed - free).min(evictable), &hit_prefix);
        }
        let free = self.gpu_capacity - self.gpu.len() as u64;
        let allocated_full = ((hashes.len() - hits) as u64).min(free);
        if commit {
            for hash in hashes.iter().skip(hits).take(allocated_full as usize).rev() {
                // Blocks beyond the first phase-1 miss can already be GPU-cached; the
                // manager then drops the freshly written (or reloaded) duplicate.
                if !self.gpu.contains_key(hash) {
                    self.unreference(std::slice::from_ref(hash), now);
                    self.committed_blocks += 1;
                }
            }
        }
        self.unreference(&hit_prefix, now);
        ShadowOutcome::Ok {
            cached_tokens,
            reloaded_tokens: cpu_planned * BLOCK_SIZE as u64,
            reloaded_bytes: cpu_planned * BLOCK_BYTES,
            net_reloaded_tokens: net_planned * BLOCK_SIZE as u64,
            net_reloaded_bytes: net_planned * BLOCK_BYTES,
        }
    }
}

/// The hierarchical manager agrees with the flat three-tier specification after every
/// operation: same hit/reload counts, same tier placement for every chain ever seen,
/// same offload statistics, same generation counters, same filter and policy
/// verdicts.
#[test]
fn hierarchical_shadow_model_agreement() {
    let mut total_spills = 0u64;
    let mut total_reloads = 0u64;
    let mut total_cpu_evictions = 0u64;
    let mut total_net_spills = 0u64;
    let mut total_net_filtered = 0u64;
    let mut total_net_reloads = 0u64;
    let mut total_declined = 0u64;
    for seed in 0..96u64 {
        let mut rng = SimRng::seed_from_u64(11_000 + seed);
        let gpu_capacity = rng.gen_range(8u64..96);
        let cpu_capacity = rng.gen_range(0u64..64);
        let net_capacity = rng.gen_range(0u64..192);
        let num_ops = rng.gen_range(1usize..60);
        let mut manager = KvCacheManager::with_offload(
            gpu_capacity,
            BLOCK_SIZE,
            cpu_capacity * BLOCK_BYTES,
            BLOCK_BYTES,
        );
        manager.install_net_pool(NetKvPool::new(net_capacity * BLOCK_BYTES, BLOCK_BYTES));
        let mut shadow = ShadowTiers::new(gpu_capacity, cpu_capacity, net_capacity);
        let mut chains: Vec<Vec<TokenBlockHash>> = Vec::new();

        for serial in 0..num_ops {
            let spec = random_spec(&mut rng);
            let policy = if rng.gen_range(0u32..2) == 0 {
                RetentionPolicy::PrefixBestEffort
            } else {
                RetentionPolicy::FullResidency
            };
            let commit = rng.gen_range(0u32..5) > 0;
            // Coarse timestamps force recency ties in every tier, exercising the
            // CPU and network tiers' (time, hash) tie-break and the GPU queue's
            // independence from it.
            let now = SimTime::from_millis(rng.gen_range(0u64..4) * 10 + serial as u64 / 8);
            let tokens = request_tokens(&spec, serial as u32);
            let hashes = hash_token_blocks(&tokens, BLOCK_SIZE);
            chains.push(hashes.clone());

            let real = manager.allocate_from_hashes_with_policy(
                &hashes,
                tokens.len() as u64,
                now,
                policy,
                &mut |quote| reload_decision(quote),
            );
            let expected = shadow.allocate(&hashes, tokens.len() as u64, now, policy, commit);
            match (real, expected) {
                (
                    Ok(alloc),
                    ShadowOutcome::Ok {
                        cached_tokens,
                        reloaded_tokens,
                        reloaded_bytes,
                        net_reloaded_tokens,
                        net_reloaded_bytes,
                    },
                ) => {
                    assert_eq!(
                        alloc.cached_tokens(),
                        cached_tokens,
                        "seed {seed} op {serial}: GPU hit divergence"
                    );
                    assert_eq!(
                        alloc.reloaded_tokens(),
                        reloaded_tokens,
                        "seed {seed} op {serial}: CPU reload divergence"
                    );
                    assert_eq!(
                        alloc.reloaded_bytes(),
                        reloaded_bytes,
                        "seed {seed} op {serial}: CPU transfer-byte divergence"
                    );
                    assert_eq!(
                        alloc.net_reloaded_tokens(),
                        net_reloaded_tokens,
                        "seed {seed} op {serial}: net reload divergence"
                    );
                    assert_eq!(
                        alloc.net_reloaded_bytes(),
                        net_reloaded_bytes,
                        "seed {seed} op {serial}: net transfer-byte divergence"
                    );
                    if commit {
                        manager.commit(alloc, now);
                    } else {
                        manager.release_uncommitted(alloc);
                    }
                }
                (Err(_), ShadowOutcome::Err) => {}
                (real, _) => panic!(
                    "seed {seed} op {serial}: outcome divergence (real ok={})",
                    real.is_ok()
                ),
            }

            // Tier placement: every chain ever seen hits all three tiers identically.
            assert_eq!(manager.cached_blocks(), shadow.gpu.len() as u64);
            assert_eq!(manager.cpu_resident_blocks(), shadow.cpu.len() as u64);
            assert_eq!(manager.net_resident_blocks(), shadow.net.len() as u64);
            for chain in &chains {
                let hits = manager.lookup_tier_hits_from_hashes(chain);
                let gpu = shadow.gpu_prefix_blocks(chain);
                let cpu = shadow.cpu_prefix_blocks_after(chain, gpu);
                let net = shadow.net_prefix_blocks_after(chain, gpu + cpu);
                assert_eq!(
                    (hits.gpu_blocks, hits.cpu_blocks, hits.net_blocks),
                    (gpu, cpu, net),
                    "seed {seed} op {serial}: tier placement divergence"
                );
            }

            // Statistics and generation counters.
            let stats = manager.stats();
            assert_eq!(stats.committed_blocks, shadow.committed_blocks);
            assert_eq!(stats.evicted_blocks, shadow.gpu_evicted_blocks);
            assert_eq!(stats.failed_allocations, shadow.failed);
            let offload = manager.offload_stats();
            assert_eq!(
                offload.offloaded_blocks, shadow.offloaded_blocks,
                "seed {seed} op {serial}: spill divergence"
            );
            assert_eq!(offload.evicted_blocks, shadow.cpu_evicted_blocks);
            assert_eq!(offload.reloaded_blocks, shadow.reloaded_blocks);
            assert_eq!(offload.reloaded_bytes, shadow.reloaded_bytes);
            assert_eq!(
                offload.net_offloaded_blocks, shadow.net_offloaded_blocks,
                "seed {seed} op {serial}: net admission divergence"
            );
            assert_eq!(
                offload.net_filtered_blocks, shadow.net_filtered_blocks,
                "seed {seed} op {serial}: spill-filter divergence"
            );
            assert_eq!(offload.net_evicted_blocks, shadow.net_evicted_blocks);
            assert_eq!(offload.net_reloaded_blocks, shadow.net_reloaded_blocks);
            assert_eq!(offload.net_reloaded_bytes, shadow.net_reloaded_bytes);
            assert_eq!(
                offload.declined_reload_blocks, shadow.declined_reload_blocks,
                "seed {seed} op {serial}: reload-policy divergence"
            );
            assert_eq!(
                manager.generation(),
                shadow.committed_blocks + shadow.gpu_evicted_blocks,
                "seed {seed} op {serial}: GPU generation divergence"
            );
            assert_eq!(manager.evict_generation(), shadow.gpu_evicted_blocks);
            assert_eq!(
                manager.cpu_generation(),
                shadow.cpu_generation,
                "seed {seed} op {serial}: CPU generation divergence"
            );
            assert_eq!(
                manager.net_generation(),
                shadow.net_generation,
                "seed {seed} op {serial}: net generation divergence"
            );
        }
        let offload = manager.offload_stats();
        total_spills += offload.offloaded_blocks;
        total_reloads += offload.reloaded_blocks;
        total_cpu_evictions += offload.evicted_blocks;
        total_net_spills += offload.net_offloaded_blocks;
        total_net_filtered += offload.net_filtered_blocks;
        total_net_reloads += offload.net_reloaded_blocks;
        total_declined += offload.declined_reload_blocks;
    }
    // Guard against vacuous agreement: the sweep must actually exercise every
    // hierarchical code path.
    assert!(total_spills > 1_000, "spill path under-exercised");
    assert!(total_reloads > 100, "reload path under-exercised");
    assert!(total_cpu_evictions > 100, "CPU eviction under-exercised");
    assert!(total_net_spills > 50, "net admission under-exercised");
    assert!(total_net_filtered > 50, "spill filter under-exercised");
    assert!(total_net_reloads > 10, "net reload under-exercised");
    assert!(total_declined > 50, "reload-policy decline under-exercised");
}

/// The memoising probe stays transparent when the full hierarchy is active: under
/// random interleavings of hierarchical allocations over a pre-warmed network tier,
/// `ProbeCache::tier_hits` always agrees with a fresh three-tier walk.  Chains longer
/// than two 64-block checkpoints, sharing a prefix that ends before, at and after a
/// checkpoint boundary, are probed under several request ids, so the cross-request
/// checkpoint memo is exercised across commits, evictions and spills.  Some
/// allocations stay in flight for several steps, pinning their prefixes across
/// probes and other requests' evictions, before they commit or release.
#[test]
fn probe_matches_tier_walk_under_offload() {
    use kvcache::{ProbeCache, RequestKv};

    let mut deep_probes = 0usize;
    for seed in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(23_000 + seed);
        let gpu_capacity = rng.gen_range(8u64..400);
        let cpu_capacity = rng.gen_range(0u64..300);
        let net_capacity = rng.gen_range(0u64..600);
        let mut kv = KvCacheManager::with_offload(
            gpu_capacity,
            BLOCK_SIZE,
            cpu_capacity * BLOCK_BYTES,
            BLOCK_BYTES,
        );
        let mut probe = ProbeCache::new();
        let mut chains: Vec<Vec<TokenBlockHash>> = (0..6u32)
            .map(|user| {
                let mut toks: Vec<u32> =
                    (user / 2 * 100_000..user / 2 * 100_000 + 16 * ((user % 3) + 2)).collect();
                toks.extend(900_000 + user * 10_000..900_000 + user * 10_000 + 48);
                hash_token_blocks(&toks, BLOCK_SIZE)
            })
            .collect();
        // Long chains over one 200-block base, diverging at these block depths.
        let block = BLOCK_SIZE as u32;
        chains.push(hash_token_blocks(
            &(0..200 * block).collect::<Vec<u32>>(),
            BLOCK_SIZE,
        ));
        for diverge in [40u32, 64, 90, 128, 140] {
            let mut toks: Vec<u32> = (0..diverge * block).collect();
            let suffix = 2_000_000 + diverge * 10_000;
            toks.extend(suffix..suffix + 100 * block);
            chains.push(hash_token_blocks(&toks, BLOCK_SIZE));
        }
        // Pre-warm the shared tier with one chain (another instance's contribution),
        // so net hits occur even before the local cascade feeds the tier.
        let mut net = NetKvPool::new(net_capacity * BLOCK_BYTES, BLOCK_BYTES);
        net.offload(&chains[0], SimTime::ZERO);
        kv.install_net_pool(net);

        // Allocations in flight: the step they finish at, whether they commit.
        let mut in_flight: Vec<(u64, bool, RequestKv)> = Vec::new();
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
            match rng.gen_range(0u32..4) {
                0 => {
                    let request_id = idx as u64 + chains.len() as u64 * rng.gen_range(0u64..3);
                    let got = probe.tier_hits(&kv, request_id, &chains[idx]);
                    let want = kv.lookup_tier_hits_from_hashes(&chains[idx]);
                    assert_eq!(got, want, "seed {seed} step {step}");
                    deep_probes += usize::from(want.gpu_blocks >= 64);
                }
                1 => {
                    // Pin the chain's cached prefix for a few steps, then commit or
                    // release the allocation.
                    let total = chains[idx].len() as u64 * BLOCK_SIZE as u64;
                    let alloc = kv
                        .allocate_from_hashes(
                            &chains[idx],
                            total,
                            now,
                            RetentionPolicy::PrefixBestEffort,
                        )
                        .expect("best effort never fails");
                    let finish = step + rng.gen_range(1u64..8);
                    in_flight.push((finish, rng.gen_range(0u32..4) != 0, alloc));
                }
                2 => {
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
