//! Randomized property tests for the KV-cache manager.
//!
//! The registry-less build cannot use `proptest`, so each property runs over a seeded
//! sweep of randomly generated request mixes.  The heavyweight property here is
//! [`shadow_model_agreement`]: an executable specification of the manager that selects
//! eviction victims from a flat free-block order — every block stamped when it last
//! became unreferenced, a request's blocks stamped deepest first — is replayed
//! against every operation, proving that the manager's linked free-block queue
//! always evicts exactly the same victims.  Each operation here commits or releases
//! before the next one starts; the in-flight interleavings (pins held across other
//! requests' evictions) are model-checked by the manager's own unit tests.

use std::collections::HashMap;

use simcore::{SimRng, SimTime};

use kvcache::{
    hash_token_blocks, BlockId, BlockPool, KvCacheManager, RetentionPolicy, TokenBlockHash,
};

const BLOCK_SIZE: usize = 16;

/// A compact description of a synthetic request: which "user" prefix it extends and how
/// long the prefix / suffix are.
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
        prefix_tokens: rng.gen_range(16u16..512),
        suffix_tokens: rng.gen_range(0u16..128),
    }
}

/// No matter the request mix, the pool never over-allocates, cached tokens never exceed
/// request length, and statistics stay consistent.
#[test]
fn pool_accounting_invariants() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let capacity_blocks = rng.gen_range(8u64..256);
        let policy = if rng.gen_range(0u32..2) == 0 {
            RetentionPolicy::PrefixBestEffort
        } else {
            RetentionPolicy::FullResidency
        };
        let num_specs = rng.gen_range(1usize..40);
        let specs: Vec<RequestSpec> = (0..num_specs).map(|_| random_spec(&mut rng)).collect();

        let mut manager = KvCacheManager::new(capacity_blocks, BLOCK_SIZE);
        let mut offered_tokens = 0u64;
        for (serial, spec) in specs.iter().enumerate() {
            let tokens = request_tokens(spec, serial as u32);
            let now = SimTime::from_millis(serial as u64 * 10);
            match manager.allocate(&tokens, now, policy) {
                Ok(alloc) => {
                    offered_tokens += alloc.total_tokens();
                    assert!(alloc.cached_tokens() <= alloc.total_tokens());
                    assert!(alloc.resident_tokens() <= alloc.total_tokens());
                    assert!(alloc.resident_blocks() <= capacity_blocks);
                    assert_eq!(
                        alloc.total_tokens(),
                        alloc.resident_tokens() + alloc.discarded_tokens()
                    );
                    if policy == RetentionPolicy::FullResidency {
                        assert_eq!(alloc.discarded_tokens(), 0);
                    }
                    manager.commit(alloc, now);
                }
                Err(err) => {
                    // Only full residency may fail, and only when the request really
                    // does not fit next to the currently referenced blocks.
                    assert_eq!(policy, RetentionPolicy::FullResidency);
                    assert!(err.needed_blocks > err.available_blocks);
                }
            }
            // Global accounting invariants hold after every step.
            assert!(manager.cached_blocks() <= capacity_blocks);
            assert!(manager.free_blocks() <= capacity_blocks);
            let stats = manager.stats();
            assert_eq!(stats.hit_tokens + stats.miss_tokens, offered_tokens);
        }
    }
}

/// Looking up a prefix never reports more cached tokens than the full-block part of the
/// request, and a repeat lookup right after commit hits every full block.
#[test]
fn lookup_is_bounded_and_warm_after_commit() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(1000 + seed);
        let spec = random_spec(&mut rng);
        let capacity_blocks = rng.gen_range(64u64..512);
        let mut manager = KvCacheManager::new(capacity_blocks, BLOCK_SIZE);
        let tokens = request_tokens(&spec, 0);
        let full_block_tokens = (tokens.len() / BLOCK_SIZE * BLOCK_SIZE) as u64;

        assert_eq!(manager.lookup_cached_tokens(&tokens), 0);
        let alloc = manager
            .allocate(&tokens, SimTime::ZERO, RetentionPolicy::FullResidency)
            .expect("capacity chosen to fit");
        manager.commit(alloc, SimTime::ZERO);
        let warm = manager.lookup_cached_tokens(&tokens);
        assert_eq!(warm, full_block_tokens);
        assert!(warm <= tokens.len() as u64);
    }
}

/// The rolling block hash is a pure function of the token prefix: extending a request
/// never changes the hashes of earlier blocks.
#[test]
fn hash_chain_is_prefix_stable() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(2000 + seed);
        let len = rng.gen_range(0usize..600);
        let extra_len = rng.gen_range(0usize..100);
        let tokens: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..1_000_000)).collect();
        let extra: Vec<u32> = (0..extra_len)
            .map(|_| rng.gen_range(0u32..1_000_000))
            .collect();
        let base = hash_token_blocks(&tokens, BLOCK_SIZE);
        let mut extended_tokens = tokens.clone();
        extended_tokens.extend(&extra);
        let extended = hash_token_blocks(&extended_tokens, BLOCK_SIZE);
        assert!(extended.len() >= base.len());
        assert_eq!(&extended[..base.len()], &base[..]);
    }
}

/// The flat-`Vec` block pool preserves the observable behaviour of the reference
/// map-based specification under arbitrary allocate / add_ref / dec_ref / release
/// sequences: same allocation successes, same counts, same capacity accounting.
#[test]
fn block_pool_matches_map_reference() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(7_000 + seed);
        let total = rng.gen_range(1u64..48);
        let mut pool = BlockPool::new(total);
        // Reference model: block id -> reference count, plus the insertion-ordered
        // live set used to pick random operation targets deterministically.
        let mut reference: HashMap<BlockId, u32> = HashMap::new();
        let mut live: Vec<BlockId> = Vec::new();

        for step in 0..400 {
            match rng.gen_range(0u32..4) {
                0 => {
                    let got = pool.allocate();
                    if (reference.len() as u64) < total {
                        let id = got.expect("pool below capacity must allocate");
                        assert!(
                            reference.insert(id, 1).is_none(),
                            "seed {seed} step {step}: reallocated a live id"
                        );
                        live.push(id);
                    } else {
                        assert!(got.is_none(), "seed {seed} step {step}: over-allocated");
                    }
                }
                1 if !live.is_empty() => {
                    let id = live[rng.gen_range(0usize..live.len())];
                    pool.add_ref(id);
                    *reference.get_mut(&id).unwrap() += 1;
                }
                2 if !live.is_empty() => {
                    let id = live[rng.gen_range(0usize..live.len())];
                    let count = reference.get_mut(&id).unwrap();
                    if *count > 0 {
                        *count -= 1;
                        assert_eq!(pool.dec_ref(id), *count, "seed {seed} step {step}");
                    }
                }
                3 if !live.is_empty() => {
                    let idx = rng.gen_range(0usize..live.len());
                    let id = live[idx];
                    if reference[&id] == 0 {
                        pool.release(id);
                        reference.remove(&id);
                        live.swap_remove(idx);
                    }
                }
                _ => {}
            }
            assert_eq!(pool.allocated_blocks(), reference.len() as u64);
            assert_eq!(pool.free_blocks(), total - reference.len() as u64);
            assert_eq!(pool.total_blocks(), total);
            for (&id, &count) in &reference {
                assert_eq!(pool.ref_count(id), Some(count), "seed {seed} step {step}");
            }
        }
        // Every id the pool reports as dead really is dead.
        for probe in 0..64 {
            let id = BlockId(probe);
            assert_eq!(pool.ref_count(id), reference.get(&id).copied());
        }
    }
}

/// Executable specification of the manager over commit-immediately workloads.
///
/// Eviction victims are the unreferenced cached blocks in the order they became
/// unreferenced: collect them, sort by that stamp, take the first `k`.  A request
/// pins its hit prefix, and hands its blocks back deepest first — its newly cached
/// blocks, then its hit prefix, each in reverse chain order.
struct ShadowCache {
    capacity_blocks: u64,
    /// Cached prefix entries: hash -> the stamp at which the block last became
    /// unreferenced.  Between operations every cached block is unreferenced because
    /// the test loop commits or releases immediately.
    cached: HashMap<TokenBlockHash, u64>,
    next_stamp: u64,
    evicted_blocks: u64,
    committed_blocks: u64,
    failed: u64,
}

enum ShadowOutcome {
    Ok { cached_tokens: u64 },
    Err,
}

impl ShadowCache {
    fn new(capacity_blocks: u64) -> ShadowCache {
        ShadowCache {
            capacity_blocks,
            cached: HashMap::new(),
            next_stamp: 0,
            evicted_blocks: 0,
            committed_blocks: 0,
            failed: 0,
        }
    }

    fn lookup_blocks(&self, hashes: &[TokenBlockHash]) -> usize {
        hashes
            .iter()
            .take_while(|h| self.cached.contains_key(h))
            .count()
    }

    /// Marks `hashes` unreferenced, deepest (last) first.
    fn unreference(&mut self, hashes: &[TokenBlockHash]) {
        for hash in hashes.iter().rev() {
            self.cached.insert(*hash, self.next_stamp);
            self.next_stamp += 1;
        }
    }

    /// Specification victim selection: full scan, sort by unreference stamp.
    fn evict(&mut self, count: u64, referenced: &[TokenBlockHash]) {
        let mut victims: Vec<(u64, TokenBlockHash)> = self
            .cached
            .iter()
            .filter(|(h, _)| !referenced.contains(h))
            .map(|(h, stamp)| (*stamp, *h))
            .collect();
        victims.sort_unstable();
        for (_, hash) in victims.into_iter().take(count as usize) {
            self.cached.remove(&hash);
            self.evicted_blocks += 1;
        }
    }

    fn allocate_commit(
        &mut self,
        hashes: &[TokenBlockHash],
        total_tokens: u64,
        policy: RetentionPolicy,
        commit: bool,
    ) -> ShadowOutcome {
        let hits = self.lookup_blocks(hashes);
        let hit_prefix: Vec<TokenBlockHash> = hashes[..hits].to_vec();
        let has_partial = !total_tokens.is_multiple_of(BLOCK_SIZE as u64);
        let needed = (hashes.len() - hits) as u64 + u64::from(has_partial);
        let free = self.capacity_blocks - self.cached.len() as u64;
        if policy == RetentionPolicy::FullResidency {
            let evictable = (self.cached.len() - hits) as u64;
            if needed > free + evictable {
                // The rollback unpins the hit prefix.
                self.unreference(&hit_prefix);
                self.failed += 1;
                return ShadowOutcome::Err;
            }
        }
        if needed > free {
            self.evict(
                (needed - free).min((self.cached.len() - hits) as u64),
                &hit_prefix,
            );
        }
        let free = self.capacity_blocks - self.cached.len() as u64;
        let new_full = ((hashes.len() - hits) as u64).min(free);
        if commit {
            for hash in hashes.iter().skip(hits).take(new_full as usize).rev() {
                // A block beyond the first phase-1 miss can already be cached (the
                // prefix walk stops at the first miss, not at the last hit).  The
                // manager then drops the freshly written duplicate and leaves the
                // existing entry — including its place in the queue — untouched.
                if !self.cached.contains_key(hash) {
                    self.unreference(std::slice::from_ref(hash));
                    self.committed_blocks += 1;
                }
            }
        }
        self.unreference(&hit_prefix);
        ShadowOutcome::Ok {
            cached_tokens: (hits * BLOCK_SIZE) as u64,
        }
    }
}

/// The real manager agrees with the flat free-order shadow specification after every
/// single operation: same success/failure, same cache-hit counts, same cached-block set (and
/// therefore the same eviction victims), same statistics.
#[test]
fn shadow_model_agreement() {
    for seed in 0..96u64 {
        let mut rng = SimRng::seed_from_u64(3000 + seed);
        let capacity_blocks = rng.gen_range(8u64..128);
        let num_ops = rng.gen_range(1usize..60);
        let mut manager = KvCacheManager::new(capacity_blocks, BLOCK_SIZE);
        let mut shadow = ShadowCache::new(capacity_blocks);
        let mut chains: Vec<Vec<u32>> = Vec::new();

        for serial in 0..num_ops {
            let spec = random_spec(&mut rng);
            let policy = if rng.gen_range(0u32..2) == 0 {
                RetentionPolicy::PrefixBestEffort
            } else {
                RetentionPolicy::FullResidency
            };
            let commit = rng.gen_range(0u32..5) > 0;
            // Coarse timestamps make whole chains tie on last_used, which must not
            // change the victim order.
            let now = SimTime::from_millis(rng.gen_range(0u64..4) * 10 + serial as u64 / 8);
            let tokens = request_tokens(&spec, serial as u32);
            let hashes = hash_token_blocks(&tokens, BLOCK_SIZE);
            chains.push(tokens.clone());

            let real = manager.allocate(&tokens, now, policy);
            let expected = shadow.allocate_commit(&hashes, tokens.len() as u64, policy, commit);
            match (real, expected) {
                (Ok(alloc), ShadowOutcome::Ok { cached_tokens }) => {
                    assert_eq!(
                        alloc.cached_tokens(),
                        cached_tokens,
                        "seed {seed} op {serial}: hit divergence"
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

            // The cached sets agree exactly: every chain hits to the same depth.
            assert_eq!(
                manager.cached_blocks(),
                shadow.cached.len() as u64,
                "seed {seed} op {serial}: cached-block count divergence"
            );
            for chain in &chains {
                let chain_hashes = hash_token_blocks(chain, BLOCK_SIZE);
                assert_eq!(
                    manager.lookup_cached_tokens(chain),
                    (shadow.lookup_blocks(&chain_hashes) * BLOCK_SIZE) as u64,
                    "seed {seed} op {serial}: lookup divergence"
                );
            }
            let stats = manager.stats();
            assert_eq!(stats.evicted_blocks, shadow.evicted_blocks);
            assert_eq!(stats.committed_blocks, shadow.committed_blocks);
            assert_eq!(stats.failed_allocations, shadow.failed);
        }
    }
}
