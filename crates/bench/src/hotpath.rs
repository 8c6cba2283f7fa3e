//! Shared hot-path benchmark scenario: a deep calibrated-scheduling queue over a
//! warmed prefix cache, plus the two [`CacheProbe`] adapters being compared (the
//! seed's full hash-chain walk vs the memoised incremental probe), and the same
//! queue right after one eviction ([`AfterEviction`]): of an unrelated block, which
//! every memoised result survives, or of one cohort's prefix tail, which that
//! cohort's requests re-walk through the shared-prefix checkpoint memo.  Next to it
//! sit the KV manager's pin/unpin path ([`WarmChain`]) and its eviction path
//! ([`ThrashChains`]).
//!
//! Used by the `scheduler_step` and `kvcache_ops` criterion benches and the
//! `bench_baseline` perf-trajectory emitter so they always measure the same
//! scenarios.

use std::cell::RefCell;
use std::collections::HashMap;

use kvcache::{hash_token_blocks, KvCacheManager, ProbeCache, RetentionPolicy, TokenBlockHash};
use scheduler::{CacheProbe, SchedulingPolicy, WaitingRequest};
use simcore::{SimDuration, SimTime};

/// KV block size used across the hot-path scenarios.
pub const BLOCK_SIZE: usize = 16;

/// Number of distinct shared-prefix cohorts in [`cohort_cache`].
pub const COHORTS: u64 = 8;

/// The seed implementation's probe: a full hash-chain walk on every query.
pub struct FullWalkProbe<'a> {
    /// The manager to probe.
    pub kv: &'a KvCacheManager,
    /// Per-request hash chains.
    pub hashes: &'a HashMap<u64, Vec<TokenBlockHash>>,
}

impl CacheProbe for FullWalkProbe<'_> {
    fn cached_tokens(&self, request: &WaitingRequest) -> u64 {
        self.hashes
            .get(&request.id)
            .map(|hashes| self.kv.lookup_cached_tokens_from_hashes(hashes))
            .unwrap_or(0)
    }
}

/// The incremental probe: O(1) per query while nothing was committed and no
/// eviction reached the request's hit prefix.
pub struct MemoProbe<'a> {
    /// The manager to probe.
    pub kv: &'a KvCacheManager,
    /// Per-request hash chains.
    pub hashes: &'a HashMap<u64, Vec<TokenBlockHash>>,
    /// The memoised probe state.
    pub memo: &'a RefCell<ProbeCache>,
}

impl CacheProbe for MemoProbe<'_> {
    fn cached_tokens(&self, request: &WaitingRequest) -> u64 {
        self.hashes
            .get(&request.id)
            .map(|hashes| {
                self.memo
                    .borrow_mut()
                    .cached_tokens(self.kv, request.id, hashes)
            })
            .unwrap_or(0)
    }
}

/// A waiting queue of `depth` requests with staggered arrivals and mixed lengths.
pub fn calibrated_queue(depth: usize) -> Vec<WaitingRequest> {
    (0..depth as u64)
        .map(|id| WaitingRequest {
            id,
            arrival: SimTime::from_millis(id * 7),
            total_tokens: 4_000 + (id % 40) * 500,
            decode_tokens: 0,
            cached_tokens_at_arrival: 0,
        })
        .collect()
}

/// Builds the probe scenario for `queue`: each request belongs to one of
/// [`COHORTS`] cohorts sharing a 4k-token prefix, and the cache is warmed with
/// every cohort's prefix so calibrated probes hit 4,000 tokens deep.
///
/// Returns the warmed manager and the per-request hash chains.
pub fn cohort_cache(
    queue: &[WaitingRequest],
    now: SimTime,
) -> (KvCacheManager, HashMap<u64, Vec<TokenBlockHash>>) {
    let mut kv = KvCacheManager::new(64 * 1024, BLOCK_SIZE);
    warm_cohorts(&mut kv, now);
    (kv, cohort_chains(queue))
}

/// Which block the eviction of an [`AfterEviction`] sample takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    /// One block no waiting request shares, committed before every cohort
    /// prefix: it has the lowest queue stamp, so its eviction reaches no memoised
    /// prefix and every memoised probe result survives.
    Unrelated,
    /// The tail block of cohort 0's prefix, the first block its commit queued:
    /// cohort 0's requests (one in [`COHORTS`]) must re-walk their chains, and the
    /// other cohorts' results survive.
    PrefixTail,
}

/// The `after_eviction` and `after_prefix_eviction` scenarios: [`cohort_cache`] in
/// a pool that is full but for one block, whose free-block queue head is the
/// [`Victim`], and a probe memo warmed by one select before anything is evicted.
/// Each [`Self::sample`] evicts exactly that block from a copy of the pool.
pub struct AfterEviction {
    kv: KvCacheManager,
    /// Per-request hash chains.
    pub hashes: HashMap<u64, Vec<TokenBlockHash>>,
    warm: RefCell<ProbeCache>,
    victim: Victim,
}

impl AfterEviction {
    /// Builds the pool for `queue` and warms the memo with one `policy` select.
    pub fn new(
        policy: &dyn SchedulingPolicy,
        queue: &[WaitingRequest],
        now: SimTime,
        victim: Victim,
    ) -> AfterEviction {
        let prefix_blocks = COHORTS * COHORT_PREFIX_BLOCKS as u64;
        let unrelated = victim == Victim::Unrelated;
        let mut kv = KvCacheManager::new(prefix_blocks + 1 + u64::from(unrelated), BLOCK_SIZE);
        if unrelated {
            let block: Vec<u32> = (3_000_000_000..3_000_000_000 + BLOCK_SIZE as u32).collect();
            let alloc = kv
                .allocate(&block, SimTime::ZERO, RetentionPolicy::FullResidency)
                .expect("the pool holds the unrelated block");
            kv.commit(alloc, SimTime::ZERO);
        }
        warm_cohorts(&mut kv, now);
        let hashes = cohort_chains(queue);
        let warm = RefCell::new(ProbeCache::new());
        let probe = MemoProbe {
            kv: &kv,
            hashes: &hashes,
            memo: &warm,
        };
        policy.select(queue, now, &probe);
        AfterEviction {
            kv,
            hashes,
            warm,
            victim,
        }
    }

    /// The untimed set-up of one sample: a copy of the pool with the victim
    /// evicted, and a copy of the warm memo.  A two-block request needs one block
    /// more than is free, so its allocation evicts the head of the free-block queue;
    /// the request is then released without caching anything.
    pub fn sample(&self, now: SimTime) -> (KvCacheManager, RefCell<ProbeCache>) {
        let mut kv = self.kv.clone();
        let request: Vec<u32> = (3_100_000_000..3_100_000_000 + 2 * BLOCK_SIZE as u32).collect();
        let alloc = kv
            .allocate(&request, now, RetentionPolicy::FullResidency)
            .expect("evicting the victim makes room");
        kv.release_uncommitted(alloc);
        assert_eq!(
            kv.stats().evicted_blocks,
            self.kv.stats().evicted_blocks + 1,
            "exactly the victim leaves the cache"
        );
        let cohort_0 = &self.hashes[&0];
        let want = match self.victim {
            Victim::Unrelated => COHORT_PREFIX_BLOCKS,
            Victim::PrefixTail => COHORT_PREFIX_BLOCKS - 1,
        };
        assert_eq!(
            kv.lookup_cached_blocks_from_hashes(cohort_0),
            want,
            "cohort 0's cached prefix after the eviction"
        );
        (kv, self.warm.clone())
    }
}

/// The pin/unpin path of the KV manager: a chain of full blocks, already cached,
/// allocated again one microsecond later than last time and committed, over and over
/// on one manager.  Each round pins and unpins every block of the chain.  The chain
/// is hashed once up front, so no round pays for hashing.
pub struct WarmChain {
    kv: KvCacheManager,
    hashes: Vec<TokenBlockHash>,
    now: SimTime,
}

impl WarmChain {
    /// Caches a chain of `blocks` full blocks in a pool four times its size.
    pub fn new(blocks: usize) -> WarmChain {
        let tokens: Vec<u32> = (0..(blocks * BLOCK_SIZE) as u32).collect();
        let mut chain = WarmChain {
            kv: KvCacheManager::new(4 * blocks as u64, BLOCK_SIZE),
            hashes: hash_token_blocks(&tokens, BLOCK_SIZE),
            now: SimTime::ZERO,
        };
        chain.allocate_commit();
        chain
    }

    /// One round: allocates the chain at the next microsecond and commits it.
    /// Returns how many blocks the allocation found cached.
    pub fn allocate_commit(&mut self) -> u64 {
        self.now += SimDuration::from_micros(1);
        let tokens = (self.hashes.len() * BLOCK_SIZE) as u64;
        let alloc = self
            .kv
            .allocate_from_hashes(
                &self.hashes,
                tokens,
                self.now,
                RetentionPolicy::FullResidency,
            )
            .expect("the pool holds the chain");
        let cached = alloc.cached_tokens() / BLOCK_SIZE as u64;
        self.kv.commit(alloc, self.now);
        cached
    }
}

/// The eviction path of the KV manager: a full pool cycling round-robin through
/// more distinct chains than it holds, each allocated one microsecond later than
/// the last and committed.  Every round misses the cache, evicts one whole chain —
/// the oldest — and caches its own: the per-slot shape of the 1M-request replay,
/// whose ~3,300-block pools see ~312 distinct 40-block prefixes at a GPU hit rate
/// of 0.000.  The chains are hashed once up front, so no round pays for hashing.
pub struct ThrashChains {
    kv: KvCacheManager,
    chains: Vec<Vec<TokenBlockHash>>,
    next: usize,
    now: SimTime,
}

impl ThrashChains {
    /// Fills a pool of `pool_chains × chain_blocks` blocks by cycling through
    /// `chains` distinct chains of `chain_blocks` full blocks each.
    ///
    /// # Panics
    ///
    /// Panics unless `chains > pool_chains`, which is what makes every round miss.
    pub fn new(pool_chains: u64, chains: usize, chain_blocks: usize) -> ThrashChains {
        assert!(
            chains as u64 > pool_chains,
            "the chains must outnumber what the pool holds"
        );
        let chains = (0..chains as u32)
            .map(|chain| {
                let start = 2_000_000_000 + chain * 1_000_000;
                let tokens: Vec<u32> =
                    (start..start + (chain_blocks * BLOCK_SIZE) as u32).collect();
                hash_token_blocks(&tokens, BLOCK_SIZE)
            })
            .collect();
        let mut thrash = ThrashChains {
            kv: KvCacheManager::new(pool_chains * chain_blocks as u64, BLOCK_SIZE),
            chains,
            next: 0,
            now: SimTime::ZERO,
        };
        for _ in 0..pool_chains {
            thrash.allocate_commit();
        }
        assert_eq!(
            thrash.allocate_commit(),
            chain_blocks as u64,
            "a round on the full pool evicts one whole chain"
        );
        thrash
    }

    /// One round: allocates the next chain at the next microsecond and commits it.
    /// Returns how many blocks the allocation evicted.
    pub fn allocate_commit(&mut self) -> u64 {
        self.now += SimDuration::from_micros(1);
        let hashes = &self.chains[self.next];
        self.next = (self.next + 1) % self.chains.len();
        let evicted = self.kv.stats().evicted_blocks;
        let alloc = self
            .kv
            .allocate_from_hashes(
                hashes,
                (hashes.len() * BLOCK_SIZE) as u64,
                self.now,
                RetentionPolicy::FullResidency,
            )
            .expect("the pool holds a chain");
        debug_assert_eq!(alloc.cached_tokens(), 0, "every round misses");
        self.kv.commit(alloc, self.now);
        self.kv.stats().evicted_blocks - evicted
    }
}

/// Tokens of each cohort's shared prefix.
const COHORT_PREFIX_TOKENS: u32 = 4_000;

/// Full blocks of each cohort's shared prefix.
const COHORT_PREFIX_BLOCKS: usize = COHORT_PREFIX_TOKENS as usize / BLOCK_SIZE;

fn cohort_prefix(cohort: u32) -> Vec<u32> {
    (cohort * 1_000_000..cohort * 1_000_000 + COHORT_PREFIX_TOKENS).collect()
}

/// Each request's chain: its cohort's prefix, then tokens of its own.
fn cohort_chains(queue: &[WaitingRequest]) -> HashMap<u64, Vec<TokenBlockHash>> {
    queue
        .iter()
        .map(|request| {
            let mut tokens = cohort_prefix((request.id % COHORTS) as u32);
            let own = 900_000_000 + request.id as u32 * 10_000;
            tokens.extend(own..own + request.total_tokens as u32 - COHORT_PREFIX_TOKENS);
            (request.id, hash_token_blocks(&tokens, BLOCK_SIZE))
        })
        .collect()
}

/// Commits every cohort's prefix at `now`.
fn warm_cohorts(kv: &mut KvCacheManager, now: SimTime) {
    for cohort in 0..COHORTS as u32 {
        let alloc = kv
            .allocate(&cohort_prefix(cohort), now, RetentionPolicy::FullResidency)
            .expect("pool is large enough for every cohort prefix");
        kv.commit(alloc, now);
    }
}
