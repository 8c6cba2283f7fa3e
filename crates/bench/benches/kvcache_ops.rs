//! Criterion bench: KV-cache manager operations — block hashing, prefix lookup,
//! allocate/commit cycles and eviction-heavy allocation under cache pressure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kvcache::{hash_token_blocks, KvCacheManager, RetentionPolicy};
use prefillonly_bench::hotpath::WarmChain;
use simcore::SimTime;

const BLOCK_SIZE: usize = 16;

fn tokens(start: u32, len: usize) -> Vec<u32> {
    (start..start + len as u32).collect()
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_token_blocks");
    for len in [1_000usize, 16_000, 60_000] {
        let toks = tokens(0, len);
        group.bench_with_input(BenchmarkId::from_parameter(len), &toks, |b, t| {
            b.iter(|| std::hint::black_box(hash_token_blocks(t, BLOCK_SIZE)))
        });
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    // Warm a manager with one long prefix, then probe with requests sharing it.
    let mut manager = KvCacheManager::new(8_192, BLOCK_SIZE);
    let profile = tokens(0, 16_000);
    let alloc = manager
        .allocate(&profile, SimTime::ZERO, RetentionPolicy::FullResidency)
        .expect("pool is large enough");
    manager.commit(alloc, SimTime::ZERO);
    let mut probe_tokens = profile.clone();
    probe_tokens.extend(tokens(1_000_000, 150));
    let hashes = hash_token_blocks(&probe_tokens, BLOCK_SIZE);

    let mut group = c.benchmark_group("prefix_lookup");
    group.bench_function("hit_16k_prefix", |b| {
        b.iter(|| std::hint::black_box(manager.lookup_cached_tokens_from_hashes(&hashes)))
    });
    let cold = hash_token_blocks(&tokens(5_000_000, 16_000), BLOCK_SIZE);
    group.bench_function("miss_first_block", |b| {
        b.iter(|| std::hint::black_box(manager.lookup_cached_tokens_from_hashes(&cold)))
    });
    group.finish();
}

fn bench_allocate_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocate_commit");
    group.bench_function("cold_16k_request", |b| {
        b.iter_with_setup(
            || (KvCacheManager::new(4_096, BLOCK_SIZE), tokens(0, 16_000)),
            |(mut manager, toks)| {
                let alloc = manager
                    .allocate(&toks, SimTime::ZERO, RetentionPolicy::FullResidency)
                    .expect("fits");
                manager.commit(alloc, SimTime::ZERO);
                std::hint::black_box(manager.cached_blocks())
            },
        )
    });
    // The pin/unpin path: the same 1,000-block chain allocated again, fully cached,
    // and committed, round after round on one manager.
    let mut warm = WarmChain::new(1_000);
    group.bench_function("warm_16k_request", |b| {
        b.iter(|| std::hint::black_box(warm.allocate_commit()))
    });
    group.bench_function("eviction_pressure", |b| {
        b.iter_with_setup(
            || {
                // Pool holds ~2 requests; committing a third forces a large LRU batch
                // eviction.
                let mut manager = KvCacheManager::new(2_200, BLOCK_SIZE);
                for (i, start) in [(0u64, 0u32), (1, 1_000_000)] {
                    let alloc = manager
                        .allocate(
                            &tokens(start, 16_000),
                            SimTime::from_secs(i),
                            RetentionPolicy::FullResidency,
                        )
                        .expect("fits");
                    manager.commit(alloc, SimTime::from_secs(i));
                }
                manager
            },
            |mut manager| {
                let alloc = manager
                    .allocate(
                        &tokens(2_000_000, 16_000),
                        SimTime::from_secs(10),
                        RetentionPolicy::FullResidency,
                    )
                    .expect("evicts and fits");
                manager.commit(alloc, SimTime::from_secs(10));
                std::hint::black_box(manager.stats().evicted_blocks)
            },
        )
    });
    group.finish();
}

/// The tentpole measurement: evicting a fixed-size batch (100 blocks) from caches of
/// very different sizes.  With the ordered LRU index the cost depends only on the
/// batch size — the seed implementation scanned and sorted the whole cache, so its
/// cost grew linearly with the number of cached blocks.
fn bench_eviction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("evict_100_blocks_from_cache_of");
    for cached_blocks in [2_048u64, 16_384, 131_072] {
        // Fill a pool to the brim with distinct cached chains, leaving no free blocks,
        // so the next allocation must evict exactly its own footprint.
        let mut manager = KvCacheManager::new(cached_blocks, BLOCK_SIZE);
        let chain_blocks = 512usize;
        for chain in 0..cached_blocks / chain_blocks as u64 {
            let start = chain as u32 * 10_000_000;
            let alloc = manager
                .allocate(
                    &tokens(start, chain_blocks * BLOCK_SIZE),
                    SimTime::from_secs(chain),
                    RetentionPolicy::FullResidency,
                )
                .expect("chains are sized to fill the pool exactly");
            manager.commit(alloc, SimTime::from_secs(chain));
        }
        assert_eq!(manager.free_blocks(), 0);
        assert_eq!(manager.cached_blocks(), cached_blocks);

        let request = tokens(4_000_000_000u32.wrapping_sub(1_000_000), 100 * BLOCK_SIZE);
        group.bench_with_input(
            BenchmarkId::from_parameter(cached_blocks),
            &request,
            |b, request| {
                b.iter_with_setup(
                    || manager.clone(),
                    |mut manager| {
                        let alloc = manager
                            .allocate(
                                request,
                                SimTime::from_secs(1_000_000),
                                RetentionPolicy::FullResidency,
                            )
                            .expect("eviction makes room");
                        std::hint::black_box(manager.stats().evicted_blocks);
                        manager.release_uncommitted(alloc);
                        // Returning the manager moves its O(n) teardown out of the
                        // timed region, leaving only the eviction + allocation cost.
                        manager
                    },
                )
            },
        );
    }
    group.finish();
}

/// Hierarchical-tier hot path: allocating a request whose 100-block prefix was
/// evicted to CPU memory.  The allocation spills 100 fresh victims *and* rehydrates
/// the 100 CPU-resident blocks, so the measurement covers both directions of the
/// host link bookkeeping at growing CPU-pool sizes.
fn bench_offload_reload(c: &mut Criterion) {
    const BLOCK_BYTES: u64 = 16 * 128 * 1024;
    let mut group = c.benchmark_group("offload_reload");
    for cpu_blocks in [2_048u64, 16_384, 131_072] {
        // GPU pool of 2,048 blocks, CPU tier pre-populated to `cpu_blocks` by
        // committing chains and forcing evictions.
        let gpu_blocks = 2_048u64;
        let mut manager = KvCacheManager::with_offload(
            gpu_blocks,
            BLOCK_SIZE,
            cpu_blocks * BLOCK_BYTES,
            BLOCK_BYTES,
        );
        let chain_blocks = 512usize;
        let chains = cpu_blocks / chain_blocks as u64 + gpu_blocks / chain_blocks as u64;
        for chain in 0..chains {
            let start = chain as u32 * 10_000_000;
            let tokens: Vec<u32> = (start..start + (chain_blocks * BLOCK_SIZE) as u32).collect();
            let alloc = manager
                .allocate(
                    &tokens,
                    SimTime::from_secs(chain),
                    RetentionPolicy::FullResidency,
                )
                .expect("fits after eviction");
            manager.commit(alloc, SimTime::from_secs(chain));
        }
        assert!(
            manager.cpu_resident_blocks()
                >= cpu_blocks.min(chains * chain_blocks as u64 - gpu_blocks)
        );
        // The first chain is long evicted: its blocks live only in the CPU tier.
        let request = tokens(0, 100 * BLOCK_SIZE);
        assert_eq!(manager.lookup_cached_tokens(&request), 0);

        group.bench_with_input(
            BenchmarkId::from_parameter(cpu_blocks),
            &request,
            |b, request| {
                b.iter_with_setup(
                    || manager.clone(),
                    |mut manager| {
                        let alloc = manager
                            .allocate(
                                request,
                                SimTime::from_secs(1_000_000),
                                RetentionPolicy::FullResidency,
                            )
                            .expect("reload makes room");
                        std::hint::black_box(alloc.reloaded_tokens());
                        manager.release_uncommitted(alloc);
                        manager
                    },
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_lookup,
    bench_allocate_commit,
    bench_eviction_scaling,
    bench_offload_reload
);
criterion_main!(benches);
