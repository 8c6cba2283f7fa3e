//! Emits `BENCH_baseline.json` at the workspace root: median wall-clock timings of the
//! simulator's hot paths (scheduling step, KV-cache ops, offload reload, instance
//! profile run, cluster replay), so future PRs have a recorded perf trajectory to
//! compare against.  Each entry also records its fastest and slowest sample, and
//! the file records the core count and the commit it was measured at: a shared
//! host can run a whole process in a fast or a slow state, and the spread shows
//! which one a reading caught.
//!
//! Run with `cargo run --release --bin bench_baseline`.  Pass `--smoke` to run each
//! measurement with a minimal sample count — CI uses this to prove the JSON stays
//! generatable on every PR without paying full measurement time.
//!
//! Each `serving/*replay*` entry also records its run's simulated GPU prefix-cache
//! hit rate, so an entry's time reads next to the cache regime it replayed.
//!
//! Pass `--check` to run the regression guard instead of emitting the file: the
//! scheduling-step, KV pin/unpin, KV eviction, CPU-tier (`offload`), block-hashing,
//! materialised-replay, decode, handoff, routing-pass and epoch-barrier groups are
//! re-measured and compared against the committed `BENCH_baseline.json` medians,
//! and the process exits non-zero if any entry has no committed median or is more than
//! [`REGRESSION_FACTOR`]× worse twice: in this process and again in a fresh
//! process of the same binary (`--remeasure <group>`), which re-measures the
//! failing entry's group once so that one noisy process does not decide alone.
//! The guard re-measures the *full* workload shapes (sample counts aside, a
//! `--smoke`-shaped workload would not be comparable to the committed medians),
//! so `--check` rejects `--smoke`.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Serialize;

use gpu::HardwareSetup;
use kvcache::{CpuKvPool, KvCacheManager, ProbeCache, RetentionPolicy, TokenBlockHash};
use model::ModelPreset;
use prefillonly::{Cluster, EngineConfig, EngineInstance, EngineKind, RoutingScratch};
use prefillonly_bench::hotpath::{
    calibrated_queue, cohort_cache, AfterEviction, FullWalkProbe, MemoProbe, ThrashChains, Victim,
    WarmChain,
};
use scheduler::{JctEstimator, SchedulingPolicy, SrjfPolicy};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{
    assign_poisson_arrivals, conversation_trace, ArrivalPattern, ArrivalStream, ConversationSpec,
    Dataset, PostRecommendationSpec, SharedPrefixFleetSpec, SharedPrefixFleetStream,
    StreamedArrival,
};

const BLOCK_SIZE: usize = prefillonly_bench::hotpath::BLOCK_SIZE;

/// In `--smoke` mode every measurement runs with this many samples.
const SMOKE_SAMPLES: usize = 3;

fn smoke() -> bool {
    std::env::args().any(|arg| arg == "--smoke")
}

fn samples(full: usize) -> usize {
    if smoke() {
        SMOKE_SAMPLES
    } else {
        full
    }
}

/// One entry: the median, fastest and slowest of its samples.  The spread shows
/// which host state a reading caught; `--check` compares medians only.
#[derive(Serialize)]
struct BaselinePoint {
    name: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: usize,
    /// A replay entry's simulated GPU prefix-cache hit rate
    /// (`RunReport::cache_hit_rate`), so a thrash regime shows next to its time;
    /// `null` for entries that replay nothing.
    gpu_hit_rate: Option<f64>,
}

impl BaselinePoint {
    /// The entry per item of a batch of `items`, for entries that time a batch.
    fn per(mut self, items: usize) -> BaselinePoint {
        let items = items as f64;
        self.median_ns /= items;
        self.min_ns /= items;
        self.max_ns /= items;
        println!(
            "{:<55} median {:>12.1} ns (per item; min {:.1}, max {:.1})",
            self.name, self.median_ns, self.min_ns, self.max_ns
        );
        self
    }
}

#[derive(Serialize)]
struct Baseline {
    description: String,
    /// Cores the measuring process could use.
    cores: usize,
    /// The commit the measured tree was checked out at, `-dirty` when it had
    /// uncommitted changes.
    commit: String,
    results: Vec<BaselinePoint>,
}

/// Records `name`'s entry from its sample timings.
fn record(out: &mut Vec<BaselinePoint>, name: &str, mut timings: Vec<f64>) {
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let point = BaselinePoint {
        name: name.to_string(),
        median_ns: timings[timings.len() / 2],
        min_ns: timings[0],
        max_ns: timings[timings.len() - 1],
        samples: timings.len(),
        gpu_hit_rate: None,
    };
    println!(
        "{name:<55} median {:>12.0} ns (min {:.0}, max {:.0})",
        point.median_ns, point.min_ns, point.max_ns
    );
    out.push(point);
}

/// Times `routine` (after `setup`) `samples` times and records the entry.  The
/// routine's output is dropped outside the timed region, so returning a large input
/// keeps its teardown out of the measurement.
fn measure<I, O>(
    out: &mut Vec<BaselinePoint>,
    name: &str,
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) {
    // One warmup round.
    routine(setup());
    let timings = (0..samples)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            let nanos = start.elapsed().as_secs_f64() * 1e9;
            drop(output);
            nanos
        })
        .collect();
    record(out, name, timings);
}

/// Like [`measure`], for a cluster replay whose routine also returns the run's
/// simulated GPU prefix-cache hit rate: the entry records it beside the timings.
/// The replays are seeded, so every sample must reproduce the same rate.
fn measure_replay<I, O>(
    out: &mut Vec<BaselinePoint>,
    name: &str,
    samples: usize,
    setup: impl FnMut() -> I,
    mut replay: impl FnMut(I) -> (O, f64),
) {
    let mut hit_rate = None;
    measure(out, name, samples, setup, |input| {
        let (output, rate) = replay(input);
        let first = *hit_rate.get_or_insert(rate);
        assert_eq!(first, rate, "{name}: the seeded replay's hit rate varied");
        output
    });
    let hit_rate = hit_rate.expect("measure runs the replay");
    println!("{name:<55} gpu hit rate {hit_rate:.4}");
    out.last_mut()
        .expect("measure records the entry")
        .gpu_hit_rate = Some(hit_rate);
}

/// Like [`measure`], but for cheap routines: each sample times a batch and divides.
fn measure_batched(
    out: &mut Vec<BaselinePoint>,
    name: &str,
    samples: usize,
    batch: usize,
    mut routine: impl FnMut(),
) {
    routine();
    let timings = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                routine();
            }
            start.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    record(out, name, timings);
}

fn scheduler_baselines(out: &mut Vec<BaselinePoint>) {
    let queue = calibrated_queue(512);
    let now = SimTime::from_secs(30);
    let (kv, hashes) = cohort_cache(&queue, now);

    let calibrated = SrjfPolicy::with_calibration(JctEstimator::proxy(1.5e-4, 0.02), 500.0);
    let full = FullWalkProbe {
        kv: &kv,
        hashes: &hashes,
    };
    measure_batched(
        out,
        "scheduler_step/calibrated_select_512/full_walk",
        samples(15),
        100,
        || {
            std::hint::black_box(calibrated.select(&queue, now, &full));
        },
    );
    let memo = RefCell::new(ProbeCache::new());
    let incremental = MemoProbe {
        kv: &kv,
        hashes: &hashes,
        memo: &memo,
    };
    measure_batched(
        out,
        "scheduler_step/calibrated_select_512/incremental",
        samples(15),
        100,
        || {
            std::hint::black_box(calibrated.select(&queue, now, &incremental));
        },
    );

    // One select right after one eviction: of an unrelated block, which every
    // memoised result survives, or of cohort 0's prefix tail, which that cohort's
    // requests re-walk.  The copy and the eviction stay in the untimed setup.  Each
    // sample is one sub-millisecond select, so many samples keep the median from
    // resting on one short burst of host noise.
    for (name, victim) in [
        ("after_eviction", Victim::Unrelated),
        ("after_prefix_eviction", Victim::PrefixTail),
    ] {
        let scenario = AfterEviction::new(&calibrated, &queue, now, victim);
        measure(
            out,
            &format!("scheduler_step/calibrated_select_512/{name}"),
            samples(101),
            || scenario.sample(now),
            |(kv, memo)| {
                let probe = MemoProbe {
                    kv: &kv,
                    hashes: &scenario.hashes,
                    memo: &memo,
                };
                std::hint::black_box(calibrated.select(&queue, now, &probe));
                (kv, memo)
            },
        );
    }
}

fn kvcache_baselines(out: &mut Vec<BaselinePoint>) {
    for cached_blocks in [2_048u64, 131_072] {
        let mut manager = KvCacheManager::new(cached_blocks, BLOCK_SIZE);
        let chain_blocks = 512usize;
        for chain in 0..cached_blocks / chain_blocks as u64 {
            let start = chain as u32 * 10_000_000;
            let tokens: Vec<u32> = (start..start + (chain_blocks * BLOCK_SIZE) as u32).collect();
            let alloc = manager
                .allocate(
                    &tokens,
                    SimTime::from_secs(chain),
                    RetentionPolicy::FullResidency,
                )
                .expect("fits");
            manager.commit(alloc, SimTime::from_secs(chain));
        }
        let request: Vec<u32> =
            (3_000_000_000..3_000_000_000u32 + (100 * BLOCK_SIZE) as u32).collect();
        measure(
            out,
            &format!("kvcache_ops/evict_100_blocks_from_cache_of/{cached_blocks}"),
            samples(25),
            || manager.clone(),
            |mut manager| {
                let alloc = manager
                    .allocate(
                        &request,
                        SimTime::from_secs(1_000_000),
                        RetentionPolicy::FullResidency,
                    )
                    .expect("eviction makes room");
                std::hint::black_box(manager.stats().evicted_blocks);
                manager.release_uncommitted(alloc);
                manager
            },
        );
    }
    warm_chain_baseline(out);
    thrash_chains_baseline(out);
    hash_baseline(out);
}

/// The KV manager's pin/unpin path ([`WarmChain`]): a cached 1,000-block chain
/// allocated again and committed.  A round takes tens of microseconds, so each
/// sample times a batch of 100 rounds — several milliseconds, long enough that one
/// burst of host noise cannot set the median.
fn warm_chain_baseline(out: &mut Vec<BaselinePoint>) {
    let mut warm = WarmChain::new(1_000);
    measure_batched(
        out,
        "kvcache_ops/allocate_commit/warm_1000_blocks",
        samples(25),
        100,
        || {
            std::hint::black_box(warm.allocate_commit());
        },
    );
}

/// The KV manager's eviction path ([`ThrashChains`]): a full 3,320-block pool (83
/// chains) cycling through 312 distinct 40-block chains, so every round misses,
/// evicts one whole chain and commits its own — the 1M-request replay's per-slot
/// shape.  A round takes a few microseconds, so each sample times a batch of 500
/// rounds (a few milliseconds).
fn thrash_chains_baseline(out: &mut Vec<BaselinePoint>) {
    let mut thrash = ThrashChains::new(83, 312, 40);
    measure_batched(
        out,
        "kvcache_ops/allocate_commit/thrash_40_block_chains",
        samples(25),
        500,
        || {
            std::hint::black_box(thrash.allocate_commit());
        },
    );
}

/// Block hashing of one 16k-token request, the length of a long
/// post-recommendation prompt, two ways:
///
/// * `hash_token_blocks/16k_tokens`: [`kvcache::hash_token_blocks`] over all of
///   its tokens, what every arrival without a shared prefix costs.  A pass takes
///   microseconds, so each sample times a batch of 400 passes (a few
///   milliseconds).
/// * `block_hashes/16k_shared_prefix`: [`kvcache::TokenSeq::block_hashes`] of a
///   150-token post after a 15,850-token profile whose chain is already memoised
///   (the steady state of a post-recommendation user's requests): the profile's
///   chain is copied and only the post is hashed.  A call takes a fraction of a
///   microsecond, so each sample times a batch of 4,000 calls.
fn hash_baseline(out: &mut Vec<BaselinePoint>) {
    let tokens: Vec<u32> = (0..16_000).collect();
    measure_batched(
        out,
        "kvcache_ops/hash_token_blocks/16k_tokens",
        samples(25),
        400,
        || {
            std::hint::black_box(kvcache::hash_token_blocks(
                std::hint::black_box(&tokens),
                BLOCK_SIZE,
            ));
        },
    );

    let profile = kvcache::SharedPrefix::new((0..15_850).collect());
    let post: Vec<u32> = (20_000_000..20_000_150).collect();
    let request = kvcache::TokenSeq::extending(&profile, &post);
    measure_batched(
        out,
        "kvcache_ops/block_hashes/16k_shared_prefix",
        samples(25),
        4_000,
        || {
            std::hint::black_box(std::hint::black_box(&request).block_hashes(BLOCK_SIZE));
        },
    );
}

/// The CPU tier's hot paths, the `offload` check group.
///
/// * `cpu_tier/spill_60_reload_16/{768,131072}`: one round of a warm, full
///   [`CpuKvPool`] (768 blocks is `tiered_fleet`'s pool) as an eviction batch
///   drives it: 60 single-block spills of new hashes sharing one timestamp, each
///   displacing the least recently used resident, then a reload of 16 blocks the
///   previous round spilled, which moves their recency forward.
/// * `offload_reload/reload_100_from_cpu_pool_of/{2048,131072}`: allocating a
///   100-block request whose prefix lives only in the CPU tier.  The allocation
///   evicts 100 fresh GPU victims (spilling them) *and* rehydrates 100
///   CPU-resident blocks, covering both directions of the host-link bookkeeping.
///   Mirrors the `offload_reload` criterion group.
fn offload_baselines(out: &mut Vec<BaselinePoint>) {
    const BLOCK_BYTES: u64 = 16 * 128 * 1024;
    const SPILLS: u64 = 60;
    for cpu_blocks in [768u64, 131_072] {
        let mut pool = CpuKvPool::new(cpu_blocks * BLOCK_BYTES, BLOCK_BYTES);
        // Distinct ids map to distinct, scattered hashes (the multiplier is odd).
        let hash = |id: u64| TokenBlockHash(id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut round = 0u64;
        let mut spill_and_reload = || {
            round += 1;
            let at = SimTime::from_micros(round);
            for spill in 0..SPILLS {
                pool.offload(&[hash(round * SPILLS + spill)], at);
            }
            let reload: [TokenBlockHash; 16] =
                std::array::from_fn(|block| hash((round - 1) * SPILLS + block as u64));
            std::hint::black_box(pool.reload_prefix(&reload, 16, at));
        };
        for _ in 0..cpu_blocks / SPILLS + 2 {
            spill_and_reload();
        }
        measure_batched(
            out,
            &format!("kvcache_ops/cpu_tier/spill_60_reload_16/{cpu_blocks}"),
            samples(25),
            200,
            &mut spill_and_reload,
        );
        assert_eq!(pool.resident_blocks(), cpu_blocks, "the pool stays full");
    }

    for cpu_blocks in [2_048u64, 131_072] {
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
        let request: Vec<u32> = (0..(100 * BLOCK_SIZE) as u32).collect();
        assert_eq!(manager.lookup_cached_tokens(&request), 0, "prefix evicted");
        measure(
            out,
            &format!("kvcache_ops/offload_reload/reload_100_from_cpu_pool_of/{cpu_blocks}"),
            samples(25),
            || manager.clone(),
            |mut manager| {
                let alloc = manager
                    .allocate(
                        &request,
                        SimTime::from_secs(1_000_000),
                        RetentionPolicy::FullResidency,
                    )
                    .expect("reload makes room");
                std::hint::black_box(alloc.reloaded_tokens());
                manager.release_uncommitted(alloc);
                manager
            },
        );
    }
}

/// Network-tier hot path: allocating a 100-block request whose prefix is resident
/// only in the cluster-shared network tier.  The allocation walks the GPU and CPU
/// tiers (missing both), quotes the net segment, and rehydrates 100 net-resident
/// blocks — the bookkeeping a cold instance pays per cold-join reload.  Mirrors
/// `offload_reload` one tier further down.
///
/// Each sample builds its own pool in the untimed setup: a clone of one template
/// pool would share its state, and the reload's first write would then copy the
/// whole pool inside the timed region.
fn net_reload_baselines(out: &mut Vec<BaselinePoint>) {
    const BLOCK_BYTES: u64 = 16 * 128 * 1024;
    for net_blocks in [2_048u64, 131_072] {
        let gpu_blocks = 2_048u64;
        let manager =
            KvCacheManager::with_offload(gpu_blocks, BLOCK_SIZE, BLOCK_BYTES, BLOCK_BYTES);
        let chain_blocks = 512usize;
        let request: Vec<u32> =
            (2_000_000_000..2_000_000_000u32 + (100 * BLOCK_SIZE) as u32).collect();
        let mut spills: Vec<(Vec<kvcache::TokenBlockHash>, SimTime)> = (0..net_blocks
            / chain_blocks as u64)
            .map(|chain| {
                let start = chain as u32 * 10_000_000;
                let tokens: Vec<u32> =
                    (start..start + (chain_blocks * BLOCK_SIZE) as u32).collect();
                (
                    kvcache::hash_token_blocks(&tokens, BLOCK_SIZE),
                    SimTime::from_secs(chain),
                )
            })
            .collect();
        spills.push((
            kvcache::hash_token_blocks(&request, BLOCK_SIZE),
            SimTime::from_secs(1_000),
        ));
        let warm_manager = || {
            let mut pool = kvcache::NetKvPool::new(net_blocks * BLOCK_BYTES, BLOCK_BYTES);
            for (hashes, at) in &spills {
                pool.offload(hashes, *at);
            }
            let mut manager = manager.clone();
            manager.install_net_pool(pool);
            manager
        };
        assert_eq!(
            warm_manager().lookup_cached_tokens(&request),
            0,
            "GPU-cold prefix"
        );
        measure(
            out,
            &format!("kvcache_ops/net_reload/reload_100_from_net_pool_of/{net_blocks}"),
            samples(25),
            warm_manager,
            |mut manager| {
                let alloc = manager
                    .allocate(
                        &request,
                        SimTime::from_secs(1_000_000),
                        RetentionPolicy::FullResidency,
                    )
                    .expect("net reload makes room");
                std::hint::black_box(alloc.net_reloaded_tokens());
                manager.release_uncommitted(alloc);
                manager
            },
        );
    }
}

/// The §3.1 profile run (MIL search + JCT grid + estimator fit) an instance pays at
/// construction — the target of the cost-curve memoisation (ROADMAP "Executor MIL
/// search" item).
fn instance_profile_baselines(out: &mut Vec<BaselinePoint>) {
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        20_000,
    );
    measure(
        out,
        "serving/instance_profile_run",
        samples(25),
        || (),
        |()| EngineInstance::new(&config, 0),
    );
}

fn cluster_baselines(out: &mut Vec<BaselinePoint>) {
    let spec = PostRecommendationSpec {
        num_users: 8,
        posts_per_user: 12,
        profile_mean_tokens: 6_000.0,
        profile_std_tokens: 800.0,
        profile_min_tokens: 5_000,
        profile_max_tokens: 7_000,
        ..PostRecommendationSpec::default()
    };
    let mut rng = SimRng::seed_from_u64(99);
    let dataset = Dataset::post_recommendation(&spec, &mut rng);
    let arrivals = assign_poisson_arrivals(&dataset, 40.0, &mut rng);
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    );
    measure_replay(
        out,
        "serving/cluster_replay_96_requests/parallel",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            let report = cluster.run(&arrivals, 40.0).expect("feasible");
            std::hint::black_box(report.records.len());
            (cluster, report.cache_hit_rate())
        },
    );
    measure_replay(
        out,
        "serving/cluster_replay_96_requests/sequential",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            let report = cluster.run_sequential(&arrivals, 40.0).expect("feasible");
            std::hint::black_box(report.records.len());
            (cluster, report.cache_hit_rate())
        },
    );
}

/// A 64-instance deployment on L4s, the fleet depth of the streaming-scale
/// benchmarks.
fn fleet_config(routing: prefillonly::RoutingPolicyKind, max_input_length: u64) -> EngineConfig {
    let mut hardware = HardwareSetup::l4_pair();
    hardware.num_gpus = 64;
    EngineConfig::new(
        ModelPreset::Llama31_8b,
        hardware,
        EngineKind::prefillonly_default(),
        max_input_length,
    )
    .with_routing(routing)
}

/// The streaming scale proof: a million-request shared-prefix trace replayed
/// through [`Cluster::run_stream`] on 64 instances, with O(chunk) arrival memory.
/// `--smoke` shrinks the trace to 20k requests so CI proves the path stays
/// runnable without paying the full measurement.
fn streaming_replay_baselines(out: &mut Vec<BaselinePoint>) {
    let (num_cohorts, label) = if smoke() {
        (50, "serving/cluster_replay_1m_requests_smoke_20k")
    } else {
        (2_500, "serving/cluster_replay_1m_requests")
    };
    let spec = SharedPrefixFleetSpec {
        num_cohorts,
        users_per_cohort: 8,
        prefix_tokens: 512,
        suffix_tokens: 128,
        requests_per_user: 50,
    };
    let total = num_cohorts * 8 * 50;
    let qps = 400.0;
    let config = fleet_config(prefillonly::RoutingPolicyKind::StickyUser, 640);
    measure_replay(
        out,
        &format!("{label}/parallel"),
        samples(3),
        || {
            (
                Cluster::new(&config),
                SharedPrefixFleetStream::new(spec, qps, 42),
            )
        },
        |(mut cluster, mut stream)| {
            let report = cluster.run_stream(&mut stream, qps).expect("feasible");
            assert_eq!(report.records.len() as u64, total);
            std::hint::black_box(report.records.len());
            (cluster, report.cache_hit_rate())
        },
    );
    measure_replay(
        out,
        &format!("{label}/sequential"),
        samples(3),
        || {
            (
                Cluster::new(&config),
                SharedPrefixFleetStream::new(spec, qps, 42),
            )
        },
        |(mut cluster, mut stream)| {
            let report = cluster
                .run_stream_sequential(&mut stream, qps)
                .expect("feasible");
            assert_eq!(report.records.len() as u64, total);
            std::hint::black_box(report.records.len());
            (cluster, report.cache_hit_rate())
        },
    );
}

/// Routing-pass cost at fleet depth: one epoch batch of 4096 arrivals routed
/// against 64 instances via [`Cluster::route_preview`], reported per arrival.
/// Both entries run the snapshot pass: the sticky entry pins each new user
/// round-robin over the routable slots; the cache-aware entry runs against a
/// cold fleet, so the pass skips hashing and falls back to load.
fn routing_pass_baselines(out: &mut Vec<BaselinePoint>) {
    let spec = SharedPrefixFleetSpec {
        num_cohorts: 64,
        users_per_cohort: 8,
        prefix_tokens: 512,
        suffix_tokens: 128,
        requests_per_user: 8,
    };
    let batch: Vec<StreamedArrival> = {
        let mut stream = SharedPrefixFleetStream::new(spec, 400.0, 7);
        (0..4_096)
            .map(|_| stream.next_arrival().expect("4096 <= total"))
            .collect()
    };
    for (name, routing) in [
        (
            "serving/routing_pass/sticky_64i_per_arrival",
            prefillonly::RoutingPolicyKind::StickyUser,
        ),
        (
            "serving/routing_pass/cache_aware_64i_per_arrival",
            prefillonly::RoutingPolicyKind::CacheAware,
        ),
    ] {
        let config = fleet_config(routing, 640);
        let mut scoped = Vec::new();
        // A fresh cluster per sample: route_preview advances router state, and the
        // sticky entry must see every user of the batch as new.
        measure(
            &mut scoped,
            name,
            samples(9),
            || (Cluster::new(&config), RoutingScratch::new()),
            |(mut cluster, mut scratch)| {
                cluster.route_preview(&batch, &mut scratch);
                std::hint::black_box(scratch.decisions().len());
                (cluster, scratch)
            },
        );
        // Report the per-arrival figure the ROADMAP tracks, not the batch total.
        out.extend(scoped.into_iter().map(|point| point.per(batch.len())));
    }

    // The steady-state (epoch 2+) cache-aware pass: the fleet has real GPU
    // residency, so the cold-fleet hashing skip does not apply and every arrival
    // pays its block hashing plus a chain walk on each of the 64 live KV managers.
    let config = fleet_config(prefillonly::RoutingPolicyKind::CacheAware, 640);
    let mut cluster = Cluster::new(&config);
    let warm_arrivals: Vec<ArrivalPattern> = batch
        .iter()
        .map(|streamed| streamed.arrival.clone())
        .collect();
    cluster
        .run(&warm_arrivals, 400.0)
        .expect("warming replay feasible");
    let mut scratch = RoutingScratch::new();
    let mut scoped = Vec::new();
    measure_batched(
        &mut scoped,
        "serving/routing_pass/cache_aware_64i_incremental",
        samples(9),
        2,
        || {
            cluster.route_preview(&batch, &mut scratch);
            std::hint::black_box(scratch.decisions().len());
        },
    );
    out.extend(scoped.into_iter().map(|point| point.per(batch.len())));
}

/// Epoch-boundary snapshot cost at fleet depth: what 64 instances pay to receive
/// their visibility-filtered view of a populated shared network tier — the legacy
/// full clone ([`kvcache::NetKvPool::visible_snapshot`], one deep copy of every
/// resident entry per instance per epoch) against the append-only delta view
/// ([`kvcache::NetKvPool::view_at`], an `Arc` bump plus the publish-log filter) —
/// and what a boundary costs once the tier is full and every view spills.
fn epoch_snapshot_baselines(out: &mut Vec<BaselinePoint>) {
    const BLOCK_BYTES: u64 = 16 * 128 * 1024;
    let net_blocks = 16_384u64;
    let chain_blocks = 512usize;
    // A full pool: most of it long settled, a few chains freshly published (and
    // displacing as many settled blocks) — the mix a mid-replay epoch boundary
    // actually filters.
    let full_pool = || {
        let mut pool = kvcache::NetKvPool::new(net_blocks * BLOCK_BYTES, BLOCK_BYTES)
            .with_propagation_delay(SimDuration::from_millis(250));
        for chain in 0..net_blocks / chain_blocks as u64 {
            let start = chain as u32 * 10_000_000;
            let tokens: Vec<u32> = (start..start + (chain_blocks * BLOCK_SIZE) as u32).collect();
            pool.offload(
                &kvcache::hash_token_blocks(&tokens, BLOCK_SIZE),
                SimTime::from_secs(chain),
            );
        }
        pool.settle();
        for chain in 0..4u64 {
            let start = 2_000_000_000 + chain as u32 * 10_000_000;
            let tokens: Vec<u32> = (start..start + (chain_blocks * BLOCK_SIZE) as u32).collect();
            pool.offload(
                &kvcache::hash_token_blocks(&tokens, BLOCK_SIZE),
                SimTime::from_millis(100_000 + chain),
            );
        }
        assert_eq!(pool.resident_blocks(), net_blocks, "the pool is full");
        pool
    };
    let pool = full_pool();
    let visible_at = SimTime::from_millis(100_150);
    measure(
        out,
        "serving/epoch_snapshot_64i/full_clone",
        samples(9),
        || (),
        |()| {
            (0..64usize)
                .map(|id| pool.visible_snapshot(visible_at, id))
                .collect::<Vec<_>>()
        },
    );
    measure(
        out,
        "serving/epoch_snapshot_64i/delta",
        samples(9),
        || (),
        |()| {
            (0..64usize)
                .map(|id| pool.view_at(visible_at, id))
                .collect::<Vec<_>>()
        },
    );
    // Every view of the full pool spills 100 fresh blocks into its overlay (a
    // view never evicts), then the barrier absorbs the 64 overlays in slot order,
    // evicting by the pool's global LRU.  Each sample gets its own pool, so the
    // absorb never pays a copy-on-write clone of a state another pool shares.
    let spills: Vec<Vec<kvcache::TokenBlockHash>> = (0..64u32)
        .map(|id| {
            let start = 3_000_000_000 + id * 10_000;
            let tokens: Vec<u32> = (start..start + (100 * BLOCK_SIZE) as u32).collect();
            kvcache::hash_token_blocks(&tokens, BLOCK_SIZE)
        })
        .collect();
    measure(
        out,
        "serving/epoch_snapshot_64i/delta_full_pool",
        samples(9),
        full_pool,
        |mut pool| {
            let deltas: Vec<kvcache::ViewDelta> = spills
                .iter()
                .enumerate()
                .map(|(id, chain)| {
                    let mut view = pool.view_at(visible_at, id);
                    view.offload(chain, visible_at);
                    view.into_delta()
                })
                .collect();
            let evicted: u64 = deltas.into_iter().map(|delta| pool.absorb(delta)).sum();
            assert_eq!(evicted, 64 * 100, "every fresh block displaces one");
            pool
        },
    );
}

/// Epoch-barrier overhead at fleet depth: a *sparse* trace (every epoch nearly
/// empty) over a 64-instance deployment with the shared tier and a short
/// propagation delay, so the replay cost is dominated by the per-epoch
/// install/route/barrier/merge machinery.
fn epoch_barrier_baselines(out: &mut Vec<BaselinePoint>) {
    let num_cohorts = if smoke() { 4 } else { 16 };
    let spec = SharedPrefixFleetSpec {
        num_cohorts,
        users_per_cohort: 4,
        prefix_tokens: 256,
        suffix_tokens: 64,
        requests_per_user: 8,
    };
    let qps = 10.0; // ~2.5 arrivals per 250 ms epoch: barrier-dominated
    let config = fleet_config(prefillonly::RoutingPolicyKind::StickyUser, 320)
        .with_net_kv(64 << 30)
        .with_net_propagation_ms(250);
    measure(
        out,
        "serving/epoch_barriers_64_instances/fixed",
        samples(5),
        || {
            (
                Cluster::new(&config),
                SharedPrefixFleetStream::new(spec, qps, 11),
            )
        },
        |(mut cluster, mut stream)| {
            let report = cluster.run_stream(&mut stream, qps).expect("feasible");
            std::hint::black_box(report.records.len());
            cluster
        },
    );
}

/// Decode-stage hot paths: the per-step roofline price itself (the inner loop of
/// every decode schedule), and a multi-turn conversation replay through the
/// decode-enabled engine — chunked prefills interleaving with running decode
/// batches, later turns re-hitting their session prefix.
fn decode_baselines(out: &mut Vec<BaselinePoint>) {
    use executor::{Executor, ExecutorConfig, PrefillStrategy};
    let executor = Executor::new(ExecutorConfig::single_gpu(
        ModelPreset::Llama31_8b.config(),
        HardwareSetup::l4_pair().gpu_spec(),
        PrefillStrategy::Full,
    ));
    measure_batched(
        out,
        "executor/decode_step/4k_context_batch_32",
        samples(15),
        10_000,
        || {
            std::hint::black_box(executor.decode_step_time(4_096, 32));
        },
    );

    let spec = ConversationSpec {
        num_sessions: 12,
        turns_per_session: 4,
        system_prompt_tokens: 1_024,
        first_turn_input_tokens: 1_024,
        turn_input_tokens: 192,
        decode_tokens_per_turn: 128,
        think_time_ms: 2_000,
    };
    let qps = 2.0;
    let trace = conversation_trace(&spec, qps, 42);
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::chunked_default(),
        spec.max_request_tokens(),
    );
    measure_replay(
        out,
        "serving/multi_turn_replay_48_requests/parallel",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            let report = cluster.run(&trace, qps).expect("feasible");
            assert!(report.decode_tokens() > 0);
            std::hint::black_box(report.records.len());
            (cluster, report.cache_hit_rate())
        },
    );
    measure_replay(
        out,
        "serving/multi_turn_replay_48_requests/sequential",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            let report = cluster.run_sequential(&trace, qps).expect("feasible");
            assert!(report.decode_tokens() > 0);
            std::hint::black_box(report.records.len());
            (cluster, report.cache_hit_rate())
        },
    );
}

/// KV-handoff-plane hot path: the same multi-turn trace as the decode group, but
/// on a disaggregated two-slot fleet (prefill + decode role), so every request
/// pays handoff enqueue on the prefill slot, the boundary-ordered ledger, and
/// reservation-admission on the decode slot — the machinery a colocated replay
/// never touches.
fn handoff_baselines(out: &mut Vec<BaselinePoint>) {
    use workload::InstanceRole;
    let spec = ConversationSpec {
        num_sessions: 12,
        turns_per_session: 4,
        system_prompt_tokens: 1_024,
        first_turn_input_tokens: 1_024,
        turn_input_tokens: 192,
        decode_tokens_per_turn: 128,
        think_time_ms: 2_000,
    };
    let qps = 2.0;
    let trace = conversation_trace(&spec, qps, 42);
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        spec.max_request_tokens(),
    )
    .with_net_propagation_ms(1_000)
    .with_roles(vec![InstanceRole::Prefill, InstanceRole::Decode]);
    for (name, sequential) in [
        ("serving/disaggregated_replay_48_requests/parallel", false),
        ("serving/disaggregated_replay_48_requests/sequential", true),
    ] {
        measure_replay(
            out,
            name,
            samples(9),
            || Cluster::new(&config),
            |mut cluster| {
                let report = if sequential {
                    cluster.run_sequential(&trace, qps)
                } else {
                    cluster.run(&trace, qps)
                }
                .expect("feasible");
                assert_eq!(report.handed_off_requests(), spec.num_requests());
                std::hint::black_box(report.records.len());
                (cluster, report.cache_hit_rate())
            },
        );
    }
}

/// `git describe --always --dirty` of the workspace, or `unknown` without git.
fn checked_out_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |commit| commit.trim().to_string())
}

fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|dir| {
            Path::new(&dir)
                .ancestors()
                .nth(2)
                .map(Path::to_path_buf)
                .unwrap_or_else(|| PathBuf::from(dir.clone()))
        })
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// `--check` fails when a re-measured median exceeds the committed one by more
/// than this factor — wide enough to absorb machine and scheduler noise, tight
/// enough to catch a hot path falling off a cliff.
const REGRESSION_FACTOR: f64 = 2.0;

/// A group of measurements, appending its points.
type Group = fn(&mut Vec<BaselinePoint>);

/// The groups `--check` re-measures, each under the name a fresh process
/// re-measures it by (`--remeasure <group>`).
const CHECK_GROUPS: [(&str, Group); 10] = [
    ("scheduler", scheduler_baselines),
    ("warm_chain", warm_chain_baseline),
    ("thrash_chains", thrash_chains_baseline),
    ("offload", offload_baselines),
    ("hashing", hash_baseline),
    ("cluster", cluster_baselines),
    ("decode", decode_baselines),
    ("routing_pass", routing_pass_baselines),
    ("epoch_barrier", epoch_barrier_baselines),
    ("handoff", handoff_baselines),
];

/// Prefix of the lines a `--remeasure` process prints its medians on.
const REMEASURED: &str = "remeasured";

/// The `--remeasure <group>` mode: measures one [`CHECK_GROUPS`] group and prints
/// each median on a `remeasured <name> <median_ns>` line.  Returns the process
/// exit code.
fn remeasure(group: &str) -> i32 {
    let Some((_, run)) = CHECK_GROUPS.iter().find(|(name, _)| *name == group) else {
        eprintln!("error: no check group named {group:?}");
        return 1;
    };
    let mut results = Vec::new();
    run(&mut results);
    for point in &results {
        println!("{REMEASURED} {} {}", point.name, point.median_ns);
    }
    0
}

/// Re-measures `group` in a new process of this binary, so a failing entry is
/// judged once more outside whatever state (host noise, a slow process) the first
/// reading caught.  Returns the `(name, median_ns)` pairs it measured.
fn remeasure_in_fresh_process(group: &str) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|err| format!("no path to this binary: {err}"))?;
    let output = std::process::Command::new(exe)
        .args(["--remeasure", group])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|err| format!("could not start a fresh process: {err}"))?;
    if !output.status.success() {
        return Err(format!("the fresh process exited with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let mut fields = line.strip_prefix(REMEASURED)?.split_whitespace();
            let name = fields.next()?.to_string();
            let median = fields.next()?.parse().ok()?;
            Some((name, median))
        })
        .collect())
}

/// Extracts the `(name, median_ns)` pairs from the committed baseline.  The local
/// serde_json shim is serialize-only and the file is this binary's own
/// pretty-printed emission, so a line scanner is sufficient and dependency-free.
fn committed_medians(json: &str) -> Vec<(String, f64)> {
    let mut pairs = Vec::new();
    let mut name: Option<String> = None;
    for line in json.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            name = rest.find('"').map(|end| rest[..end].to_string());
        } else if let Some(rest) = line.strip_prefix("\"median_ns\": ") {
            if let (Some(n), Ok(median)) = (name.take(), rest.trim_end_matches(',').parse::<f64>())
            {
                pairs.push((n, median));
            }
        }
    }
    pairs
}

/// The CI regression guard: re-measures the scheduling step, the KV manager's
/// pin/unpin and eviction paths, the CPU tier's spills and reloads, block hashing,
/// the materialised replays of both flavours (colocated and decode-enabled), the
/// KV-handoff plane, and the routing-pass and
/// epoch-barrier groups (the per-epoch machinery this repo optimises hardest), and
/// compares each median against the committed `BENCH_baseline.json`.  An entry more
/// than [`REGRESSION_FACTOR`]× over its committed median has its group re-measured
/// once in a fresh process, and fails only if that reading is over the factor too.
/// An entry without a committed median fails too, so a renamed or new entry is
/// guarded from the commit that introduces it.  Returns the process exit code.
fn regression_check() -> i32 {
    let path = workspace_root().join("BENCH_baseline.json");
    let json = match std::fs::read_to_string(&path) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("error: could not read {}: {err}", path.display());
            return 1;
        }
    };
    let committed = committed_medians(&json);
    if committed.is_empty() {
        eprintln!("error: no medians found in {}", path.display());
        return 1;
    }

    println!(
        "Regression guard: scheduling step + KV pin/unpin + KV eviction + CPU tier + \
         block hashing + replays + handoff plane + routing pass + epoch barriers vs \
         committed medians\n"
    );
    let mut results = Vec::new();
    let mut groups = Vec::new();
    for (group, run) in CHECK_GROUPS {
        run(&mut results);
        groups.resize(results.len(), group);
    }

    println!();
    let mut failures = 0usize;
    let mut unmatched = 0usize;
    let mut fresh_runs = std::collections::HashMap::new();
    for (point, group) in results.iter().zip(groups) {
        let Some((_, committed_ns)) = committed.iter().find(|(name, _)| name == &point.name) else {
            unmatched += 1;
            println!("{:<55} NO COMMITTED MEDIAN", point.name);
            continue;
        };
        let ratio = point.median_ns / committed_ns;
        if ratio <= REGRESSION_FACTOR {
            println!("{:<55} {ratio:>6.2}x committed  ok", point.name);
            continue;
        }
        let fresh = fresh_runs
            .entry(group)
            .or_insert_with(|| {
                println!(
                    "{:<55} {ratio:>6.2}x committed, re-measuring group {group:?}",
                    point.name
                );
                remeasure_in_fresh_process(group)
            })
            .clone()
            .and_then(|points| {
                points
                    .iter()
                    .find(|(name, _)| name == &point.name)
                    .map(|(_, median)| median / committed_ns)
                    .ok_or_else(|| "the fresh process did not measure it".to_string())
            });
        match fresh {
            Ok(again) if again <= REGRESSION_FACTOR => println!(
                "{:<55} {ratio:>6.2}x committed, {again:.2}x in a fresh process  ok",
                point.name
            ),
            Ok(again) => {
                failures += 1;
                println!(
                    "{:<55} {ratio:>6.2}x committed, {again:.2}x in a fresh process  REGRESSED",
                    point.name
                );
            }
            Err(err) => {
                failures += 1;
                println!(
                    "{:<55} {ratio:>6.2}x committed, no fresh reading ({err})  REGRESSED",
                    point.name
                );
            }
        }
    }
    if unmatched > 0 {
        eprintln!(
            "\nerror: {unmatched} checked entr{} no committed median in {}; \
             regenerate it with `cargo run --release --bin bench_baseline` and commit it",
            if unmatched == 1 { "y has" } else { "ies have" },
            path.display()
        );
    }
    if failures > 0 {
        eprintln!(
            "\nerror: {failures} entr{} regressed more than {REGRESSION_FACTOR}x past \
             the committed baseline, in this process and in a fresh one; investigate or \
             regenerate BENCH_baseline.json with `cargo run --release --bin bench_baseline` \
             if the change is intended",
            if failures == 1 { "y" } else { "ies" }
        );
    }
    if unmatched > 0 || failures > 0 {
        1
    } else {
        println!("\nall checked entries within {REGRESSION_FACTOR}x of the committed baseline");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|arg| arg == "--remeasure") {
        let group = args.get(at + 1).map_or("", String::as_str);
        std::process::exit(remeasure(group));
    }
    if args.iter().any(|arg| arg == "--check") {
        if smoke() {
            eprintln!(
                "error: --check re-measures the full workload shapes; \
                 --smoke medians would not be comparable to the committed baseline"
            );
            std::process::exit(1);
        }
        std::process::exit(regression_check());
    }
    let mut results = Vec::new();
    scheduler_baselines(&mut results);
    kvcache_baselines(&mut results);
    offload_baselines(&mut results);
    net_reload_baselines(&mut results);
    instance_profile_baselines(&mut results);
    cluster_baselines(&mut results);
    decode_baselines(&mut results);
    handoff_baselines(&mut results);
    routing_pass_baselines(&mut results);
    epoch_snapshot_baselines(&mut results);
    epoch_barrier_baselines(&mut results);
    streaming_replay_baselines(&mut results);

    let baseline = Baseline {
        description: "Median, fastest and slowest wall-clock timings of the simulator's \
                      hot paths; regenerate with `cargo run --release --bin bench_baseline`"
            .to_string(),
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        commit: checked_out_commit(),
        results,
    };
    let path = workspace_root().join("BENCH_baseline.json");
    match serde_json::to_string_pretty(&baseline) {
        Ok(json) => {
            if let Err(err) = std::fs::write(&path, json + "\n") {
                eprintln!("warning: could not write {}: {err}", path.display());
            } else {
                println!("\nwrote {}", path.display());
            }
        }
        Err(err) => eprintln!("warning: could not serialize baseline: {err}"),
    }
}
