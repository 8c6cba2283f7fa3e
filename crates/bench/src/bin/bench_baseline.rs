//! Emits `BENCH_baseline.json` at the workspace root: median wall-clock timings of the
//! simulator's hot paths (scheduling step, KV-cache ops, offload reload, instance
//! profile run, cluster replay), so future PRs have a recorded perf trajectory to
//! compare against.
//!
//! Run with `cargo run --release --bin bench_baseline`.  Pass `--smoke` to run each
//! measurement with a minimal sample count — CI uses this to prove the JSON stays
//! generatable on every PR without paying full measurement time.
//!
//! Pass `--check` to run the regression guard instead of emitting the file: the
//! routing-pass and epoch-barrier groups are re-measured and compared against the
//! committed `BENCH_baseline.json` medians, and the process exits non-zero if any
//! entry is more than [`REGRESSION_FACTOR`]× worse.  The guard re-measures the
//! *full* workload shapes (sample counts aside, a `--smoke`-shaped workload would
//! not be comparable to the committed medians), so `--check` rejects `--smoke`.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Serialize;

use gpu::HardwareSetup;
use kvcache::{KvCacheManager, ProbeCache, RetentionPolicy};
use model::ModelPreset;
use prefillonly::{Cluster, EngineConfig, EngineInstance, EngineKind, RoutingScratch};
use prefillonly_bench::hotpath::{calibrated_queue, cohort_cache, FullWalkProbe, MemoProbe};
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

#[derive(Serialize)]
struct BaselinePoint {
    name: String,
    median_ns: f64,
    samples: usize,
}

#[derive(Serialize)]
struct Baseline {
    description: String,
    results: Vec<BaselinePoint>,
}

/// Times `routine` (after `setup`) `samples` times and records the median.  The
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
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            let nanos = start.elapsed().as_secs_f64() * 1e9;
            drop(output);
            nanos
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = timings[timings.len() / 2];
    println!("{name:<55} median {:>12.0} ns", median);
    out.push(BaselinePoint {
        name: name.to_string(),
        median_ns: median,
        samples,
    });
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
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                routine();
            }
            start.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = timings[timings.len() / 2];
    println!("{name:<55} median {:>12.0} ns", median);
    out.push(BaselinePoint {
        name: name.to_string(),
        median_ns: median,
        samples,
    });
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
}

/// Hierarchical-tier hot path: allocating a 100-block request whose prefix lives
/// only in the CPU tier.  The allocation evicts 100 fresh GPU victims (spilling
/// them) *and* rehydrates 100 CPU-resident blocks, covering both directions of the
/// host-link bookkeeping.  Mirrors the `offload_reload` criterion group.
fn offload_baselines(out: &mut Vec<BaselinePoint>) {
    const BLOCK_BYTES: u64 = 16 * 128 * 1024;
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
    measure(
        out,
        "serving/cluster_replay_96_requests/parallel",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            std::hint::black_box(
                cluster
                    .run(&arrivals, 40.0)
                    .expect("feasible")
                    .records
                    .len(),
            );
            cluster
        },
    );
    measure(
        out,
        "serving/cluster_replay_96_requests/sequential",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            std::hint::black_box(
                cluster
                    .run_sequential(&arrivals, 40.0)
                    .expect("feasible")
                    .records
                    .len(),
            );
            cluster
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
    measure(
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
            cluster
        },
    );
    measure(
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
            cluster
        },
    );
}

/// Routing-pass cost at fleet depth: one epoch batch of 4096 arrivals routed
/// against 64 instances via [`Cluster::route_preview`], reported per arrival.
/// The sticky entry exercises the stamped arithmetic fast path; the cache-aware
/// entry runs against a cold fleet, so the pass skips hashing and falls back to
/// load.
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
            "serving/routing_pass/sticky_stamped_64i_per_arrival",
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
        // sticky fast path must see the batch's stamps as a fresh history.
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
        for mut point in scoped {
            point.median_ns /= batch.len() as f64;
            println!(
                "{:<55} median {:>12.1} ns (per arrival)",
                point.name, point.median_ns
            );
            out.push(point);
        }
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
    for mut point in scoped {
        point.median_ns /= batch.len() as f64;
        println!(
            "{:<55} median {:>12.1} ns (per arrival)",
            point.name, point.median_ns
        );
        out.push(point);
    }
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
/// install/route/barrier/merge machinery.  The adaptive entry lets near-idle
/// epochs stretch towards `max_ms`, cutting the barrier count.
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
    let base = fleet_config(prefillonly::RoutingPolicyKind::StickyUser, 320)
        .with_net_kv(64 << 30)
        .with_net_propagation_ms(250);
    let adaptive = base.clone().with_adaptive_epochs(64, 250, 8_000);
    for (name, config) in [
        ("serving/epoch_barriers_64_instances/fixed", base),
        ("serving/epoch_barriers_64_instances/adaptive", adaptive),
    ] {
        measure(
            out,
            name,
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
    measure(
        out,
        "serving/multi_turn_replay_48_requests/parallel",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            let report = cluster.run_sorted(&trace, qps).expect("feasible");
            assert!(report.decode_tokens() > 0);
            std::hint::black_box(report.records.len());
            cluster
        },
    );
    measure(
        out,
        "serving/multi_turn_replay_48_requests/sequential",
        samples(9),
        || Cluster::new(&config),
        |mut cluster| {
            let report = cluster
                .run_sorted_sequential(&trace, qps)
                .expect("feasible");
            assert!(report.decode_tokens() > 0);
            std::hint::black_box(report.records.len());
            cluster
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
        measure(
            out,
            name,
            samples(9),
            || Cluster::new(&config),
            |mut cluster| {
                let report = if sequential {
                    cluster.run_sorted_sequential(&trace, qps)
                } else {
                    cluster.run_sorted(&trace, qps)
                }
                .expect("feasible");
                assert_eq!(report.handed_off_requests(), spec.num_requests());
                std::hint::black_box(report.records.len());
                cluster
            },
        );
    }
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

/// The CI regression guard: re-measures the routing-pass, epoch-barrier and
/// KV-handoff groups (the per-epoch machinery this repo optimises hardest) and
/// compares each median against the committed `BENCH_baseline.json`.  Returns the
/// process exit code.
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
        "Regression guard: routing pass + epoch barriers + handoff plane vs committed medians\n"
    );
    let mut results = Vec::new();
    routing_pass_baselines(&mut results);
    epoch_barrier_baselines(&mut results);
    handoff_baselines(&mut results);

    println!();
    let mut failures = 0usize;
    for point in &results {
        let Some((_, committed_ns)) = committed.iter().find(|(name, _)| name == &point.name) else {
            println!("{:<55} (no committed median, skipped)", point.name);
            continue;
        };
        let ratio = point.median_ns / committed_ns;
        let verdict = if ratio > REGRESSION_FACTOR {
            failures += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{:<55} {ratio:>6.2}x committed  {verdict}", point.name);
    }
    if failures > 0 {
        eprintln!(
            "\nerror: {failures} entr{} regressed more than {REGRESSION_FACTOR}x past \
             the committed baseline; investigate or regenerate BENCH_baseline.json \
             with `cargo run --release --bin bench_baseline` if the change is intended",
            if failures == 1 { "y" } else { "ies" }
        );
        1
    } else {
        println!("\nall checked entries within {REGRESSION_FACTOR}x of the committed baseline");
        0
    }
}

fn main() {
    if std::env::args().any(|arg| arg == "--check") {
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
        description: "Median wall-clock timings of the simulator's hot paths; \
                      regenerate with `cargo run --release --bin bench_baseline`"
            .to_string(),
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
