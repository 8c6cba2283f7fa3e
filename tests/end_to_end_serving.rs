//! Cross-crate integration tests: workload generation → cluster simulation → report.

use gpu::HardwareSetup;
use model::ModelPreset;
use prefillonly::{Cluster, EngineConfig, EngineKind, RunError};
use simcore::SimRng;
use workload::{
    assign_poisson_arrivals, assign_poisson_arrivals_with, ArrivalGranularity, Dataset,
    PostRecommendationSpec, WorkloadKind,
};

fn small_post_spec() -> PostRecommendationSpec {
    PostRecommendationSpec {
        num_users: 6,
        posts_per_user: 8,
        profile_mean_tokens: 5_000.0,
        profile_std_tokens: 600.0,
        profile_min_tokens: 4_000,
        profile_max_tokens: 6_000,
        ..PostRecommendationSpec::default()
    }
}

#[test]
fn every_request_is_served_exactly_once_and_latencies_are_consistent() {
    let mut rng = SimRng::seed_from_u64(101);
    let dataset = Dataset::post_recommendation(&small_post_spec(), &mut rng);
    let arrivals = assign_poisson_arrivals(&dataset, 4.0, &mut rng);
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    );
    let mut cluster = Cluster::new(&config);
    let report = cluster.run(&arrivals, 4.0).expect("feasible");

    assert_eq!(report.records.len(), dataset.len());
    let mut ids: Vec<u64> = report.records.iter().map(|r| r.request_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), dataset.len());

    for record in &report.records {
        assert!(
            record.started >= record.arrival,
            "execution cannot start before arrival"
        );
        assert!(
            record.completed > record.started,
            "execution takes positive time"
        );
        assert!(record.cached_tokens <= record.total_tokens);
        assert_eq!(record.latency(), record.queueing() + record.execution());
    }
    // The makespan is the last completion.
    let last = report
        .records
        .iter()
        .map(|r| r.completed)
        .max()
        .expect("non-empty");
    assert_eq!(report.makespan, last - simcore::SimTime::ZERO);
}

#[test]
fn prefillonly_runs_long_contexts_where_single_gpu_baselines_cannot() {
    let mut rng = SimRng::seed_from_u64(7);
    let dataset = Dataset::generate(WorkloadKind::CreditVerification, &mut rng);
    let arrivals: Vec<_> = assign_poisson_arrivals(&dataset, 0.2, &mut rng)
        .into_iter()
        .take(4)
        .collect();
    let max_tokens = dataset.max_request_tokens();

    // Table 2 / Fig. 6e: the credit-verification workload exceeds the PagedAttention
    // and chunked-prefill MILs on A100, but PrefillOnly serves it on a single GPU.
    let build = |kind| {
        EngineConfig::new(
            ModelPreset::Qwen25_32bFp8,
            HardwareSetup::a100_pair(),
            kind,
            max_tokens,
        )
    };
    for kind in [EngineKind::PagedAttention, EngineKind::chunked_default()] {
        let err = Cluster::new(&build(kind)).run(&arrivals, 0.2).unwrap_err();
        assert!(matches!(err, RunError::WorkloadInfeasible { .. }));
    }
    let report = Cluster::new(&build(EngineKind::prefillonly_default()))
        .run(&arrivals, 0.2)
        .expect("PrefillOnly must handle 40k-60k token requests on one A100");
    assert_eq!(report.records.len(), 4);
}

#[test]
fn fig8_shape_prefillonly_outperforms_parallelism_on_credit_throughput() {
    // Offered load far above capacity; sustained throughput ordering should match
    // Fig. 8: PrefillOnly > tensor parallel, and NVLink improves tensor parallel.
    let mut rng = SimRng::seed_from_u64(88);
    let spec = workload::CreditVerificationSpec {
        num_users: 12,
        ..workload::CreditVerificationSpec::default()
    };
    let dataset = Dataset::credit_verification(&spec, &mut rng);
    let arrivals =
        assign_poisson_arrivals_with(&dataset, 50.0, ArrivalGranularity::PerRequest, &mut rng);
    let max_tokens = dataset.max_request_tokens();

    let run = |kind, hardware| {
        let config = EngineConfig::new(ModelPreset::Llama33_70bFp8, hardware, kind, max_tokens);
        Cluster::new(&config)
            .run(&arrivals, 50.0)
            .expect("feasible")
            .throughput_rps()
    };

    let prefillonly = run(
        EngineKind::prefillonly_default(),
        HardwareSetup::h100_pair_pcie(),
    );
    let tp_pcie = run(EngineKind::TensorParallel, HardwareSetup::h100_pair_pcie());
    let tp_nvlink = run(
        EngineKind::TensorParallel,
        HardwareSetup::h100_pair_nvlink(),
    );

    assert!(
        prefillonly > tp_pcie,
        "PrefillOnly ({prefillonly:.3}) must beat TP over PCIe ({tp_pcie:.3})"
    );
    assert!(
        tp_nvlink > tp_pcie,
        "NVLink must improve the tensor-parallel baseline ({tp_nvlink:.3} vs {tp_pcie:.3})"
    );
    assert!(
        prefillonly > tp_nvlink * 0.95,
        "PrefillOnly ({prefillonly:.3}) should at least match TP even with NVLink ({tp_nvlink:.3})"
    );
}

#[test]
fn user_routing_keeps_a_users_prefix_on_one_instance() {
    let mut rng = SimRng::seed_from_u64(5);
    let dataset = Dataset::post_recommendation(&small_post_spec(), &mut rng);
    let arrivals = assign_poisson_arrivals(&dataset, 3.0, &mut rng);
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    );
    let mut cluster = Cluster::new(&config);
    let report = cluster.run(&arrivals, 3.0).expect("feasible");

    // Each user must be pinned to exactly one instance, and with 8 requests per user
    // sharing a 4-6k-token profile the overall hit rate must be substantial.
    for user in 0..6u64 {
        let mut instances: Vec<usize> = report
            .records
            .iter()
            .filter(|r| r.user_id == user)
            .map(|r| r.instance)
            .collect();
        instances.dedup();
        assert_eq!(
            instances.len(),
            1,
            "user {user} should stick to one instance"
        );
    }
    assert!(
        report.cache_hit_rate() > 0.5,
        "hit rate was {:.2}",
        report.cache_hit_rate()
    );
}

#[test]
fn hierarchical_kv_cache_reduces_jct_on_prefix_heavy_traces() {
    // §9 extension, end to end: on a prefix-heavy trace whose profile working set
    // exceeds the GPU prefix pool, spilling evicted profiles to CPU memory and
    // reloading them over PCIe beats recomputing them — nonzero reloads, strictly
    // lower mean JCT than discard-on-evict, and byte-identical reports between the
    // parallel and sequential replay paths.
    let spec = PostRecommendationSpec {
        num_users: 6,
        posts_per_user: 8,
        profile_mean_tokens: 5_000.0,
        profile_std_tokens: 600.0,
        profile_min_tokens: 4_000,
        profile_max_tokens: 6_000,
        ..PostRecommendationSpec::default()
    };
    let mut rng = SimRng::seed_from_u64(42);
    let dataset = Dataset::post_recommendation(&spec, &mut rng);
    // Per-request arrivals interleave users, so a user's profile goes cold (and gets
    // evicted) between their consecutive requests.
    let arrivals =
        assign_poisson_arrivals_with(&dataset, 3.0, ArrivalGranularity::PerRequest, &mut rng);
    let mut base = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    );
    // Squeeze the KV pool below the per-instance profile working set.
    base.memory_utilization = 0.70;

    let discard = Cluster::new(&base).run(&arrivals, 3.0).expect("feasible");
    assert!(
        discard.cache.evicted_blocks > 0,
        "the trace must put the GPU pool under eviction pressure"
    );
    assert_eq!(discard.reloaded_tokens(), 0);

    let offload_config = base.clone().with_cpu_offload(64 << 30);
    let mut cluster = Cluster::new(&offload_config);
    let offload = cluster.run(&arrivals, 3.0).expect("feasible");
    assert!(
        offload.offload.reloaded_blocks > 0,
        "evicted profiles must be served back from the CPU tier"
    );
    assert!(offload.offload.offloaded_blocks >= offload.offload.reloaded_blocks / 2);
    assert!(offload.reloaded_tokens() > 0);
    assert!(
        offload.mean_latency_secs() < discard.mean_latency_secs(),
        "reloading over PCIe must beat recomputing: {:.4}s vs {:.4}s",
        offload.mean_latency_secs(),
        discard.mean_latency_secs()
    );

    // Determinism: the threaded replay of the offload-enabled deployment matches the
    // sequential reference byte for byte.
    let sequential = Cluster::new(&offload_config)
        .run_sequential(&arrivals, 3.0)
        .expect("feasible");
    assert_eq!(offload.records, sequential.records);
    assert_eq!(offload.offload, sequential.offload);
    assert_eq!(offload.cache, sequential.cache);
}

#[test]
fn cold_instances_joining_a_warm_deployment_benefit_from_the_net_tier() {
    // Cluster-wide KV sharing, end to end: a deployment serves a prefix-heavy trace
    // with all three KV tiers squeezed, populating the cluster-shared network tier
    // with reused profile prefixes.  A *cold* deployment (fresh instances, empty GPU
    // and CPU caches — the "new node joins" scenario) then serves the same users:
    // with the warm network tier it rehydrates profiles over the network link instead
    // of recomputing them, so its mean JCT is strictly lower than the identical cold
    // deployment with the network tier disabled (`net_kv_capacity_bytes = 0`).
    let spec = PostRecommendationSpec {
        num_users: 6,
        posts_per_user: 8,
        profile_mean_tokens: 5_000.0,
        profile_std_tokens: 600.0,
        profile_min_tokens: 4_000,
        profile_max_tokens: 6_000,
        ..PostRecommendationSpec::default()
    };
    let mut rng = SimRng::seed_from_u64(42);
    let dataset = Dataset::post_recommendation(&spec, &mut rng);
    let arrivals =
        assign_poisson_arrivals_with(&dataset, 3.0, ArrivalGranularity::PerRequest, &mut rng);
    let mut base = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    );
    // Squeeze the GPU pool below the profile working set and the CPU tier to about
    // one profile, so reused prefixes cascade GPU → CPU → network.
    base.memory_utilization = 0.70;
    let with_net = base
        .clone()
        .with_cpu_offload(768 << 20)
        .with_net_kv(64 << 30);

    // Warm phase: one replay window populates the shared tier.
    let mut warm_cluster = Cluster::new(&with_net);
    warm_cluster.run(&arrivals, 3.0).expect("feasible");
    let warm_pool = warm_cluster.net_pool().expect("net tier enabled").clone();
    assert!(
        warm_pool.resident_blocks() > 0,
        "the warm window must feed the shared tier"
    );

    // Cold join: fresh instances, warm shared tier.
    let cold_with_net = Cluster::with_warm_net_pool(&with_net, warm_pool)
        .run(&arrivals, 3.0)
        .expect("feasible");
    // The same cold deployment without the network tier recomputes everything.
    let cold_without = Cluster::new(&base.clone().with_cpu_offload(768 << 20).with_net_kv(0))
        .run(&arrivals, 3.0)
        .expect("feasible");

    assert!(
        cold_with_net.offload.net_reloaded_blocks > 0,
        "early requests must be served from the warm network tier"
    );
    assert!(cold_with_net.net_reloaded_tokens() > 0);
    assert_eq!(cold_without.net_reloaded_tokens(), 0);
    assert!(
        cold_with_net.mean_latency_secs() < cold_without.mean_latency_secs(),
        "network-tier reloads must beat recomputation: {:.4}s vs {:.4}s",
        cold_with_net.mean_latency_secs(),
        cold_without.mean_latency_secs()
    );

    // The benefit concentrates where the paper's cluster model predicts: each
    // user's *first* request on the cold deployment (the cold-start prefill) is
    // what the warm tier accelerates.
    let first_request_mean = |report: &prefillonly::RunReport| {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0.0;
        let mut count = 0u32;
        let mut records = report.records.clone();
        records.sort_by_key(|r| (r.arrival, r.request_id));
        for record in &records {
            if seen.insert(record.user_id) {
                total += record.execution().as_secs_f64();
                count += 1;
            }
        }
        total / f64::from(count)
    };
    assert!(
        first_request_mean(&cold_with_net) < first_request_mean(&cold_without),
        "per-user cold-start prefills must get faster"
    );
}

#[test]
fn within_window_propagation_beats_window_boundary_sharing_on_a_single_window_trace() {
    // The propagation tentpole, end to end: a *long single-window* trace over the
    // shared-prefix fleet workload (cohorts of users sharing a 5k-token cross-user
    // prefix).  Sticky routing splits each cohort across both instances, so one
    // instance computes a cohort prefix that the other instance's members will need
    // — but under window-boundary-only sharing (`net_propagation_ms = 0`) a single
    // `run` call never lets those spills cross instances, and the second instance
    // recomputes the prefix from scratch.  With a finite propagation delay the
    // spills surface at epoch boundaries mid-window: the late cohort members reload
    // the prefix over the fabric instead, and mean JCT drops strictly — with the
    // replay byte-identical across the parallel and sequential paths, and the
    // accounting attributing the reloads to mid-window propagation.
    // The scenario definition is shared with `ablation_net_kv`'s propagation sweep
    // (see `prefillonly_bench::scenarios`): three cohorts of four users sharing a
    // 5k-token prefix, per-request arrivals spreading 72 requests over ~24 s of
    // virtual time — roughly a dozen 2 s propagation epochs, all inside ONE replay
    // window — with the GPU pool and CPU tier squeezed so reused prefixes cascade
    // GPU → CPU → network within the window.
    let (base, arrivals) = prefillonly_bench::shared_prefix_fleet_pressure();
    let qps = prefillonly_bench::SHARED_PREFIX_FLEET_QPS;

    // Window-boundary-only propagation: one run call = one window, so the shared
    // tier is fed but never read across instances within this trace.
    let boundary_only = Cluster::new(&base).run(&arrivals, qps).expect("feasible");
    assert!(
        boundary_only.offload.net_offloaded_blocks > 0,
        "the scenario must feed the shared tier in-window"
    );
    assert_eq!(boundary_only.net_propagated_tokens(), 0);
    assert_eq!(boundary_only.offload.net_propagated_reload_blocks, 0);

    // Finite propagation: spills surface cluster-wide two seconds after they
    // happen, still inside the same window.
    let propagating_config = base.clone().with_net_propagation_ms(2_000);
    let propagating = Cluster::new(&propagating_config)
        .run(&arrivals, qps)
        .expect("feasible");
    let sequential = Cluster::new(&propagating_config)
        .run_sequential(&arrivals, qps)
        .expect("feasible");
    assert_eq!(propagating.records, sequential.records);
    assert_eq!(propagating.offload, sequential.offload);
    assert_eq!(propagating.cache, sequential.cache);

    assert!(
        propagating.offload.net_propagated_reload_blocks > 0,
        "mid-window propagation must enable reloads the boundary model missed"
    );
    assert!(propagating.net_propagated_tokens() > 0);
    assert!(
        propagating.net_propagated_tokens() <= propagating.net_reloaded_tokens(),
        "propagated reloads are a subset of net reloads"
    );
    assert!(
        propagating.mean_latency_secs() < boundary_only.mean_latency_secs(),
        "within-window propagation must beat window-boundary sharing: {:.4}s vs {:.4}s",
        propagating.mean_latency_secs(),
        boundary_only.mean_latency_secs()
    );
}

#[test]
fn cache_aware_routing_beats_sticky_on_a_shared_prefix_multi_user_trace() {
    // The routing-layer tentpole, end to end: six users form two cohorts that share
    // a 6,000-token prefix *across* users (cohort A: users 0-2, cohort B: users
    // 3-5).  A warmup window computes prefix A on one instance and prefix B on the
    // other; the main window's first appearances are ordered so §7.1 sticky
    // round-robin splits each cohort across both instances — recomputing each
    // cohort's prefix cold on the instance that never held it — while cache-aware
    // routing walks each instance's window-start KV residency and consolidates each
    // cohort onto its warm instance.  Mean JCT must be strictly lower under cache-aware
    // routing, with identical per-instance user counts (the win is cache reuse,
    // not load shifting).
    use prefillonly::{RoutingPolicyKind, RoutingReason};
    use simcore::SimTime;
    use std::sync::Arc;
    use workload::{ArrivalPattern, RequestTemplate};

    const PREFIX_TOKENS: u32 = 6_000;
    const SUFFIX_TOKENS: u32 = 150;
    let cohort_prefix = |user: u64| -> std::ops::Range<u32> {
        if user < 3 {
            0..PREFIX_TOKENS
        } else {
            1_000_000..1_000_000 + PREFIX_TOKENS
        }
    };
    let request = |user: u64, round: u32, at_ms: u64| -> ArrivalPattern {
        let mut tokens: Vec<u32> = cohort_prefix(user).collect();
        let suffix_start = 2_000_000 + user as u32 * 10_000 + round * 1_000;
        tokens.extend(suffix_start..suffix_start + SUFFIX_TOKENS);
        ArrivalPattern {
            template: RequestTemplate {
                user_id: user,
                tokens: Arc::new(tokens),
                shared_prefix_tokens: u64::from(PREFIX_TOKENS),
                decode_tokens: 0,
            },
            arrival: SimTime::from_millis(at_ms),
            sticky: None,
        }
    };

    // Warmup: user 0 computes prefix A (lands on instance 0), user 3 prefix B
    // (instance 1) — identical placement under both policies.
    let warmup = vec![request(0, 0, 0), request(3, 0, 500)];
    // Main window: first appearances ordered A, A, B, B so sticky round-robin
    // (continuing from the two warmup users) pins user 1 → 0, user 2 → 1,
    // user 4 → 0, user 5 → 1, splitting both cohorts.
    let user_order = [1u64, 2, 4, 5, 0, 3];
    let mut main = Vec::new();
    for round in 0..4u32 {
        for (pos, &user) in user_order.iter().enumerate() {
            let at = (u64::from(round) * user_order.len() as u64 + pos as u64) * 700;
            main.push(request(user, round + 1, at));
        }
    }

    let base = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        u64::from(PREFIX_TOKENS + SUFFIX_TOKENS),
    );
    let run = |routing: RoutingPolicyKind| {
        let mut cluster = Cluster::new(&base.clone().with_routing(routing));
        cluster.run(&warmup, 2.0).expect("warmup feasible");
        cluster.run(&main, 2.0).expect("main window feasible")
    };
    let sticky = run(RoutingPolicyKind::StickyUser);
    let cache_aware = run(RoutingPolicyKind::CacheAware);

    // Same request count, and the same 3-users-per-instance balance.
    assert_eq!(sticky.records.len(), main.len());
    assert_eq!(cache_aware.records.len(), main.len());
    let users_on = |report: &prefillonly::RunReport, instance: usize| {
        let mut users: Vec<u64> = report
            .records
            .iter()
            .filter(|r| r.instance == instance)
            .map(|r| r.user_id)
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    };
    assert_eq!(users_on(&sticky, 0).len(), 3);
    assert_eq!(users_on(&cache_aware, 0).len(), 3);
    // Cache-aware consolidates the cohorts; sticky splits both.
    assert_eq!(users_on(&cache_aware, 0), vec![0, 1, 2]);
    assert_eq!(users_on(&cache_aware, 1), vec![3, 4, 5]);
    assert_ne!(users_on(&sticky, 0), vec![0, 1, 2]);

    // Every main-window cache-aware decision followed a modelled prefix hit, and
    // the recorded reasons say so.
    assert!(cache_aware
        .records
        .iter()
        .all(|r| r.routing == RoutingReason::DeepestPrefix));
    assert!(sticky.records.iter().all(|r| matches!(
        r.routing,
        RoutingReason::StickyNew | RoutingReason::StickyExisting
    )));

    // The acceptance criterion: strictly lower mean JCT and strictly higher hit
    // rate — the cohort prefixes are computed once per instance instead of twice.
    assert!(cache_aware.cache_hit_rate() > sticky.cache_hit_rate());
    assert!(
        cache_aware.mean_latency_secs() < sticky.mean_latency_secs(),
        "cache-aware routing must beat sticky on mean JCT: {:.4}s vs {:.4}s",
        cache_aware.mean_latency_secs(),
        sticky.mean_latency_secs()
    );
}

#[test]
fn cache_aware_routing_beats_sticky_on_mean_ttft_on_a_multi_turn_decode_trace() {
    // The decode-stage tentpole, end to end: the two-cohort shared-prefix shape of
    // the test above, but every request is a conversation turn — its sequence is
    // the cohort prefix plus the user's full session history (inputs *and decoded
    // replies* of earlier rounds) plus a fresh input, and the engine decodes a
    // 96-token reply that the next round re-hits as cached prefix.  Sticky
    // round-robin splits each cohort across both instances, recomputing the
    // 6,000-token cohort prefix cold; cache-aware routing consolidates each cohort
    // onto its warm instance.  The win must show up on **mean TTFT** — the
    // decode-side metric: prefill work ends at the first token, so cheaper
    // prefills pull the first token earlier while the decode tail is identical in
    // length — at identical per-instance user balance.
    use prefillonly::{RoutingPolicyKind, RoutingReason};
    use simcore::SimTime;
    use std::sync::Arc;
    use workload::{ArrivalPattern, RequestTemplate};

    const PREFIX_TOKENS: u32 = 6_000;
    const INPUT_TOKENS: u32 = 150;
    const REPLY_TOKENS: u32 = 96;
    const ROUNDS: u32 = 5; // warmup round 0 + four main-window rounds
    let cohort_prefix = |user: u64| -> std::ops::Range<u32> {
        if user < 3 {
            0..PREFIX_TOKENS
        } else {
            1_000_000..1_000_000 + PREFIX_TOKENS
        }
    };
    // Round r's sequence replays the whole session: cohort prefix, then every
    // earlier round's input and decoded reply, then round r's input and the reply
    // the engine is about to decode (the trailing `decode_tokens`).
    let request = |user: u64, round: u32, at_ms: u64| -> ArrivalPattern {
        let mut tokens: Vec<u32> = cohort_prefix(user).collect();
        for r in 0..=round {
            let input_start = 2_000_000 + user as u32 * 100_000 + r * 1_000;
            tokens.extend(input_start..input_start + INPUT_TOKENS);
            let reply_start = 3_000_000 + user as u32 * 100_000 + r * 1_000;
            tokens.extend(reply_start..reply_start + REPLY_TOKENS);
        }
        ArrivalPattern {
            template: RequestTemplate {
                user_id: user,
                tokens: Arc::new(tokens),
                shared_prefix_tokens: u64::from(PREFIX_TOKENS),
                decode_tokens: u64::from(REPLY_TOKENS),
            },
            arrival: SimTime::from_millis(at_ms),
            sticky: None,
        }
    };

    // Warmup: user 0 computes prefix A (lands on instance 0), user 3 prefix B
    // (instance 1) — identical placement under both policies, and each warmup
    // turn's decoded reply is committed into the warm instance's prefix cache.
    let warmup = vec![request(0, 0, 0), request(3, 0, 500)];
    // Main window: first appearances ordered A, A, B, B so sticky round-robin
    // splits both cohorts, exactly as in the JCT test above.
    let user_order = [1u64, 2, 4, 5, 0, 3];
    let mut main = Vec::new();
    for round in 1..ROUNDS {
        for (pos, &user) in user_order.iter().enumerate() {
            let at = (u64::from(round - 1) * user_order.len() as u64 + pos as u64) * 700;
            main.push(request(user, round, at));
        }
    }

    let max_tokens = u64::from(PREFIX_TOKENS + ROUNDS * (INPUT_TOKENS + REPLY_TOKENS));
    let base = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        max_tokens,
    );
    let run = |routing: RoutingPolicyKind| {
        let mut cluster = Cluster::new(&base.clone().with_routing(routing));
        cluster.run(&warmup, 2.0).expect("warmup feasible");
        cluster.run(&main, 2.0).expect("main window feasible")
    };
    let sticky = run(RoutingPolicyKind::StickyUser);
    let cache_aware = run(RoutingPolicyKind::CacheAware);

    // Same request count and the same 3-users-per-instance balance: the TTFT win
    // below is cache reuse, not load shifting.
    assert_eq!(sticky.records.len(), main.len());
    assert_eq!(cache_aware.records.len(), main.len());
    let users_on = |report: &prefillonly::RunReport, instance: usize| {
        let mut users: Vec<u64> = report
            .records
            .iter()
            .filter(|r| r.instance == instance)
            .map(|r| r.user_id)
            .collect();
        users.sort_unstable();
        users.dedup();
        users
    };
    assert_eq!(users_on(&sticky, 0).len(), 3);
    assert_eq!(users_on(&cache_aware, 0).len(), 3);
    assert_eq!(users_on(&cache_aware, 0), vec![0, 1, 2]);
    assert_eq!(users_on(&cache_aware, 1), vec![3, 4, 5]);
    assert_ne!(users_on(&sticky, 0), vec![0, 1, 2]);
    assert!(cache_aware
        .records
        .iter()
        .all(|r| r.routing == RoutingReason::DeepestPrefix));

    // The decode stage is genuinely on: every turn decodes its reply, TPOT is
    // defined, and the first token strictly precedes completion.
    for report in [&sticky, &cache_aware] {
        assert_eq!(
            report.decode_tokens(),
            main.len() as u64 * u64::from(REPLY_TOKENS)
        );
        assert!(report.tpot_summary().is_some());
        assert!(report.records.iter().all(|r| r.first_token < r.completed));
    }

    // The acceptance criterion: strictly lower mean TTFT (and strictly higher hit
    // rate) — consolidation makes each turn's prefill a pure extension of the
    // session's cached sequence, decoded replies included.
    assert!(cache_aware.cache_hit_rate() > sticky.cache_hit_rate());
    assert!(
        cache_aware.mean_ttft_secs() < sticky.mean_ttft_secs(),
        "cache-aware routing must beat sticky on mean TTFT: {:.4}s vs {:.4}s",
        cache_aware.mean_ttft_secs(),
        sticky.mean_ttft_secs()
    );
}

#[test]
fn warm_join_recovers_strictly_faster_than_cold_join_on_a_shared_prefix_fleet() {
    // The elastic-fleet tentpole, end to end: a two-instance deployment serves
    // three cohorts of four users sharing 5k-token cross-user prefixes with all
    // three KV tiers squeezed (the `shared_prefix_fleet_pressure` shape).  One
    // instance drains early — its drain-to-net handoff publishes the cohort
    // prefixes it computed into the shared tier — and a replacement joins later;
    // six *new* cohort members first arrive after the join, and sticky
    // round-robin re-pinning spreads them (and all three cohorts) across both
    // routable slots.  A *warm* join (attached to the shared tier) rehydrates the
    // leaver's prefixes over the fabric; a *cold* join (detached for life)
    // recomputes them — so post-join mean JCT must be strictly lower under the
    // warm join, with the difference visible in the joiner's own records.
    // The scenario definition is shared with `ablation_elastic`'s warmth sweep
    // (see `prefillonly_bench::scenarios`).
    use simcore::SimTime;
    use workload::{MembershipChange, MembershipEvent, MembershipSchedule};

    let (config, arrivals) = prefillonly_bench::elastic_fleet_handoff();
    let qps = prefillonly_bench::ELASTIC_FLEET_QPS;

    let run = |attached: bool| {
        let mut cluster = Cluster::new(&config);
        cluster.schedule_membership(MembershipSchedule::new(vec![
            MembershipEvent {
                at: SimTime::from_millis(prefillonly_bench::ELASTIC_DRAIN_AT_MS),
                change: MembershipChange::Drain { spill: true },
            },
            MembershipEvent {
                at: SimTime::from_millis(prefillonly_bench::ELASTIC_JOIN_AT_MS),
                change: MembershipChange::Join {
                    attached,
                    role: workload::InstanceRole::Colocated,
                },
            },
        ]));
        let report = cluster.run(&arrivals, qps).expect("feasible");
        let log = cluster.membership_log().to_vec();
        let drains = cluster.drain_records().to_vec();
        (report, log, drains)
    };
    let (warm, warm_log, warm_drains) = run(true);
    let (cold, cold_log, _) = run(false);

    // Both runs apply the same schedule at the same boundaries onto the same
    // slots, and the leaver's handoff actually published KV.
    assert_eq!(warm_log.len(), 2);
    assert_eq!(cold_log.len(), 2);
    assert_eq!(warm_log[1].at, cold_log[1].at);
    assert_eq!(warm_log[1].slot, cold_log[1].slot);
    assert_eq!(warm_drains.len(), 1);
    assert!(
        warm_drains[0].spill.gpu_blocks > 0,
        "the leaver must hand its GPU-resident cohort prefixes to the shared tier"
    );
    let (joined_at, joiner) = (warm_log[1].at, warm_log[1].slot);

    // The joiner actually received work in both runs (sticky re-pins the late
    // users round-robin across both routable slots).  The joiner reuses the
    // drained slot, so only post-join records count.
    let on_joiner = |report: &prefillonly::RunReport| {
        report
            .records
            .iter()
            .filter(|r| r.instance == joiner && r.arrival >= joined_at)
            .count()
    };
    assert!(on_joiner(&warm) > 0, "the warm joiner must serve requests");
    assert!(on_joiner(&cold) > 0, "the cold joiner must serve requests");

    // Warm entry shows up as network-tier reloads on the joiner; a cold (detached)
    // joiner can never touch the shared tier.
    let joiner_net_tokens = |report: &prefillonly::RunReport| {
        report
            .records
            .iter()
            .filter(|r| r.instance == joiner && r.arrival >= joined_at)
            .map(|r| r.net_reloaded_tokens)
            .sum::<u64>()
    };
    assert!(
        joiner_net_tokens(&warm) > 0,
        "the warm joiner must rehydrate cohort prefixes from the shared tier"
    );
    assert_eq!(joiner_net_tokens(&cold), 0);

    // The acceptance criterion: strictly lower mean JCT over the post-join phase.
    let post_join_mean = |report: &prefillonly::RunReport| {
        let latencies: Vec<f64> = report
            .records
            .iter()
            .filter(|r| r.arrival >= joined_at)
            .map(|r| r.latency().as_secs_f64())
            .collect();
        assert!(!latencies.is_empty());
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    assert!(
        post_join_mean(&warm) < post_join_mean(&cold),
        "warm join must recover faster than cold join: {:.4}s vs {:.4}s",
        post_join_mean(&warm),
        post_join_mean(&cold)
    );
}

#[test]
fn autoscaler_beats_a_static_under_provisioned_fleet() {
    // Elastic-fleet satellite, end to end: the shared-prefix fleet trace replayed
    // on a deployment squeezed to ONE instance (a drain scheduled at t = 0).  The
    // static fleet stays under-provisioned for the whole trace; the autoscaled
    // fleet notices the queue at the first epoch boundary and scales back up to
    // two instances (a derived, warm join) — so its mean JCT must be strictly
    // lower, and every derived event must be logged as autoscaled.
    use simcore::SimTime;
    use workload::{MembershipChange, MembershipEvent, MembershipSchedule};

    let (base, arrivals) = prefillonly_bench::shared_prefix_fleet_pressure();
    let qps = prefillonly_bench::SHARED_PREFIX_FLEET_QPS;
    let config = base.with_net_propagation_ms(2_000);
    let squeeze = MembershipSchedule::new(vec![MembershipEvent {
        at: SimTime::ZERO,
        change: MembershipChange::Drain { spill: true },
    }]);

    let mut static_cluster = Cluster::new(&config);
    static_cluster.schedule_membership(squeeze.clone());
    let static_report = static_cluster.run(&arrivals, qps).expect("feasible");
    assert_eq!(static_cluster.membership_log().len(), 1);
    assert_eq!(static_cluster.num_active_instances(), 1);

    let autoscaled_config = config.with_autoscaler(prefillonly::AutoscalerPolicy {
        scale_up_outstanding_tokens: 20_000,
        scale_down_outstanding_tokens: 0,
        cooldown_epochs: 1,
        min_instances: 1,
        max_instances: 2,
    });
    let mut autoscaled_cluster = Cluster::new(&autoscaled_config);
    autoscaled_cluster.schedule_membership(squeeze);
    let autoscaled_report = autoscaled_cluster.run(&arrivals, qps).expect("feasible");

    let log = autoscaled_cluster.membership_log();
    assert!(
        log.iter().any(|applied| applied.autoscaled
            && matches!(
                applied.change,
                MembershipChange::Join { attached: true, .. }
            )),
        "the autoscaler must derive a warm join under queue pressure"
    );
    assert!(log.iter().skip(1).all(|applied| applied.autoscaled));
    assert_eq!(autoscaled_cluster.num_active_instances(), 2);
    assert!(
        autoscaled_report.mean_latency_secs() < static_report.mean_latency_secs(),
        "scaling back up must beat staying under-provisioned: {:.4}s vs {:.4}s",
        autoscaled_report.mean_latency_secs(),
        static_report.mean_latency_secs()
    );
}

#[test]
fn reports_are_deterministic_for_a_fixed_seed() {
    let build = || {
        let mut rng = SimRng::seed_from_u64(404);
        let dataset = Dataset::post_recommendation(&small_post_spec(), &mut rng);
        let arrivals = assign_poisson_arrivals(&dataset, 5.0, &mut rng);
        let config = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            dataset.max_request_tokens(),
        );
        Cluster::new(&config).run(&arrivals, 5.0).expect("feasible")
    };
    let a = build();
    let b = build();
    assert_eq!(a.records.len(), b.records.len());
    assert_eq!(a.makespan, b.makespan);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra, rb, "identical seeds must yield identical traces");
    }
}

#[test]
fn overload_degrades_latency_but_not_correctness() {
    let mut rng = SimRng::seed_from_u64(31);
    let dataset = Dataset::post_recommendation(&small_post_spec(), &mut rng);
    let config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::PagedAttention,
        dataset.max_request_tokens(),
    );
    let mut latencies = Vec::new();
    for qps in [1.0, 30.0] {
        let arrivals = assign_poisson_arrivals(&dataset, qps, &mut SimRng::seed_from_u64(32));
        let report = Cluster::new(&config).run(&arrivals, qps).expect("feasible");
        assert_eq!(report.records.len(), dataset.len());
        latencies.push(report.mean_latency_secs());
    }
    assert!(
        latencies[1] > latencies[0],
        "30 qps should be slower than 1 qps ({:?})",
        latencies
    );
}
