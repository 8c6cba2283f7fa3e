//! Prints one digest line per replay over a fixed grid of traces, routing
//! policies, KV tier configurations and replay entry points, so that two
//! checkouts can be shown to produce byte-identical records by diffing their
//! outputs:
//!
//! ```text
//! cargo run --release --bin record_digests > after.txt
//! # in the other checkout, with this file copied to crates/bench/src/bin/:
//! cargo run --release --bin record_digests > before.txt
//! diff before.txt after.txt
//! ```
//!
//! Each line is an FNV-1a of `format!("{:?}", (records, cache, offload, makespan,
//! windows))` for one replay, with GPU evictions, CPU spills and reloads, net
//! reloads, full-residency allocation failures and handoffs beside it, so that the
//! coverage of those paths shows.
//! Every cluster replays its trace twice: the second window starts from the router
//! and shared-tier state the first left behind.  The grid:
//!
//! * a shared-prefix fleet trace as generated, reversed, and without its first
//!   user's arrivals, plus a per-request post-recommendation trace;
//! * `StickyUser`, `LeastLoaded` and `CacheAware` routing;
//! * no tiers, a CPU tier, CPU plus net tiers, and the last with window metrics,
//!   on a 4-GPU L4 fleet squeezed to `memory_utilization = 0.70` so they spill;
//! * `run`, `run_sequential`, `run_stream` and `run_stream_sequential`;
//! * then the tierless FCFS baselines, one trace each: PagedAttention on the
//!   4-GPU fleet over the shared-prefix trace, and tensor and pipeline parallelism
//!   across an L4 pair squeezed to `memory_utilization = 0.45` over the
//!   post-recommendation trace, so both evict (and pipeline parallelism, whose
//!   running requests pin their blocks past the stage-free time, fails
//!   allocations);
//! * then chunked prefill under KV pressure (full-residency allocation failures),
//!   a disaggregated fleet (handoffs), and a chunked-prefill Prefill : Decode L4
//!   pair whose decode slot runs out of room, so handoff admissions retry;
//! * then a drain-to-net over the post-recommendation trace, which also prints
//!   each drain's spill counts (its join lands after the trace's last arrival);
//! * then the elasticity ablation's drain-to-net handoff trace with a warm and a
//!   cold join, one replay per entry point each.  The program panics unless both
//!   joins apply, each joined slot serves records and the warm and cold digests
//!   differ, so the grid cannot silently stop covering a join.
//!
//! The program uses the public API and `prefillonly_bench`'s shared scenarios
//! only, so the same file builds in an older checkout of the workspace.

use gpu::{HardwareSetup, NetLinkKind};
use model::ModelPreset;
use prefillonly::{Cluster, EngineConfig, EngineKind, RoutingPolicyKind, RunReport};
use prefillonly_bench::{
    elastic_fleet_handoff, ELASTIC_DRAIN_AT_MS, ELASTIC_FLEET_QPS, ELASTIC_JOIN_AT_MS,
};
use simcore::{SimRng, SimTime};
use workload::{
    assign_poisson_arrivals_with, collect_stream, conversation_trace, ArrivalGranularity,
    ArrivalPattern, ConversationSpec, Dataset, InstanceRole, MembershipChange, MembershipEvent,
    MembershipSchedule, PostRecommendationSpec, SharedPrefixFleetSpec, SharedPrefixFleetStream,
    SliceArrivalStream,
};

const ENTRY_POINTS: [&str; 4] = [
    "run",
    "run_sequential",
    "run_stream",
    "run_stream_sequential",
];

/// Replays of each cluster: the second starts from the state the first left.
const WINDOWS: usize = 2;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One replay of `trace` through `entry` on `cluster`.
fn replay_report(
    cluster: &mut Cluster,
    entry: &str,
    trace: &[ArrivalPattern],
    qps: f64,
) -> Result<RunReport, prefillonly::RunError> {
    match entry {
        "run" => cluster.run(trace, qps),
        "run_sequential" => cluster.run_sequential(trace, qps),
        "run_stream" => cluster.run_stream(&mut SliceArrivalStream::sorting(trace), qps),
        _ => cluster.run_stream_sequential(&mut SliceArrivalStream::sorting(trace), qps),
    }
}

/// [`replay_report`], described as one digest line.
fn replay(cluster: &mut Cluster, entry: &str, trace: &[ArrivalPattern], qps: f64) -> String {
    match replay_report(cluster, entry, trace, qps) {
        Ok(report) => describe(&report),
        Err(err) => format!("error {err:?}"),
    }
}

fn digest(report: &RunReport) -> u64 {
    fnv1a(
        format!(
            "{:?}",
            (
                &report.records,
                report.cache,
                report.offload,
                report.makespan,
                &report.windows
            )
        )
        .as_bytes(),
    )
}

fn describe(report: &RunReport) -> String {
    format!(
        "{:016x} records={} evicted={} spilled={} reloaded={} net_reloaded={} \
         failed_allocations={} handoff_records={}",
        digest(report),
        report.records.len(),
        report.cache.evicted_blocks,
        report.offload.offloaded_blocks,
        report.offload.reloaded_blocks,
        report.offload.net_reloaded_blocks,
        report.cache.failed_allocations,
        report.offload.handoff_records
    )
}

/// Prints a line for every entry point and window of a fresh cluster of `config`.
fn replay_grid(label: &str, config: &EngineConfig, trace: &[ArrivalPattern], qps: f64) {
    for entry in ENTRY_POINTS {
        let mut cluster = Cluster::new(config);
        for window in 0..WINDOWS {
            let line = replay(&mut cluster, entry, trace, qps);
            println!("{label} {entry} window={window} {line}");
        }
    }
}

/// A fleet of `gpus` L4 GPUs, one PrefillOnly instance each.
fn l4_config(gpus: u32, kind: EngineKind, max_model_len: u64) -> EngineConfig {
    let mut hardware = HardwareSetup::l4_pair();
    hardware.num_gpus = gpus;
    EngineConfig::new(ModelPreset::Llama31_8b, hardware, kind, max_model_len)
}

fn post_recommendation_trace(
    spec: &PostRecommendationSpec,
    qps: f64,
    granularity: ArrivalGranularity,
) -> Vec<ArrivalPattern> {
    let mut rng = SimRng::seed_from_u64(11);
    let dataset = Dataset::post_recommendation(spec, &mut rng);
    assign_poisson_arrivals_with(&dataset, qps, granularity, &mut rng)
}

fn main() {
    let fleet_spec = SharedPrefixFleetSpec {
        num_cohorts: 6,
        users_per_cohort: 4,
        prefix_tokens: 2_048,
        suffix_tokens: 128,
        requests_per_user: 4,
    };
    let fleet_qps = 24.0;
    let fleet = collect_stream(&mut SharedPrefixFleetStream::new(fleet_spec, fleet_qps, 5));
    let reversed: Vec<ArrivalPattern> = fleet.iter().rev().cloned().collect();
    let first_user = fleet[0].template.user_id;
    let without_first_user: Vec<ArrivalPattern> = fleet
        .iter()
        .filter(|arrival| arrival.template.user_id != first_user)
        .cloned()
        .collect();
    let posts_spec = PostRecommendationSpec {
        num_users: 4,
        posts_per_user: 12,
        ..PostRecommendationSpec::default()
    };
    let posts_qps = 8.0;
    let posts = post_recommendation_trace(&posts_spec, posts_qps, ArrivalGranularity::PerRequest);
    let posts_len = posts_spec.profile_max_tokens + posts_spec.post_tokens;
    let fleet_len = fleet_spec.prefix_tokens + fleet_spec.suffix_tokens;

    let traces: [(&str, &[ArrivalPattern], f64, u64); 4] = [
        ("fleet", &fleet, fleet_qps, fleet_len),
        ("fleet_reversed", &reversed, fleet_qps, fleet_len),
        (
            "fleet_without_first_user",
            &without_first_user,
            fleet_qps,
            fleet_len,
        ),
        ("posts", &posts, posts_qps, posts_len),
    ];
    let routings = [
        ("sticky", RoutingPolicyKind::StickyUser),
        ("least_loaded", RoutingPolicyKind::LeastLoaded),
        ("cache_aware", RoutingPolicyKind::CacheAware),
    ];
    for (trace_name, trace, qps, max_len) in traces {
        for (routing_name, routing) in routings {
            let mut base =
                l4_config(4, EngineKind::prefillonly_default(), max_len).with_routing(routing);
            base.memory_utilization = 0.70;
            let cpu = base.clone().with_cpu_offload(128 << 20);
            let net = cpu.clone().with_net_kv(1 << 30).with_net_propagation_ms(0);
            let windowed = net.clone().with_window_metrics();
            for (tiers, config) in [
                ("tierless", &base),
                ("cpu", &cpu),
                ("cpu_net", &net),
                ("cpu_net_windows", &windowed),
            ] {
                let label = format!("{trace_name} {routing_name} {tiers}");
                replay_grid(&label, config, trace, qps);
            }
        }
    }

    // The tierless FCFS baselines, one trace each: PagedAttention on the 4-GPU
    // fleet, and tensor and pipeline parallelism across an L4 pair squeezed until
    // the post-recommendation trace evicts.
    let mut paged = l4_config(4, EngineKind::PagedAttention, fleet_len);
    paged.memory_utilization = 0.70;
    replay_grid("paged_attention fleet", &paged, &fleet, fleet_qps);
    for (label, kind) in [
        ("tensor_parallel posts", EngineKind::TensorParallel),
        ("pipeline_parallel posts", EngineKind::PipelineParallel),
    ] {
        let mut config = l4_config(2, kind, posts_len);
        config.memory_utilization = 0.45;
        replay_grid(label, &config, &posts, posts_qps);
    }

    // Decode-bearing conversations: chunked prefill under KV pressure, where
    // running requests pin their blocks past the stage-free time, and a
    // disaggregated fleet that hands every request to a decode slot.
    let chat_spec = ConversationSpec {
        num_sessions: 24,
        turns_per_session: 4,
        system_prompt_tokens: 1_024,
        first_turn_input_tokens: 1_024,
        turn_input_tokens: 192,
        decode_tokens_per_turn: 64,
        think_time_ms: 500,
    };
    let chat_qps = 6.0;
    let chat = conversation_trace(&chat_spec, chat_qps, 3);
    let chat_len = chat_spec.max_request_tokens();
    for (routing_name, routing) in routings {
        let mut chunked =
            l4_config(4, EngineKind::chunked_default(), chat_len).with_routing(routing);
        chunked.memory_utilization = 0.66;
        replay_grid(
            &format!("chat_chunked {routing_name}"),
            &chunked,
            &chat,
            chat_qps,
        );
        let mut roles = vec![InstanceRole::Prefill; 3];
        roles.push(InstanceRole::Decode);
        let disaggregated = l4_config(4, EngineKind::prefillonly_default(), chat_len)
            .with_routing(routing)
            .with_roles(roles)
            .with_net_link(NetLinkKind::Rdma100G);
        replay_grid(
            &format!("chat_disaggregated {routing_name}"),
            &disaggregated,
            &chat,
            chat_qps,
        );
    }

    // A chunked-prefill Prefill : Decode pair: chunked prefill keeps every
    // prompt's full KV resident, so the decode slot runs out of room and handoff
    // admissions retry at later boundaries.
    let retry_spec = ConversationSpec {
        num_sessions: 10,
        turns_per_session: 3,
        system_prompt_tokens: 1_024,
        first_turn_input_tokens: 2_048,
        turn_input_tokens: 256,
        decode_tokens_per_turn: 96,
        think_time_ms: 2_000,
    };
    let retry_qps = 1.0;
    let retry_chat = conversation_trace(&retry_spec, retry_qps, 77);
    let mut retry_fleet = l4_config(
        2,
        EngineKind::chunked_default(),
        retry_spec.max_request_tokens(),
    )
    .with_cpu_offload(768 << 20)
    .with_net_kv(64 << 30)
    .with_routing(RoutingPolicyKind::CacheAware)
    .with_net_propagation_ms(2_000)
    .with_roles(vec![InstanceRole::Prefill, InstanceRole::Decode]);
    retry_fleet.memory_utilization = 0.70;
    replay_grid(
        "chat_handoff_retries cache_aware",
        &retry_fleet,
        &retry_chat,
        retry_qps,
    );

    // An elastic fleet: one instance drains into the net tier at 2.5 s; the warm
    // join at 10 s comes after the trace's last arrival and does not apply.
    let elastic_posts =
        post_recommendation_trace(&posts_spec, posts_qps, ArrivalGranularity::PerUser);
    let elastic = l4_config(4, EngineKind::prefillonly_default(), posts_len)
        .with_routing(RoutingPolicyKind::CacheAware)
        .with_cpu_offload(768 << 20)
        .with_net_kv(1 << 30);
    for entry in ENTRY_POINTS {
        let mut cluster = Cluster::new(&elastic);
        cluster.schedule_membership(MembershipSchedule::new(vec![
            MembershipEvent {
                at: SimTime::from_millis(2_500),
                change: MembershipChange::Drain { spill: true },
            },
            MembershipEvent {
                at: SimTime::from_millis(10_000),
                change: MembershipChange::Join {
                    attached: true,
                    role: InstanceRole::Colocated,
                },
            },
        ]));
        for window in 0..WINDOWS {
            let line = replay(&mut cluster, entry, &elastic_posts, posts_qps);
            println!("elastic {entry} window={window} {line}");
        }
        for drain in cluster.drain_records() {
            println!(
                "elastic {entry} drain slot={} gpu_blocks={} cpu_blocks={} filtered={} evicted={}",
                drain.slot,
                drain.spill.gpu_blocks,
                drain.spill.cpu_blocks,
                drain.spill.filtered_blocks,
                drain.spill.evicted_blocks
            );
        }
    }

    // The elasticity ablation's handoff trace: one instance drains into the net
    // tier and a replacement joins warm (attached to the net tier) or cold.
    let (handoff_config, handoff_trace) = elastic_fleet_handoff();
    for entry in ENTRY_POINTS {
        let mut digests = Vec::new();
        for (warmth, attached) in [("warm", true), ("cold", false)] {
            let mut cluster = Cluster::new(&handoff_config);
            cluster.schedule_membership(MembershipSchedule::new(vec![
                MembershipEvent {
                    at: SimTime::from_millis(ELASTIC_DRAIN_AT_MS),
                    change: MembershipChange::Drain { spill: true },
                },
                MembershipEvent {
                    at: SimTime::from_millis(ELASTIC_JOIN_AT_MS),
                    change: MembershipChange::Join {
                        attached,
                        role: InstanceRole::Colocated,
                    },
                },
            ]));
            let report = replay_report(&mut cluster, entry, &handoff_trace, ELASTIC_FLEET_QPS)
                .expect("the handoff trace is feasible");
            let join = cluster
                .membership_log()
                .iter()
                .find(|applied| matches!(applied.change, MembershipChange::Join { .. }))
                .unwrap_or_else(|| {
                    panic!("elastic_handoff {warmth} {entry}: the join never applied")
                });
            let joined: Vec<_> = report
                .records
                .iter()
                .filter(|r| r.instance == join.slot && r.arrival >= join.at)
                .collect();
            assert!(
                !joined.is_empty(),
                "elastic_handoff {warmth} {entry}: the joined slot {} served no record",
                join.slot
            );
            let joiner_net_tokens: u64 = joined.iter().map(|r| r.net_reloaded_tokens).sum();
            println!(
                "elastic_handoff {warmth} {entry} joined_slot={} joined_at={} \
                 joiner_records={} joiner_net_reloaded_tokens={joiner_net_tokens} {}",
                join.slot,
                join.at,
                joined.len(),
                describe(&report)
            );
            digests.push(digest(&report));
        }
        assert_ne!(
            digests[0], digests[1],
            "elastic_handoff {entry}: warm and cold joins replayed identically"
        );
    }
}
