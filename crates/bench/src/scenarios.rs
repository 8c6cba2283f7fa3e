//! Shared end-to-end pressure scenarios.
//!
//! The propagation-delay ablation (`ablation_net_kv`) and the e2e acceptance test
//! (`within_window_propagation_beats_window_boundary_sharing_on_a_single_window_trace`)
//! must replay the *same* scenario — a drift between them would silently turn the
//! benchmark into a measurement of something the tests no longer pin.  The single
//! definition lives here.

use gpu::HardwareSetup;
use model::ModelPreset;
use prefillonly::{EngineConfig, EngineKind};
use simcore::SimRng;
use workload::{
    assign_poisson_arrivals_with, ArrivalGranularity, ArrivalPattern, Dataset,
    SharedPrefixFleetSpec,
};

/// The within-window propagation scenario: three cohorts of four users sharing a
/// 5k-token cross-user prefix, sticky-split across both instances of an L4 pair,
/// replayed as one long (~24 s) window of per-request Poisson arrivals.  Each
/// instance's working set is all three 5k prefixes (312 full blocks each) plus
/// every request's 150-token suffix.  The GPU pool is squeezed to 728 blocks
/// (~11.6k tokens, 2.3 prefixes) and the CPU tier to 256 blocks of 2 MiB (~0.8 of
/// a prefix): together 984 blocks, just over the three prefixes' 936, so the
/// suffix blocks committed between a prefix's reuses push it out.  Reused prefixes therefore spill, reload (earning
/// the spill filter's reuse evidence) and cascade GPU → CPU → network within the
/// window.  The CPU size is the one point of a sweep that keeps that cascade: at
/// 640 MiB and above the two local tiers keep the reused prefixes, so nothing
/// propagates mid-window, and at 448 MiB and below the CPU tier drops spilled
/// blocks before their reuse, so the single-use filter keeps them out of the
/// network tier.
///
/// The returned config has the shared network tier enabled and
/// `net_propagation_ms` at its default of 0; callers pick the delay under test via
/// [`EngineConfig::with_net_propagation_ms`].
pub fn shared_prefix_fleet_pressure() -> (EngineConfig, Vec<ArrivalPattern>) {
    let spec = SharedPrefixFleetSpec {
        num_cohorts: 3,
        users_per_cohort: 4,
        prefix_tokens: 5_000,
        suffix_tokens: 150,
        requests_per_user: 6,
    };
    let dataset = Dataset::shared_prefix_fleet(&spec);
    let mut rng = SimRng::seed_from_u64(42);
    let arrivals =
        assign_poisson_arrivals_with(&dataset, 3.0, ArrivalGranularity::PerRequest, &mut rng);
    let mut config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        dataset.max_request_tokens(),
    );
    config.memory_utilization = 0.70;
    (
        config.with_cpu_offload(512 << 20).with_net_kv(64 << 30),
        arrivals,
    )
}

/// The offered QPS of [`shared_prefix_fleet_pressure`]'s arrival process.
pub const SHARED_PREFIX_FLEET_QPS: f64 = 3.0;

/// When [`elastic_fleet_handoff`]'s drain event is scheduled (ms of virtual time).
pub const ELASTIC_DRAIN_AT_MS: u64 = 1_500;
/// When [`elastic_fleet_handoff`]'s join event is scheduled (ms of virtual time).
pub const ELASTIC_JOIN_AT_MS: u64 = 11_000;
/// The offered QPS reported for [`elastic_fleet_handoff`]'s arrival process.
pub const ELASTIC_FLEET_QPS: f64 = 3.0;

/// The drain-to-net handoff scenario: the elasticity ablation (`ablation_elastic`)
/// and the e2e acceptance test
/// (`warm_join_recovers_strictly_faster_than_cold_join_on_a_shared_prefix_fleet`)
/// replay the same trace, shared here for the same no-drift reason as
/// [`shared_prefix_fleet_pressure`].
///
/// Twelve founding users in three 5k-token-prefix cohorts (cohort = user / 4)
/// replay six interleaved rounds over ~15.8 s on an L4 pair with all three KV
/// tiers squeezed.  One instance is expected to drain at
/// [`ELASTIC_DRAIN_AT_MS`] — its drain-to-net handoff publishes the cohort
/// prefixes it computed — and a replacement to join at [`ELASTIC_JOIN_AT_MS`];
/// six *late* cohort members (cohort = user % 3) first arrive after the join
/// applies, so sticky round-robin re-pinning spreads them (and all three
/// cohorts) across both routable slots.  Callers pick the membership schedule:
/// the warmth of the join (attached or not) and whether the drain spills are
/// exactly what the ablation sweeps.
pub fn elastic_fleet_handoff() -> (EngineConfig, Vec<ArrivalPattern>) {
    use simcore::SimTime;
    use workload::RequestTemplate;

    const PREFIX_TOKENS: u32 = 5_000;
    const SUFFIX_TOKENS: u32 = 150;
    let request = |cohort: u32, user: u64, round: u32, at_ms: u64| -> ArrivalPattern {
        let mut tokens: Vec<u32> =
            (cohort * 1_000_000..cohort * 1_000_000 + PREFIX_TOKENS).collect();
        let suffix_start = 10_000_000 + user as u32 * 10_000 + round * 1_000;
        tokens.extend(suffix_start..suffix_start + SUFFIX_TOKENS);
        ArrivalPattern {
            template: RequestTemplate {
                user_id: user,
                tokens: tokens.into(),
                shared_prefix_tokens: u64::from(PREFIX_TOKENS),
                decode_tokens: 0,
            },
            arrival: SimTime::from_millis(at_ms),
        }
    };

    let mut arrivals = Vec::new();
    for round in 0..6u32 {
        for user in 0..12u64 {
            let at = (u64::from(round) * 12 + user) * 220;
            arrivals.push(request(user as u32 / 4, user, round, at));
        }
    }
    for round in 0..2u32 {
        for late in 0..6u64 {
            let user = 12 + late;
            let at = 12_500 + (u64::from(round) * 6 + late) * 400;
            arrivals.push(request((late % 3) as u32, user, round, at));
        }
    }
    arrivals.sort_by_key(|a| a.arrival);

    let mut config = EngineConfig::new(
        ModelPreset::Llama31_8b,
        HardwareSetup::l4_pair(),
        EngineKind::prefillonly_default(),
        u64::from(PREFIX_TOKENS + SUFFIX_TOKENS),
    );
    config.memory_utilization = 0.70;
    (
        config
            .with_cpu_offload(1536 << 20)
            .with_net_kv(64 << 30)
            .with_net_propagation_ms(2_000),
        arrivals,
    )
}
