//! The four replay workloads: each is a deployment plus an open-loop arrival
//! generator, both pure functions of the workload name and the seed.

use gpu::HardwareSetup;
use model::ModelPreset;
use prefillonly::{EngineConfig, EngineKind, RoutingPolicyKind};
use simcore::SimRng;
use workload::{
    assign_poisson_arrivals_with, ArrivalGranularity, ArrivalStream, ConversationSpec,
    ConversationStream, Dataset, InstanceRole, PostRecommendationSpec, SharedPrefixFleetSpec,
    SharedPrefixFleetStream, SortedTrace,
};

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "sticky_fleet",
    "tiered_fleet",
    "disagg_chat",
    "postrec_srjf",
];

/// Distinct traces a run draws from its seed.  Replay cost depends on the
/// arrival pattern (most on `tiered_fleet`, where it decides how often a full
/// net tier is spilled into), so a run averages over several patterns.
pub const TRACES: u64 = 8;

/// Cohorts of the sticky fleet trace (8 users × 50 requests each).
const STICKY_COHORTS: u64 = 150;
/// Requests per user of the tiered fleet trace (24 cohorts × 4 users).
const TIERED_REQUESTS_PER_USER: u64 = 10;
/// Chat sessions of the disaggregated trace (8 turns each).
const CHAT_SESSIONS: u64 = 800;
/// Users of the post-recommendation trace (50 posts each).
const POSTREC_USERS: u64 = 40;

/// How a workload generates its arrivals.
enum Generator {
    Fleet(SharedPrefixFleetSpec),
    Chat {
        spec: ConversationSpec,
        session_qps: f64,
    },
    Posts(PostRecommendationSpec),
}

/// A named workload: the deployment it replays on and its arrival generator.
pub struct Workload {
    pub name: &'static str,
    /// The offered load recorded in the run report.
    pub qps: f64,
    pub config: EngineConfig,
    seed: u64,
    generator: Generator,
}

/// The arrivals of one replay, ready to stream.  The post-recommendation trace
/// is materialised (its dataset is the set-up cost); the others generate lazily.
pub enum Input {
    Fleet(SharedPrefixFleetStream),
    Chat(ConversationStream),
    Trace(SortedTrace),
}

impl Input {
    /// The arrivals as a stream, from the first one on.
    pub fn stream(&mut self) -> Box<dyn ArrivalStream + '_> {
        match self {
            Input::Fleet(stream) => Box::new(stream),
            Input::Chat(stream) => Box::new(stream),
            Input::Trace(trace) => Box::new(trace.stream()),
        }
    }
}

/// `n` L4 GPUs, one engine instance each.
fn l4_fleet(n: u32) -> HardwareSetup {
    let mut hardware = HardwareSetup::l4_pair();
    hardware.num_gpus = n;
    hardware
}

fn prefillonly(hardware: HardwareSetup, max_model_len: u64) -> EngineConfig {
    EngineConfig::new(
        ModelPreset::Llama31_8b,
        hardware,
        EngineKind::prefillonly_default(),
        max_model_len,
    )
}

impl Workload {
    /// The workload called `name`, generating its trace from `seed`.
    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        let workload = match name {
            // The 1M-replay shape: sticky routing on 64 instances, no tiers.
            "sticky_fleet" => {
                let spec = SharedPrefixFleetSpec {
                    num_cohorts: STICKY_COHORTS,
                    users_per_cohort: 8,
                    prefix_tokens: 512,
                    suffix_tokens: 128,
                    requests_per_user: 50,
                };
                Workload {
                    name: "sticky_fleet",
                    qps: 400.0,
                    config: prefillonly(l4_fleet(64), 640)
                        .with_routing(RoutingPolicyKind::StickyUser),
                    seed,
                    generator: Generator::Fleet(spec),
                }
            }
            // Long shared prefixes on a squeezed GPU pool: spills cascade
            // GPU → CPU → a shared net tier that runs full.  The tier is 2 GiB
            // (1024 blocks) so that it fills early in every trace: with 4 GiB a
            // trace this short fills it in some seeds and not in others, and
            // replay cost varied up to 5× from seed to seed.
            "tiered_fleet" => {
                let spec = SharedPrefixFleetSpec {
                    num_cohorts: 24,
                    users_per_cohort: 4,
                    prefix_tokens: 5_000,
                    suffix_tokens: 128,
                    requests_per_user: TIERED_REQUESTS_PER_USER,
                };
                let mut config = prefillonly(l4_fleet(16), 5_128)
                    .with_routing(RoutingPolicyKind::CacheAware)
                    .with_cpu_offload(3 << 29)
                    .with_net_kv(2 << 30)
                    .with_net_propagation_ms(250);
                config.memory_utilization = 0.70;
                Workload {
                    name: "tiered_fleet",
                    qps: 24.0,
                    config,
                    seed,
                    generator: Generator::Fleet(spec),
                }
            }
            // Multi-turn chat on a 6 prefill : 2 decode fleet over RDMA.
            "disagg_chat" => {
                let spec = ConversationSpec {
                    num_sessions: CHAT_SESSIONS,
                    turns_per_session: 8,
                    system_prompt_tokens: 1_024,
                    first_turn_input_tokens: 1_024,
                    turn_input_tokens: 192,
                    decode_tokens_per_turn: 128,
                    think_time_ms: 4_000,
                };
                let session_qps = 3.0;
                let mut roles = vec![InstanceRole::Prefill; 6];
                roles.extend([InstanceRole::Decode; 2]);
                Workload {
                    name: "disagg_chat",
                    qps: session_qps * spec.turns_per_session as f64,
                    config: prefillonly(l4_fleet(8), spec.max_request_tokens())
                        .with_routing(RoutingPolicyKind::StickyUser)
                        .with_roles(roles)
                        .with_net_link(gpu::NetLinkKind::Rdma100G)
                        .with_net_propagation_ms(250),
                    seed,
                    generator: Generator::Chat { spec, session_qps },
                }
            }
            // The paper's post recommendation (Table 1 lengths) under calibrated
            // SRJF: whole-user bursts build deep queues on an L4 pair.
            "postrec_srjf" => {
                let spec = PostRecommendationSpec {
                    num_users: POSTREC_USERS,
                    ..PostRecommendationSpec::default()
                };
                Workload {
                    name: "postrec_srjf",
                    qps: 10.0,
                    config: prefillonly(
                        HardwareSetup::l4_pair(),
                        spec.profile_max_tokens + spec.post_tokens,
                    ),
                    seed,
                    generator: Generator::Posts(spec),
                }
            }
            _ => return None,
        };
        Some(workload)
    }

    /// Requests the trace holds.
    pub fn requests(&self) -> u64 {
        match &self.generator {
            Generator::Fleet(spec) => {
                spec.num_cohorts * spec.users_per_cohort * spec.requests_per_user
            }
            Generator::Chat { spec, .. } => spec.num_requests(),
            Generator::Posts(spec) => spec.num_users * spec.posts_per_user,
        }
    }

    /// Whether every request must be handed off to a decode slot.
    pub fn disaggregated(&self) -> bool {
        self.config.disaggregated()
    }

    /// Builds the arrivals of trace `trace` (below [`TRACES`]) of the run's seed.
    pub fn input(&self, trace: u64) -> Input {
        let seed = self.seed.wrapping_mul(TRACES).wrapping_add(trace);
        match &self.generator {
            Generator::Fleet(spec) => {
                Input::Fleet(SharedPrefixFleetStream::new(*spec, self.qps, seed))
            }
            Generator::Chat { spec, session_qps } => {
                Input::Chat(ConversationStream::new(*spec, *session_qps, seed))
            }
            Generator::Posts(spec) => {
                let mut rng = SimRng::seed_from_u64(seed);
                let dataset = Dataset::post_recommendation(spec, &mut rng);
                let arrivals = assign_poisson_arrivals_with(
                    &dataset,
                    self.qps,
                    ArrivalGranularity::PerUser,
                    &mut rng,
                );
                Input::Trace(SortedTrace::new(arrivals))
            }
        }
    }
}
