//! Engine configuration.

use serde::{Deserialize, Serialize};

use executor::{ExecutorConfig, Parallelism, PrefillStrategy};
use gpu::{HardwareSetup, NetLinkKind};
use model::ModelPreset;
use scheduler::PolicyKind;
use workload::InstanceRole;

use crate::routing::RoutingPolicyKind;

/// Why a configuration cannot be deployed, surfaced by [`EngineConfig::validate`]
/// (the validation boundary [`crate::Cluster::try_new`] checks before building
/// anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The hardware setup yields zero engine instances, so no router can be built.
    NoInstances,
    /// `block_size` is zero tokens, so the KV pool cannot be divided into blocks
    /// and no token prefix can be hashed.
    ZeroBlockSize,
    /// A warm network pool was supplied but the deployment's network tier is
    /// disabled (`net_kv_capacity_bytes` is 0), so nothing could absorb it.
    WarmPoolNeedsNetTier,
    /// A warm network pool was built for a different KV block geometry than this
    /// deployment profiles, so its entries cannot be addressed.
    WarmPoolGeometryMismatch {
        /// Bytes of full KV per block the deployment's profile derives.
        deployment_block_bytes: u64,
        /// Bytes of full KV per block the supplied pool was built with.
        pool_block_bytes: u64,
    },
    /// The autoscaler policy is unusable: the fleet bounds must satisfy
    /// `1 <= min_instances <= max_instances` and the load thresholds must leave a
    /// hysteresis band (`scale_down_outstanding_tokens` strictly below
    /// `scale_up_outstanding_tokens`), or the fleet would oscillate every epoch.
    AutoscalerBounds {
        /// The configured fleet floor.
        min_instances: usize,
        /// The configured fleet ceiling.
        max_instances: usize,
        /// The configured scale-up threshold.
        scale_up_outstanding_tokens: u64,
        /// The configured scale-down threshold.
        scale_down_outstanding_tokens: u64,
    },
    /// An explicit role vector was supplied but its length does not match the
    /// deployment's instance count, so slots cannot be assigned roles.
    RoleCountMismatch {
        /// Roles supplied via [`EngineConfig::with_roles`].
        roles: usize,
        /// Instances the hardware setup and engine kind yield.
        instances: usize,
    },
    /// No slot in the configured fleet can accept arrivals (every role is
    /// `Decode`), so the router would have nowhere to place any request.
    NoPrefillCapableSlot,
    /// The fleet has dedicated `Prefill` slots but no slot that can decode, so
    /// every KV handoff would wait forever for an admitting instance.
    NoDecodeCapableSlot,
    /// A disaggregated fleet (dedicated `Prefill`/`Decode` roles) moves every
    /// finished prefix across the network fabric, which requires an enabled
    /// `net_link` (any preset other than [`NetLinkKind::Disabled`]).
    DisaggregationNeedsNetLink,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoInstances => write!(
                f,
                "the deployment has zero engine instances (hardware setup without GPUs?)"
            ),
            ConfigError::ZeroBlockSize => {
                write!(f, "block_size must be at least 1 token, got 0")
            }
            ConfigError::WarmPoolNeedsNetTier => write!(
                f,
                "a warm net pool needs net_kv_capacity_bytes > 0 on the joining deployment"
            ),
            ConfigError::WarmPoolGeometryMismatch {
                deployment_block_bytes,
                pool_block_bytes,
            } => write!(
                f,
                "warm pool must match the deployment's KV block geometry \
                 ({pool_block_bytes} B/block supplied, {deployment_block_bytes} B/block profiled)"
            ),
            ConfigError::AutoscalerBounds {
                min_instances,
                max_instances,
                scale_up_outstanding_tokens,
                scale_down_outstanding_tokens,
            } => write!(
                f,
                "autoscaler needs 1 <= min_instances <= max_instances and \
                 scale_down < scale_up, got instances [{min_instances}, {max_instances}] \
                 thresholds down {scale_down_outstanding_tokens} / up {scale_up_outstanding_tokens}"
            ),
            ConfigError::RoleCountMismatch { roles, instances } => write!(
                f,
                "role vector length must match the instance count \
                 ({roles} roles supplied, {instances} instances deployed)"
            ),
            ConfigError::NoPrefillCapableSlot => write!(
                f,
                "every slot is Decode-only, so no instance could ever accept an arrival"
            ),
            ConfigError::NoDecodeCapableSlot => write!(
                f,
                "the fleet has Prefill-only slots but nothing that can decode, \
                 so every KV handoff would wait forever"
            ),
            ConfigError::DisaggregationNeedsNetLink => write!(
                f,
                "a disaggregated prefill/decode fleet hands KV across the network \
                 fabric and cannot run with net_link disabled"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Threshold/hysteresis autoscaler over the router's modelled
/// [`InstanceLoad`](crate::InstanceLoad) signal, evaluated at propagation-epoch
/// boundaries.
///
/// Determinism contract: the decision at a boundary is a pure function of
/// *completed-epoch* state — the mean outstanding tokens per routable instance as
/// the routing layer's load model left them after the last epoch — never of
/// anything mid-epoch, so parallel and sequential replay scale identically.  When
/// the mean exceeds [`Self::scale_up_outstanding_tokens`], one warm (net-attached)
/// instance joins; when it falls below [`Self::scale_down_outstanding_tokens`],
/// one instance drains (spilling its reusable KV into the net tier).  The gap
/// between the thresholds is the hysteresis band; [`Self::cooldown_epochs`]
/// boundaries must pass after any scale action (scheduled membership events
/// included) before the autoscaler may fire again, so a drain still finishing
/// does not trigger a panic join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AutoscalerPolicy {
    /// Mean outstanding tokens per routable instance above which one instance
    /// joins (warm, net-attached).
    pub scale_up_outstanding_tokens: u64,
    /// Mean outstanding tokens per routable instance below which one instance
    /// drains.  Must be strictly below the scale-up threshold.
    pub scale_down_outstanding_tokens: u64,
    /// Epoch boundaries that must pass after a scale action before the next may
    /// fire (0 = may fire at every boundary).
    pub cooldown_epochs: u64,
    /// Fewest routable instances the autoscaler may drain down to (≥ 1).
    pub min_instances: usize,
    /// Most routable instances the autoscaler may grow to.
    pub max_instances: usize,
}

impl AutoscalerPolicy {
    /// Checks the policy's bounds (see [`ConfigError::AutoscalerBounds`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.min_instances == 0
            || self.min_instances > self.max_instances
            || self.scale_down_outstanding_tokens >= self.scale_up_outstanding_tokens
        {
            return Err(ConfigError::AutoscalerBounds {
                min_instances: self.min_instances,
                max_instances: self.max_instances,
                scale_up_outstanding_tokens: self.scale_up_outstanding_tokens,
                scale_down_outstanding_tokens: self.scale_down_outstanding_tokens,
            });
        }
        Ok(())
    }
}

/// Which of the five evaluated serving systems to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EngineKind {
    /// PrefillOnly: hybrid prefilling, suffix KV discarding, SRJF scheduling with
    /// continuous JCT calibration and fairness parameter λ (paper default: 500).
    PrefillOnly {
        /// Fairness parameter λ of §6.3.
        lambda: f64,
    },
    /// vLLM's PagedAttention baseline: full prefill, FCFS scheduling.
    PagedAttention,
    /// Chunked-prefill baseline (Sarathi-Serve style) with the given chunk size.
    ChunkedPrefill {
        /// Tokens per chunk (the paper's measurement uses 512).
        chunk_tokens: u64,
    },
    /// Tensor parallelism across both GPUs of the hardware setup.
    TensorParallel,
    /// Pipeline parallelism across both GPUs of the hardware setup.
    PipelineParallel,
}

impl EngineKind {
    /// PrefillOnly with the paper's default fairness parameter λ = 500.
    pub fn prefillonly_default() -> EngineKind {
        EngineKind::PrefillOnly { lambda: 500.0 }
    }

    /// The chunked-prefill baseline with the paper's chunk size of 512 tokens.
    pub fn chunked_default() -> EngineKind {
        EngineKind::ChunkedPrefill { chunk_tokens: 512 }
    }

    /// Whether this engine shards a single instance across all GPUs of the setup (the
    /// parallelisation-based baselines) or runs one instance per GPU behind the router.
    pub fn is_parallel(self) -> bool {
        matches!(
            self,
            EngineKind::TensorParallel | EngineKind::PipelineParallel
        )
    }

    /// The prefill strategy this engine uses.
    pub fn strategy(self) -> PrefillStrategy {
        match self {
            EngineKind::PrefillOnly { .. } => PrefillStrategy::hybrid_default(),
            EngineKind::PagedAttention
            | EngineKind::TensorParallel
            | EngineKind::PipelineParallel => PrefillStrategy::Full,
            EngineKind::ChunkedPrefill { chunk_tokens } => {
                PrefillStrategy::Chunked { chunk_tokens }
            }
        }
    }

    /// The scheduling policy this engine uses.
    pub fn policy(self) -> PolicyKind {
        match self {
            EngineKind::PrefillOnly { lambda } => PolicyKind::SrjfCalibrated { lambda },
            _ => PolicyKind::Fcfs,
        }
    }
}

/// Complete configuration of a serving deployment on one hardware setup.
///
/// ```
/// use prefillonly::{EngineConfig, EngineKind};
/// use gpu::{HardwareSetup, NetLinkKind};
/// use model::ModelPreset;
///
/// let config = EngineConfig::new(
///     ModelPreset::Llama31_8b,
///     HardwareSetup::l4_pair(),
///     EngineKind::prefillonly_default(),
///     20_000,
/// )
/// .with_cpu_offload(64 << 30)                  // GPU → CPU spill tier
/// .with_net_kv(256 << 30)                      // cluster-shared network tier
/// .with_net_link(NetLinkKind::Rdma100G);
///
/// assert_eq!(config.num_instances(), 2, "one instance per GPU behind the router");
/// assert_eq!(config.cpu_kv_capacity_bytes, 64 << 30);
/// assert_eq!(config.net_kv_capacity_bytes, 256 << 30);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineConfig {
    /// The model to serve.
    pub model: ModelPreset,
    /// The hardware setup (pair of GPUs plus link).
    pub hardware: HardwareSetup,
    /// Which serving system to run.
    pub kind: EngineKind,
    /// The longest request the deployment must be able to serve.  PrefillOnly's profile
    /// run sizes the KV pool against this length (§3.1); requests longer than the
    /// engine's own maximum input length are rejected.
    pub max_model_len: u64,
    /// vLLM-style GPU memory utilisation fraction.
    pub memory_utilization: f64,
    /// KV block size in tokens.
    pub block_size: usize,
    /// Host (CPU) memory per instance dedicated to the hierarchical KV tier (§9
    /// extension).  Zero — the default — disables offloading entirely: eviction
    /// victims are discarded and every code path behaves exactly as the published
    /// system.
    pub cpu_kv_capacity_bytes: u64,
    /// Capacity of the *cluster-shared* network KV tier (third tier of the
    /// hierarchical cache), shared by every instance of the deployment.  Zero — the
    /// default — disables the tier entirely, making the engine bit-identical to the
    /// two-tier (GPU → CPU) configuration.
    pub net_kv_capacity_bytes: u64,
    /// The network fabric KV blocks cross when reloaded from the shared tier.
    pub net_link: NetLinkKind,
    /// Modelled propagation delay of the shared network tier, in milliseconds: a
    /// spill becomes visible to *other* instances this long after it happens.  A
    /// finite value splits each replay window into deterministic propagation
    /// *epochs* of this length (spills surface at the first epoch boundary past
    /// their publish time, and routing snapshots refresh per epoch).  Zero — the
    /// default — keeps the historical window-boundary-only propagation, byte for
    /// byte.  Inert while the tier itself is disabled (`net_kv_capacity_bytes` is
    /// 0): the delay is a property of the shared tier, and there is nothing to
    /// propagate without one.
    pub net_propagation_ms: u64,
    /// How arrivals are routed onto the deployment's instances (see
    /// [`RoutingPolicyKind`]; the default is the paper's sticky user-id routing).
    pub routing: RoutingPolicyKind,
    /// Optional threshold/hysteresis autoscaler evaluated at propagation-epoch
    /// boundaries (see [`AutoscalerPolicy`]).  `None` — the default — keeps the
    /// fleet at whatever size the hardware setup and any scheduled membership
    /// events dictate.
    pub autoscaler: Option<AutoscalerPolicy>,
    /// Per-slot serving roles (see [`InstanceRole`]).  Empty — the default — runs
    /// every instance colocated (both phases), byte-identical to the pre-role
    /// engine.  A non-empty vector must name one role per instance
    /// ([`ConfigError::RoleCountMismatch`]) and splits the fleet into a
    /// phase-aware deployment: the router only places arrivals on
    /// prefill-capable slots, and dedicated prefill slots hand finished KV
    /// chains to decode-capable slots over [`Self::net_link`].
    pub roles: Vec<InstanceRole>,
    /// Collect a per-window time series (per-slot load, tier occupancy, spill /
    /// reload / handoff counters) at every propagation-epoch boundary, exposed on
    /// [`crate::RunReport::windows`].  Off by default: the samples cost memory
    /// proportional to `windows × slots` and only epoch-driven replays produce
    /// them.
    pub track_window_metrics: bool,
}

impl EngineConfig {
    /// Creates a configuration with the defaults used throughout the evaluation.
    pub fn new(
        model: ModelPreset,
        hardware: HardwareSetup,
        kind: EngineKind,
        max_model_len: u64,
    ) -> EngineConfig {
        EngineConfig {
            model,
            hardware,
            kind,
            max_model_len,
            memory_utilization: 0.9,
            block_size: 16,
            cpu_kv_capacity_bytes: 0,
            net_kv_capacity_bytes: 0,
            net_link: NetLinkKind::Rdma100G,
            net_propagation_ms: 0,
            routing: RoutingPolicyKind::StickyUser,
            autoscaler: None,
            roles: Vec::new(),
            track_window_metrics: false,
        }
    }

    /// Checks the configuration can actually be deployed.  This is the boundary at
    /// which structurally impossible deployments surface as typed errors instead of
    /// panics deeper in the stack (e.g. a router over zero instances).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_instances() == 0 {
            return Err(ConfigError::NoInstances);
        }
        if self.block_size == 0 {
            return Err(ConfigError::ZeroBlockSize);
        }
        if let Some(autoscaler) = &self.autoscaler {
            autoscaler.validate()?;
        }
        if !self.roles.is_empty() {
            if self.roles.len() != self.num_instances() as usize {
                return Err(ConfigError::RoleCountMismatch {
                    roles: self.roles.len(),
                    instances: self.num_instances() as usize,
                });
            }
            if !self.roles.iter().any(|role| role.can_prefill()) {
                return Err(ConfigError::NoPrefillCapableSlot);
            }
            let has_prefill_only = self.roles.contains(&InstanceRole::Prefill);
            if has_prefill_only && !self.roles.iter().any(|role| role.can_decode()) {
                return Err(ConfigError::NoDecodeCapableSlot);
            }
            if self.disaggregated() && !self.net_link.is_enabled() {
                return Err(ConfigError::DisaggregationNeedsNetLink);
            }
        }
        Ok(())
    }

    /// The role of slot `instance` (see [`InstanceRole`]).  Colocated for every
    /// slot of a role-less deployment and for slots beyond the configured vector
    /// (elastic joins pick their role from the membership event instead).
    pub fn role_of(&self, instance: usize) -> InstanceRole {
        self.roles.get(instance).copied().unwrap_or_default()
    }

    /// Whether this deployment splits serving phases across dedicated pools (any
    /// slot with a non-`Colocated` role).
    pub fn disaggregated(&self) -> bool {
        self.roles
            .iter()
            .any(|role| *role != InstanceRole::Colocated)
    }

    /// Overrides the routing policy (see [`RoutingPolicyKind`]).
    pub fn with_routing(mut self, routing: RoutingPolicyKind) -> EngineConfig {
        self.routing = routing;
        self
    }

    /// Assigns per-slot serving roles (see [`Self::roles`]); the vector's length
    /// must match [`Self::num_instances`], checked by [`Self::validate`].
    pub fn with_roles(mut self, roles: Vec<InstanceRole>) -> EngineConfig {
        self.roles = roles;
        self
    }

    /// Enables the per-window time series (see [`Self::track_window_metrics`]).
    pub fn with_window_metrics(mut self) -> EngineConfig {
        self.track_window_metrics = true;
        self
    }

    /// Enables the hierarchical KV tier: each instance gets `cpu_kv_capacity_bytes`
    /// of host memory for evicted prefix blocks, reached over a PCIe gen-4 host link
    /// (host memory sits behind the PCIe switch even on NVLink GPU setups).
    pub fn with_cpu_offload(mut self, cpu_kv_capacity_bytes: u64) -> EngineConfig {
        self.cpu_kv_capacity_bytes = cpu_kv_capacity_bytes;
        self
    }

    /// Enables the cluster-shared network KV tier: the deployment gets
    /// `net_kv_capacity_bytes` of pooled memory for prefix blocks shared across all
    /// of its instances, reached over [`Self::net_link`].
    pub fn with_net_kv(mut self, net_kv_capacity_bytes: u64) -> EngineConfig {
        self.net_kv_capacity_bytes = net_kv_capacity_bytes;
        self
    }

    /// Overrides the network fabric used for shared-tier reload traffic.
    pub fn with_net_link(mut self, net_link: NetLinkKind) -> EngineConfig {
        self.net_link = net_link;
        self
    }

    /// Models within-window propagation of the shared network tier: spills become
    /// visible cluster-wide `net_propagation_ms` after they happen, instead of only
    /// at replay-window boundaries (see [`Self::net_propagation_ms`]).
    pub fn with_net_propagation_ms(mut self, net_propagation_ms: u64) -> EngineConfig {
        self.net_propagation_ms = net_propagation_ms;
        self
    }

    /// Installs a threshold/hysteresis autoscaler evaluated at propagation-epoch
    /// boundaries (see [`AutoscalerPolicy`]).  The policy's bounds are checked by
    /// [`Self::validate`] when the cluster is built.
    pub fn with_autoscaler(mut self, autoscaler: AutoscalerPolicy) -> EngineConfig {
        self.autoscaler = Some(autoscaler);
        self
    }

    /// Number of engine instances this deployment runs (one per GPU for single-GPU
    /// engines, a single spanning instance for TP/PP).
    pub fn num_instances(&self) -> u32 {
        if self.kind.is_parallel() {
            1
        } else {
            self.hardware.num_gpus
        }
    }

    /// Builds the executor configuration for one instance of this deployment.
    pub fn executor_config(&self) -> ExecutorConfig {
        let parallelism = match self.kind {
            EngineKind::TensorParallel => Parallelism::TensorParallel {
                degree: self.hardware.num_gpus,
            },
            EngineKind::PipelineParallel => Parallelism::PipelineParallel {
                stages: self.hardware.num_gpus,
            },
            _ => Parallelism::Single,
        };
        ExecutorConfig {
            model: self.model.config(),
            gpu: self.hardware.gpu_spec(),
            link: self.hardware.link,
            parallelism,
            strategy: self.kind.strategy(),
            memory_utilization: self.memory_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kinds_map_to_strategies_and_policies() {
        assert_eq!(EngineKind::PagedAttention.strategy(), PrefillStrategy::Full);
        assert!(matches!(
            EngineKind::prefillonly_default().strategy(),
            PrefillStrategy::Hybrid(_)
        ));
        assert!(matches!(
            EngineKind::chunked_default().strategy(),
            PrefillStrategy::Chunked { chunk_tokens: 512 }
        ));
        assert!(matches!(
            EngineKind::prefillonly_default().policy(),
            PolicyKind::SrjfCalibrated { .. }
        ));
        assert!(matches!(
            EngineKind::PagedAttention.policy(),
            PolicyKind::Fcfs
        ));
    }

    #[test]
    fn instance_counts_follow_parallelism() {
        let single = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            20_000,
        );
        assert_eq!(single.num_instances(), 2);
        let tp = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::TensorParallel,
            20_000,
        );
        assert_eq!(tp.num_instances(), 1);
        assert!(EngineKind::TensorParallel.is_parallel());
        assert!(!EngineKind::PagedAttention.is_parallel());
    }

    #[test]
    fn zero_instance_configs_fail_validation_with_a_typed_error() {
        let mut config = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::PagedAttention,
            20_000,
        );
        assert_eq!(config.validate(), Ok(()));
        config.hardware.num_gpus = 0;
        assert_eq!(config.num_instances(), 0);
        let err = config.validate().unwrap_err();
        assert_eq!(err, ConfigError::NoInstances);
        assert!(err.to_string().contains("zero engine instances"));
    }

    #[test]
    fn routing_policy_defaults_to_sticky_and_is_overridable() {
        let config = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            20_000,
        );
        assert_eq!(config.routing, RoutingPolicyKind::StickyUser);
        let config = config.with_routing(RoutingPolicyKind::CacheAware);
        assert_eq!(config.routing, RoutingPolicyKind::CacheAware);
    }

    #[test]
    fn autoscaler_bounds_are_validated() {
        let base = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            20_000,
        );
        let good = AutoscalerPolicy {
            scale_up_outstanding_tokens: 50_000,
            scale_down_outstanding_tokens: 5_000,
            cooldown_epochs: 2,
            min_instances: 1,
            max_instances: 4,
        };
        assert_eq!(base.clone().with_autoscaler(good).validate(), Ok(()));

        for (name, bad) in [
            (
                "zero fleet floor",
                AutoscalerPolicy {
                    min_instances: 0,
                    ..good
                },
            ),
            (
                "floor above ceiling",
                AutoscalerPolicy {
                    min_instances: 5,
                    max_instances: 4,
                    ..good
                },
            ),
            (
                "no hysteresis band",
                AutoscalerPolicy {
                    scale_down_outstanding_tokens: 50_000,
                    ..good
                },
            ),
        ] {
            let err = base.clone().with_autoscaler(bad).validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::AutoscalerBounds { .. }),
                "{name} must fail validation"
            );
            assert!(err.to_string().contains("autoscaler"), "{name}");
        }
    }

    #[test]
    fn degenerate_role_fleets_fail_validation_with_typed_errors() {
        let base = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            20_000,
        )
        .with_net_kv(64 << 30);

        // No roles: colocated by definition, not disaggregated, always valid.
        assert_eq!(base.validate(), Ok(()));
        assert!(!base.disaggregated());
        assert_eq!(base.role_of(0), InstanceRole::Colocated);
        assert_eq!(base.role_of(99), InstanceRole::Colocated);

        // A proper 1:1 split validates.
        let split = base
            .clone()
            .with_roles(vec![InstanceRole::Prefill, InstanceRole::Decode]);
        assert_eq!(split.validate(), Ok(()));
        assert!(split.disaggregated());
        assert_eq!(split.role_of(0), InstanceRole::Prefill);
        assert_eq!(split.role_of(1), InstanceRole::Decode);

        // Wrong vector length.
        let err = base
            .clone()
            .with_roles(vec![InstanceRole::Prefill])
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::RoleCountMismatch {
                roles: 1,
                instances: 2
            }
        );
        assert!(err.to_string().contains("role vector"));

        // All-Decode: nothing can accept an arrival.
        let err = base
            .clone()
            .with_roles(vec![InstanceRole::Decode, InstanceRole::Decode])
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoPrefillCapableSlot);
        assert!(err.to_string().contains("arrival"));

        // All-Prefill: handoffs would wait forever.
        let err = base
            .clone()
            .with_roles(vec![InstanceRole::Prefill, InstanceRole::Prefill])
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoDecodeCapableSlot);
        assert!(err.to_string().contains("decode"));

        // Disaggregated without a fabric to hand KV over.
        let err = base
            .clone()
            .with_roles(vec![InstanceRole::Prefill, InstanceRole::Decode])
            .with_net_link(NetLinkKind::Disabled)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::DisaggregationNeedsNetLink);
        assert!(err.to_string().contains("net_link"));

        // Explicit all-Colocated roles are allowed even with the fabric disabled
        // (nothing ever crosses it).
        let colocated = base
            .clone()
            .with_roles(vec![InstanceRole::Colocated, InstanceRole::Colocated])
            .with_net_link(NetLinkKind::Disabled);
        assert_eq!(colocated.validate(), Ok(()));
        assert!(!colocated.disaggregated());
    }

    #[test]
    fn executor_config_inherits_hardware() {
        let cfg = EngineConfig::new(
            ModelPreset::Qwen25_32bFp8,
            HardwareSetup::a100_pair(),
            EngineKind::PipelineParallel,
            60_000,
        );
        let exec = cfg.executor_config();
        assert_eq!(exec.parallelism.num_gpus(), 2);
        assert_eq!(exec.gpu.kind, gpu::GpuKind::A100_40G);
        exec.validate();
    }
}
