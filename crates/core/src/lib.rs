//! # PrefillOnly — an inference engine for prefill-only LLM workloads
//!
//! This crate is the top of the reproduction stack: it assembles the analytical GPU
//! model (`prefillonly-gpu`), the model shape arithmetic (`prefillonly-model`), the
//! paged KV-cache manager (`prefillonly-kvcache`), the execution strategies
//! (`prefillonly-executor`) and the JCT-aware scheduler (`prefillonly-scheduler`) into
//! a complete serving engine that can be driven either request-by-request (the
//! [`PrefillOnlyClient`] facade used by the examples) or by replaying a whole workload
//! trace under a Poisson arrival process (the [`Cluster`] simulator used by every
//! figure of the evaluation).  The workspace-wide crate map and request lifecycle
//! are documented in `ARCHITECTURE.md` at the repository root.
//!
//! ## The five evaluated systems
//!
//! [`EngineKind`] enumerates PrefillOnly and the four baselines of §7.1:
//!
//! | Engine | Prefill strategy | Scheduler | GPUs per instance |
//! |---|---|---|---|
//! | `PrefillOnly` | hybrid prefilling + suffix KV discarding | SRJF + continuous JCT calibration (λ) | 1 |
//! | `PagedAttention` | full prefill, full KV residency | FCFS | 1 |
//! | `ChunkedPrefill` | chunked prefill (chunk 512) | FCFS | 1 |
//! | `TensorParallel` | full prefill sharded over 2 GPUs | FCFS | 2 |
//! | `PipelineParallel` | full prefill split into 2 stages | FCFS | 2 |
//!
//! Single-GPU engines are replicated once per GPU and fronted by the pluggable
//! routing layer ([`EngineConfig::routing`], default: the sticky user-id routing of
//! §7.1; [`RoutingPolicyKind::CacheAware`] routes to the deepest modelled three-tier
//! prefix hit instead); multi-GPU engines run as one instance spanning both GPUs.
//! Routing decisions are taken per replay window against a window-start snapshot, so
//! the parallel replay stays byte-identical under every policy — see
//! `ARCHITECTURE.md` ("Routing layer").
//!
//! ## Hierarchical KV tiers
//!
//! Beyond the published system, [`EngineConfig`] can grow the KV cache downward:
//! `cpu_kv_capacity_bytes > 0` adds a per-instance CPU tier (GPU eviction victims
//! spill over [`gpu::HostLink`] instead of being discarded), and
//! `net_kv_capacity_bytes > 0` adds a **cluster-shared network tier** below that —
//! CPU eviction victims that pass the single-use spill filter become reloadable by
//! *every* instance of the deployment over [`gpu::NetLink`].  Whether a reloadable
//! segment is fetched or recomputed is a per-request decision comparing the
//! modelled transfer time at the observed hit depth against the modelled
//! recompute saving.  Zero capacities are bit-identical to the published
//! discard-on-evict engine.
//!
//! The full cost model — tier table, spill cascade and filter, the
//! reload-vs-recompute inequality, link charging order, scheduling discounts, and
//! the snapshot-merge sharing semantics of [`Cluster`]'s network pool — lives in
//! `ARCHITECTURE.md` ("Three-tier KV cost model"), next to the performance model of
//! the simulator's own hot paths ("Performance model"); both are enforced by the
//! determinism and shadow-model suites listed there.
//!
//! ## Quick start
//!
//! ```
//! use prefillonly::{EngineConfig, EngineKind, PrefillOnlyClient};
//! use gpu::HardwareSetup;
//! use model::ModelPreset;
//!
//! let config = EngineConfig::new(
//!     ModelPreset::Llama31_8b,
//!     HardwareSetup::l4_pair(),
//!     EngineKind::prefillonly_default(),
//!     20_000,
//! );
//! let mut client = PrefillOnlyClient::new(&config);
//! let prompt: Vec<u32> = (0..4_000).collect();
//! let response = client.score(&prompt, &["Yes", "No"]);
//! assert_eq!(response.scores.len(), 2);
//! assert!(response.latency.as_secs_f64() > 0.0);
//! ```

mod baselines;
mod client;
mod cluster;
mod config;
mod handoff;
mod instance;
mod report;
mod request;
mod routing;

pub use baselines::{all_engine_kinds, engine_display_name};
pub use client::PrefillOnlyClient;
pub use cluster::{AppliedMembership, Cluster, DrainRecord, RoutingScratch, RunError};
pub use config::{AutoscalerPolicy, ConfigError, EngineConfig, EngineKind};
pub use instance::{EngineInstance, HandoffAdmission, InstanceProfile, InstanceStats, KvHandoff};
pub use report::{RequestRecord, RoutingJct, RunReport, SlotWindow, WindowMetrics};
pub use request::{PrefillRequest, PrefillResponse, TokenScore};
pub use routing::{
    InstanceLoad, RouteQuery, RouterSnapshot, RoutingDecision, RoutingError, RoutingPolicy,
    RoutingPolicyKind, RoutingReason, UserRouter,
};
