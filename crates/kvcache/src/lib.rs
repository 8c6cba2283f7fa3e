//! Paged KV-cache management with prefix caching and suffix discarding.
//!
//! This crate reproduces the KV-cache half of PrefillOnly:
//!
//! * a block-granularity (paged) KV pool in the style of vLLM's PagedAttention
//!   allocator ([`BlockPool`]);
//! * content-hash-based **prefix caching** ([`KvCacheManager`]): completed requests
//!   leave their full-block KV entries behind keyed by a rolling hash of the token
//!   prefix, so that later requests sharing the prefix (e.g. the same user profile,
//!   §2.3) skip recomputation;
//! * LRU **eviction** of unreferenced cached blocks when the pool fills up;
//! * **suffix KV-cache discarding** (§5.1): a prefill-only request does not need its
//!   own KV after the forward pass, so PrefillOnly retains only as many *prefix* blocks
//!   as fit in the pool and discards the rest, instead of refusing the request or
//!   spilling to other GPUs;
//! * a **hierarchical CPU tier** (§9 extension): a manager built with
//!   [`KvCacheManager::with_offload`] spills eviction victims into a [`CpuKvPool`]
//!   instead of discarding them, and allocations rehydrate CPU-resident
//!   continuations of the GPU-cached prefix over the host link — the engine charges
//!   the PCIe transfer from [`RequestKv::reloaded_bytes`];
//! * a **cluster-shared network tier** below that: CPU eviction victims cascade into
//!   a [`NetKvPool`] shared by every instance of a deployment (gated by the
//!   single-use spill filter), and a *per-request* reload-vs-recompute decision
//!   ([`KvCacheManager::allocate_from_hashes_with_policy`]) chooses between fetching
//!   a prefix over the network and recomputing it;
//! * a **prefill→decode handoff ledger** ([`HandoffLedger`]) for disaggregated
//!   fleets: whole reserved chains shipped from `Prefill`-role to decode-capable
//!   instances, ordered deterministically and surfaced at epoch boundaries like
//!   published spills.
//!
//! The manager never stores actual key/value tensors — only block identities and
//! token-content hashes — because the reproduction's GPU is analytical.  Everything the
//! scheduler and executor need (cache-hit token counts, block residency, eviction
//! pressure) is preserved.

mod block;
mod growth;
mod handoff;
mod hash;
mod manager;
mod netpool;
mod offload;
mod probe;

pub use block::{BlockId, BlockPool};
pub use growth::SequenceGrowth;
pub use handoff::{HandoffLedger, HandoffRecord};
pub use hash::{hash_token_blocks, TokenBlockHash};
pub use manager::{
    CacheStats, DrainSpill, KvCacheManager, KvError, ReloadQuote, ReloadTier, RequestKv,
    RetentionPolicy, TierHits, NET_SPILL_MIN_USES,
};
pub use netpool::{NetKvPool, NetPoolView, NetReload, ViewDelta};
pub use offload::{CpuEviction, CpuKvPool, OffloadStats};
pub use probe::ProbeCache;
