//! The pluggable routing layer: how arrivals are mapped onto engine instances.
//!
//! §7.1 ("Routing") pins every user to one instance round-robin in order of first
//! appearance ([`UserRouter`], kept as the [`RoutingPolicyKind::StickyUser`] policy and
//! the default).  With the KV hierarchy spanning GPU/CPU/network tiers, the router is
//! also the natural place to *use* the residency signal the simulator models:
//! [`RoutingPolicyKind::CacheAware`] routes each request to the instance with the
//! deepest link-cost-discounted prefix hit (the sglang radix-cache router's idea), and
//! [`RoutingPolicyKind::LeastLoaded`] balances on modelled load alone.
//!
//! # Windowed routing and determinism
//!
//! State-dependent routing breaks the instance-independence the parallel replay relies
//! on — a decision taken mid-epoch would have to observe another thread's simulation
//! state.  The routing layer therefore mirrors the network tier's snapshot-merge
//! discipline: at the start of each epoch (a replay without boundaries is a single
//! epoch) the cluster builds a [`RouterSnapshot`] — per-instance queue depth and
//! outstanding tokens, plus (for policies that ask) a shared borrow of each
//! instance's live KV manager — and routes *every* arrival of the epoch against it,
//! in `(arrival time, request id)` order, on the main thread and before any instance
//! simulates.  The snapshot's load half is updated with the policy's own decisions as
//! the pass proceeds (so balancing works within an epoch); the residency half cannot
//! change during the pass, because the borrow keeps every manager immutable until the
//! snapshot is dropped (cache effects propagate between epochs, exactly like the
//! shared network pool).  The parallel and sequential replay flavours call the same
//! pass, so the partition — and hence the replay — is byte-identical no matter how
//! many threads simulate it.
//!
//! Sticky routing runs the same pass.  It reads only the snapshot's routable slots,
//! so one path pins users on fixed, elastic and role-split fleets alike: on a fixed,
//! colocated fleet the routable slots are `0..n` and the pass is plain §7.1
//! round-robin in order of first appearance.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use kvcache::{KvCacheManager, TokenBlockHash};

/// Why routing could not be set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// The deployment has no engine instances to route to.
    NoInstances,
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::NoInstances => {
                write!(f, "routing needs at least one engine instance")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Which routing policy a deployment runs (selected via
/// [`EngineConfig::routing`](crate::EngineConfig::routing)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicyKind {
    /// §7.1 user-id routing (the default): every user is pinned to one instance,
    /// assigned round-robin in order of first appearance.
    StickyUser,
    /// Route each request to the instance with the least modelled load (outstanding
    /// tokens, then queued requests, then instance index).
    LeastLoaded,
    /// Route each request to the instance with the deepest link-cost-discounted
    /// three-tier prefix hit; fall back to load when no instance holds a usable
    /// prefix.  Ties break by load, then instance index.
    CacheAware,
}

impl RoutingPolicyKind {
    /// Builds the policy for a deployment of `num_instances` instances.
    pub fn build(
        self,
        num_instances: usize,
    ) -> Result<Box<dyn RoutingPolicy + Send>, RoutingError> {
        if num_instances == 0 {
            return Err(RoutingError::NoInstances);
        }
        Ok(match self {
            RoutingPolicyKind::StickyUser => Box::new(StickyUserPolicy {
                router: UserRouter::new(num_instances).expect("checked above"),
            }),
            RoutingPolicyKind::LeastLoaded => Box::new(LeastLoadedPolicy),
            RoutingPolicyKind::CacheAware => Box::new(CacheAwarePolicy),
        })
    }
}

/// Why an arrival was routed to its instance, recorded per request in
/// [`RequestRecord::routing`](crate::RequestRecord::routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingReason {
    /// Submitted directly to an instance without a routing policy (the
    /// [`PrefillOnlyClient`](crate::PrefillOnlyClient) facade).
    Direct,
    /// Sticky routing: first request of a new user, assigned round-robin.
    StickyNew,
    /// Sticky routing: the user was already pinned to this instance.
    StickyExisting,
    /// Least-loaded routing: this instance had the least modelled load.
    LeastLoaded,
    /// Cache-aware routing: this instance held the deepest discounted prefix hit.
    DeepestPrefix,
    /// Cache-aware routing: no instance held a usable prefix; fell back to load.
    LoadFallback,
}

/// One routing decision: the chosen instance and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingDecision {
    /// Index of the chosen instance.
    pub instance: usize,
    /// Why it was chosen.
    pub reason: RoutingReason,
}

/// Modelled load of one instance, as captured at epoch start and updated with the
/// epoch's own routing decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceLoad {
    /// Requests waiting or running on the instance.
    pub queued_requests: u64,
    /// Input tokens of those requests.
    pub outstanding_tokens: u64,
}

/// The deterministic per-epoch view routing policies decide against (see the module
/// docs for the lifecycle).  Loads are copied at capture time, so they carry work
/// queued in earlier epochs, and [`Self::note_routed`] adds the pass's own decisions
/// on top; prefix residency is read from the borrowed KV managers, which cannot
/// change while the snapshot lives.
///
/// ```
/// use kvcache::{hash_token_blocks, KvCacheManager, RetentionPolicy};
/// use prefillonly::{InstanceLoad, RouterSnapshot};
/// use simcore::SimTime;
///
/// let mut warm = KvCacheManager::new(64, 16);
/// let tokens: Vec<u32> = (0..64).collect();
/// let alloc = warm
///     .allocate(&tokens, SimTime::ZERO, RetentionPolicy::FullResidency)
///     .unwrap();
/// warm.commit(alloc, SimTime::ZERO);
/// let cold = KvCacheManager::new(64, 16);
///
/// // 16-token blocks, a 64-block GPU pool, CPU and network hit discounts.
/// let loads = vec![InstanceLoad::default(); 2];
/// let snapshot = RouterSnapshot::new(loads, vec![&warm, &cold], 16, 64, 0.8, 0.4);
/// let hashes = hash_token_blocks(&tokens, 16);
/// assert_eq!(snapshot.discounted_hit_tokens(0, &hashes), 64);
/// assert_eq!(snapshot.discounted_hit_tokens(1, &hashes), 0);
/// ```
///
/// The snapshot borrows the managers, so none of them can change while it is
/// alive:
///
/// ```compile_fail,E0502
/// # use kvcache::{hash_token_blocks, KvCacheManager};
/// # use prefillonly::{InstanceLoad, RouterSnapshot};
/// let mut kv = KvCacheManager::new(64, 16);
/// let snapshot = RouterSnapshot::new(vec![InstanceLoad::default()], vec![&kv], 16, 64, 0.8, 0.4);
/// kv.clear_cache(); // error: `kv` is still borrowed by the snapshot
/// snapshot.discounted_hit_tokens(0, &hash_token_blocks(&[1; 16], 16));
/// ```
#[derive(Debug)]
pub struct RouterSnapshot<'a> {
    loads: Vec<InstanceLoad>,
    /// One live KV manager per instance; empty unless the policy consults prefix
    /// residency ([`RoutingPolicy::needs_prefix_probe`]).
    kv: Vec<&'a KvCacheManager>,
    /// The instance slots a decision may name, ascending.  On a fixed fleet this is
    /// the identity `0..loads.len()`; under elastic membership, draining and
    /// retired slots stay *in* the loads/managers vectors (instance indices are
    /// stable for the replay's lifetime) but drop out of this list, so policies
    /// never route new work onto a leaver.
    slots: Vec<usize>,
    block_size: usize,
    /// GPU KV pool capacity of one instance, in blocks (instances of a deployment
    /// are identical) — caps how much tier-resident depth is actually realisable.
    pool_capacity_blocks: u64,
    /// JCT-probe weight of a CPU-tier hit token, from the instance profile — the same
    /// host-link-vs-recompute quote the reload policy prices transfers with.
    cpu_hit_discount: f64,
    /// JCT-probe weight of a network-tier hit token (network-link quote).
    net_hit_discount: f64,
}

impl<'a> RouterSnapshot<'a> {
    /// Returns the load buffer so the caller can recycle the allocation for the
    /// next routing pass (epoch-driven replay routes thousands of passes per
    /// window; reallocating per pass is pure overhead).
    pub fn into_loads(self) -> Vec<InstanceLoad> {
        self.loads
    }

    /// Builds a snapshot from per-instance loads and (optionally) each instance's
    /// KV manager.  `kv` must be empty or have one entry per instance.  Every slot
    /// is routable; use [`Self::with_routable_slots`] to restrict.
    pub fn new(
        loads: Vec<InstanceLoad>,
        kv: Vec<&'a KvCacheManager>,
        block_size: usize,
        pool_capacity_blocks: u64,
        cpu_hit_discount: f64,
        net_hit_discount: f64,
    ) -> RouterSnapshot<'a> {
        assert!(
            kv.is_empty() || kv.len() == loads.len(),
            "one KV manager per instance (or none at all)"
        );
        let slots = (0..loads.len()).collect();
        RouterSnapshot {
            loads,
            kv,
            slots,
            block_size,
            pool_capacity_blocks,
            cpu_hit_discount,
            net_hit_discount,
        }
    }

    /// Restricts the snapshot to the given routable slots (ascending instance
    /// indices; draining/retired slots keep their loads/managers entries but may
    /// not be chosen).  Panics unless `slots` is non-empty, strictly ascending and
    /// in range — an all-leavers fleet has nowhere to route.
    pub fn with_routable_slots(mut self, slots: Vec<usize>) -> RouterSnapshot<'a> {
        assert!(!slots.is_empty(), "at least one routable slot");
        assert!(
            slots.windows(2).all(|w| w[0] < w[1])
                && *slots.last().expect("non-empty") < self.loads.len(),
            "routable slots must be strictly ascending instance indices"
        );
        self.slots = slots;
        self
    }

    /// Number of instances behind the router (routable or not — decisions are
    /// bounds-checked against this; routability against [`Self::routable`]).
    pub fn num_instances(&self) -> usize {
        self.loads.len()
    }

    /// The routable instance slots, ascending (see [`Self::with_routable_slots`]).
    pub fn routable(&self) -> &[usize] {
        &self.slots
    }

    /// The modelled load of one instance (epoch-start state plus this epoch's
    /// earlier routing decisions).
    pub fn load(&self, instance: usize) -> InstanceLoad {
        self.loads[instance]
    }

    /// Accounts a routed arrival into the instance's modelled load, so later
    /// decisions of the same epoch see the induced pressure.
    pub fn note_routed(&mut self, instance: usize, tokens: u64) {
        self.loads[instance].queued_requests += 1;
        self.loads[instance].outstanding_tokens += tokens;
    }

    /// Link-cost-discounted prefix-hit depth of a hash chain on one instance, in
    /// tokens: GPU hits count in full; CPU and network hits are discounted by their
    /// tier's reload-vs-recompute cost ratio (the [`gpu::HostLink`] / [`gpu::NetLink`]
    /// quotes folded into the instance profile), so a deep hit behind a slow link
    /// never outbids a shallower hit behind a fast one.  The *same* formula the SRJF
    /// probe scores with (the instance module's `effective_cached_tokens`), pool-cap
    /// included — a tier continuation deeper than the GPU pool cannot be rehydrated,
    /// so crediting it would make the router prefer placements the allocator will
    /// truncate.
    ///
    /// Returns 0 when the snapshot carries no KV managers.
    pub fn discounted_hit_tokens(&self, instance: usize, hashes: &[TokenBlockHash]) -> u64 {
        let Some(kv) = self.kv.get(instance) else {
            return 0;
        };
        crate::instance::effective_cached_tokens(
            kv.lookup_tier_hits_from_hashes(hashes),
            self.pool_capacity_blocks,
            self.block_size,
            self.cpu_hit_discount,
            self.net_hit_discount,
        )
    }

    /// Whether any KV manager of the snapshot holds *any* resident block in *any*
    /// tier.  When false, every chain walk answers depth 0, so a cache-consulting
    /// caller can skip hashing arrival tokens entirely — the routing outcome is
    /// provably the load fallback either way.  A cold fleet (the entire first
    /// window, and every epoch before the first spill propagates) pays zero
    /// hashing cost.
    pub fn has_prefix_residency(&self) -> bool {
        self.kv.iter().any(|kv| {
            kv.cached_blocks() > 0 || kv.cpu_resident_blocks() > 0 || kv.net_resident_blocks() > 0
        })
    }

    /// `(outstanding tokens, queued requests, index)` — the deterministic comparison
    /// key load-based choices and tie-breaks minimise.
    fn load_key(&self, instance: usize) -> (u64, u64, usize) {
        let load = self.loads[instance];
        (load.outstanding_tokens, load.queued_requests, instance)
    }
}

/// One arrival as seen by a routing policy.
#[derive(Debug, Clone, Copy)]
pub struct RouteQuery<'a> {
    /// The user the request belongs to.
    pub user_id: u64,
    /// Total input tokens of the request.
    pub num_tokens: u64,
    /// The request's block-hash chain; empty unless the policy asked for probes.
    pub hashes: &'a [TokenBlockHash],
}

/// A routing policy: maps arrivals onto instances against a per-epoch
/// [`RouterSnapshot`] (see the module docs for the determinism contract).
///
/// Policies may keep internal state across windows (sticky assignments persist for
/// the cluster's lifetime) but must be deterministic: the decision sequence is a pure
/// function of the queries and the snapshot.
pub trait RoutingPolicy: Send {
    /// Which configured kind this policy implements.
    fn kind(&self) -> RoutingPolicyKind;

    /// Whether the routing pass must hash each arrival's tokens and give the
    /// [`RouterSnapshot`] every instance's KV manager to walk the chain against
    /// (hashing costs a pass over the prompt per arrival, so only cache-consulting
    /// policies should ask).
    fn needs_prefix_probe(&self) -> bool {
        false
    }

    /// Routes one arrival.  Called once per arrival of the epoch, in
    /// `(arrival time, request id)` order; the caller folds each decision into the
    /// snapshot's load model via [`RouterSnapshot::note_routed`].
    fn route(&mut self, query: &RouteQuery<'_>, snapshot: &RouterSnapshot) -> RoutingDecision;
}

/// The [`RoutingPolicyKind::StickyUser`] policy: §7.1 user-id routing over a
/// [`UserRouter`], restricted to the snapshot's routable slots.
struct StickyUserPolicy {
    router: UserRouter,
}

impl RoutingPolicy for StickyUserPolicy {
    fn kind(&self) -> RoutingPolicyKind {
        RoutingPolicyKind::StickyUser
    }

    fn route(&mut self, query: &RouteQuery<'_>, snapshot: &RouterSnapshot) -> RoutingDecision {
        // Re-pinning a user whose slot drained leaves the user count unchanged, so
        // only a first appearance grows it.
        let known = self.router.known_users();
        let instance = self.router.route_slots(query.user_id, snapshot.routable());
        let reason = if self.router.known_users() > known {
            RoutingReason::StickyNew
        } else {
            RoutingReason::StickyExisting
        };
        RoutingDecision { instance, reason }
    }
}

/// The [`RoutingPolicyKind::LeastLoaded`] policy: stateless argmin over the modelled
/// load key.
struct LeastLoadedPolicy;

impl RoutingPolicy for LeastLoadedPolicy {
    fn kind(&self) -> RoutingPolicyKind {
        RoutingPolicyKind::LeastLoaded
    }

    fn route(&mut self, _query: &RouteQuery<'_>, snapshot: &RouterSnapshot) -> RoutingDecision {
        let instance = snapshot
            .routable()
            .iter()
            .copied()
            .min_by_key(|&slot| snapshot.load_key(slot))
            .expect("snapshots cover at least one routable slot");
        RoutingDecision {
            instance,
            reason: RoutingReason::LeastLoaded,
        }
    }
}

/// The [`RoutingPolicyKind::CacheAware`] policy: deepest discounted prefix hit, load
/// as the tie-break and the fallback.
struct CacheAwarePolicy;

impl RoutingPolicy for CacheAwarePolicy {
    fn kind(&self) -> RoutingPolicyKind {
        RoutingPolicyKind::CacheAware
    }

    fn needs_prefix_probe(&self) -> bool {
        true
    }

    fn route(&mut self, query: &RouteQuery<'_>, snapshot: &RouterSnapshot) -> RoutingDecision {
        // Maximise hit depth over the routable slots; break ties (including the
        // all-zero case) by minimal load key, resolving equal (depth, load) pairs
        // to the lowest slot.  One pass, one chain walk per routable instance.
        let slots = snapshot.routable();
        let mut instance = slots[0];
        let mut best_depth = snapshot.discounted_hit_tokens(instance, query.hashes);
        let mut best_key = snapshot.load_key(instance);
        for &slot in &slots[1..] {
            let depth = snapshot.discounted_hit_tokens(slot, query.hashes);
            let key = snapshot.load_key(slot);
            if depth > best_depth || (depth == best_depth && key < best_key) {
                instance = slot;
                best_depth = depth;
                best_key = key;
            }
        }
        let reason = if best_depth > 0 {
            RoutingReason::DeepestPrefix
        } else {
            RoutingReason::LoadFallback
        };
        RoutingDecision { instance, reason }
    }
}

/// Sticky round-robin router keyed by user id: the engine of the
/// [`RoutingPolicyKind::StickyUser`] policy, which routes every arrival through
/// [`Self::route_slots`].  [`Self::route`] is kept public as the §7.1 reference
/// implementation over a fixed fleet.
#[derive(Debug, Clone)]
pub struct UserRouter {
    num_instances: usize,
    assignment: HashMap<u64, usize>,
    next: usize,
}

impl UserRouter {
    /// Creates a router over `num_instances` engine instances.
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError::NoInstances`] if `num_instances` is zero — surfaced at
    /// the configuration validation boundary
    /// ([`EngineConfig::validate`](crate::EngineConfig::validate)) rather than as a
    /// panic.
    pub fn new(num_instances: usize) -> Result<UserRouter, RoutingError> {
        if num_instances == 0 {
            return Err(RoutingError::NoInstances);
        }
        Ok(UserRouter {
            num_instances,
            assignment: HashMap::new(),
            next: 0,
        })
    }

    /// Returns the instance index for `user_id`, assigning a new user to the next
    /// instance in round-robin order.
    pub fn route(&mut self, user_id: u64) -> usize {
        if let Some(&instance) = self.assignment.get(&user_id) {
            return instance;
        }
        let instance = self.next;
        self.assignment.insert(user_id, instance);
        self.next = (self.next + 1) % self.num_instances;
        instance
    }

    /// Routes `user_id` over an explicit routable-slot list (ascending instance
    /// indices, non-empty) — the only path the sticky policy uses.  A user pinned to
    /// a still-routable slot keeps it; a new user, or one whose slot has drained out
    /// of the fleet, is (re-)pinned to the next routable slot in round-robin order.
    /// On the identity slot list `0..n` this behaves exactly like [`Self::route`].
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn route_slots(&mut self, user_id: u64, slots: &[usize]) -> usize {
        assert!(
            !slots.is_empty(),
            "routing needs at least one routable slot"
        );
        if let Some(&slot) = self.assignment.get(&user_id) {
            if slots.binary_search(&slot).is_ok() {
                return slot;
            }
        }
        let slot = slots[self.next % slots.len()];
        self.assignment.insert(user_id, slot);
        self.next = (self.next + 1) % slots.len();
        slot
    }

    /// Number of instances behind the router.
    pub fn num_instances(&self) -> usize {
        self.num_instances
    }

    /// Number of distinct users seen so far.
    pub fn known_users(&self) -> usize {
        self.assignment.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn users_stick_to_their_instance() {
        let mut router = UserRouter::new(2).unwrap();
        let first = router.route(10);
        for _ in 0..5 {
            assert_eq!(router.route(10), first);
        }
        assert_eq!(router.known_users(), 1);
    }

    #[test]
    fn new_users_round_robin() {
        let mut router = UserRouter::new(3).unwrap();
        let assignments: Vec<usize> = (0..9).map(|u| router.route(u)).collect();
        assert_eq!(assignments, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(router.num_instances(), 3);
        assert_eq!(router.known_users(), 9);
    }

    #[test]
    fn single_instance_routes_everything_to_zero() {
        let mut router = UserRouter::new(1).unwrap();
        assert!(std::iter::repeat_with(|| router.route(777))
            .take(3)
            .all(|i| i == 0));
        assert_eq!(router.route(888), 0);
    }

    #[test]
    fn zero_instances_is_a_typed_error_not_a_panic() {
        assert_eq!(UserRouter::new(0).unwrap_err(), RoutingError::NoInstances);
        assert!(RoutingPolicyKind::StickyUser.build(0).is_err());
        assert!(RoutingPolicyKind::LeastLoaded.build(0).is_err());
        assert!(RoutingPolicyKind::CacheAware.build(0).is_err());
        assert!(UserRouter::new(0)
            .unwrap_err()
            .to_string()
            .contains("at least one"));
    }

    fn snapshot_with_loads(loads: Vec<InstanceLoad>) -> RouterSnapshot<'static> {
        RouterSnapshot::new(loads, Vec::new(), 16, 1 << 20, 0.9, 0.5)
    }

    fn query(user_id: u64, num_tokens: u64) -> RouteQuery<'static> {
        RouteQuery {
            user_id,
            num_tokens,
            hashes: &[],
        }
    }

    const BLOCK_SIZE: usize = 16;
    const BLOCK_BYTES: u64 = 16 * 128 * 1024;

    /// A manager holding `gpu_tokens` committed in its GPU prefix cache and
    /// `net_hashes` in a private network tier (the discounted tier).
    fn manager_holding(gpu_tokens: &[u32], net_hashes: &[TokenBlockHash]) -> KvCacheManager {
        use kvcache::{NetKvPool, RetentionPolicy};
        use simcore::SimTime;

        let mut kv = KvCacheManager::new(64, BLOCK_SIZE);
        if !gpu_tokens.is_empty() {
            let alloc = kv
                .allocate(gpu_tokens, SimTime::ZERO, RetentionPolicy::FullResidency)
                .unwrap();
            kv.commit(alloc, SimTime::ZERO);
        }
        if !net_hashes.is_empty() {
            let mut pool = NetKvPool::new(1 << 30, BLOCK_BYTES);
            pool.offload(net_hashes, SimTime::ZERO);
            kv.install_net_pool(pool);
        }
        kv
    }

    #[test]
    fn least_loaded_minimises_tokens_then_queue_then_index() {
        let mut policy = RoutingPolicyKind::LeastLoaded.build(3).unwrap();
        // Distinct token loads: strict argmin.
        let snapshot = snapshot_with_loads(vec![
            InstanceLoad {
                queued_requests: 1,
                outstanding_tokens: 500,
            },
            InstanceLoad {
                queued_requests: 9,
                outstanding_tokens: 100,
            },
            InstanceLoad {
                queued_requests: 0,
                outstanding_tokens: 900,
            },
        ]);
        let d = policy.route(&query(1, 100), &snapshot);
        assert_eq!((d.instance, d.reason), (1, RoutingReason::LeastLoaded));

        // Token tie: fewer queued requests wins.
        let snapshot = snapshot_with_loads(vec![
            InstanceLoad {
                queued_requests: 3,
                outstanding_tokens: 100,
            },
            InstanceLoad {
                queued_requests: 1,
                outstanding_tokens: 100,
            },
        ]);
        assert_eq!(policy.route(&query(1, 100), &snapshot).instance, 1);

        // Full tie: lowest index, deterministically.
        let snapshot = snapshot_with_loads(vec![InstanceLoad::default(); 4]);
        assert_eq!(policy.route(&query(1, 100), &snapshot).instance, 0);
    }

    #[test]
    fn least_loaded_sees_its_own_window_decisions() {
        let mut policy = RoutingPolicyKind::LeastLoaded.build(2).unwrap();
        let mut snapshot = snapshot_with_loads(vec![InstanceLoad::default(); 2]);
        // Empty cluster: first request to 0, then alternating as load accrues.
        let mut routed = Vec::new();
        for (id, tokens) in [(1u64, 1_000u64), (2, 1_000), (3, 1_000), (4, 1_000)] {
            let d = policy.route(&query(id, tokens), &snapshot);
            snapshot.note_routed(d.instance, tokens);
            routed.push(d.instance);
        }
        assert_eq!(routed, vec![0, 1, 0, 1]);
    }

    #[test]
    fn cache_aware_prefers_depth_and_falls_back_to_load() {
        use kvcache::hash_token_blocks;

        let chain: Vec<u32> = (0..128).collect();
        let hashes = hash_token_blocks(&chain, BLOCK_SIZE);

        // Instance 1 holds the whole chain on GPU; instance 0 holds it only in the
        // network tier (discounted); instance 2 is cold but idle.
        let managers = [
            manager_holding(&[], &hashes),
            manager_holding(&chain, &[]),
            manager_holding(&[], &[]),
        ];
        let loads = vec![
            InstanceLoad::default(),
            InstanceLoad {
                queued_requests: 5,
                outstanding_tokens: 50_000,
            },
            InstanceLoad::default(),
        ];
        let snapshot = RouterSnapshot::new(
            loads,
            managers.iter().collect(),
            BLOCK_SIZE,
            1 << 20,
            0.8,
            0.4,
        );
        assert_eq!(snapshot.discounted_hit_tokens(0, &hashes), 51, "128 × 0.4");
        assert_eq!(snapshot.discounted_hit_tokens(1, &hashes), 128);
        let mut policy = RoutingPolicyKind::CacheAware.build(3).unwrap();

        // Full GPU residency beats a discounted network hit, load notwithstanding.
        let q = RouteQuery {
            user_id: 7,
            num_tokens: 128,
            hashes: &hashes,
        };
        let d = policy.route(&q, &snapshot);
        assert_eq!((d.instance, d.reason), (1, RoutingReason::DeepestPrefix));

        // A chain nobody holds falls back to load (idle 0 and 2 tie → index 0).
        let cold = hash_token_blocks(&(500_000..500_128u32).collect::<Vec<_>>(), BLOCK_SIZE);
        let q = RouteQuery {
            user_id: 8,
            num_tokens: 128,
            hashes: &cold,
        };
        let d = policy.route(&q, &snapshot);
        assert_eq!((d.instance, d.reason), (0, RoutingReason::LoadFallback));
    }

    /// Each slot reads the shared tier through its own publish-time-filtered view:
    /// a chain slot 0 spilled during the epoch is credited on slot 0 (its origin)
    /// only, until the barrier absorbs it and an install past its publish time
    /// shows it to slot 1 as well — even between two installs of one content
    /// generation.
    #[test]
    fn cache_aware_credits_each_slot_only_what_its_view_publishes() {
        use kvcache::{hash_token_blocks, NetKvPool};
        use simcore::{SimDuration, SimTime};

        let delay = SimDuration::from_millis(500);
        let mut shared = NetKvPool::new(1 << 30, BLOCK_BYTES).with_propagation_delay(delay);
        let hashes = hash_token_blocks(&(0..64).collect::<Vec<u32>>(), BLOCK_SIZE);
        let t = SimTime::from_millis(1_000);
        let published = t + delay;
        let mut managers = [
            KvCacheManager::new(64, BLOCK_SIZE),
            KvCacheManager::new(64, BLOCK_SIZE),
        ];
        let credited = |managers: &[KvCacheManager]| -> Vec<u64> {
            let snapshot = RouterSnapshot::new(
                vec![InstanceLoad::default(); 2],
                managers.iter().collect(),
                BLOCK_SIZE,
                1 << 20,
                0.8,
                0.5,
            );
            (0..2)
                .map(|slot| snapshot.discounted_hit_tokens(slot, &hashes))
                .collect()
        };
        let barrier = |managers: &mut [KvCacheManager], shared: &mut NetKvPool, at: SimTime| {
            for kv in managers.iter_mut() {
                let view = kv.take_net_view().expect("a shared-tier view");
                shared.absorb(view.into_delta());
            }
            for (slot, kv) in managers.iter_mut().enumerate() {
                kv.install_net_view(shared.view_at(at, slot));
            }
        };

        // Slot 0 spills the chain at `t`; it publishes at `t + delay`.
        let mut view = shared.view_at(t, 0);
        view.offload(&hashes, t);
        managers[0].install_net_view(view);
        managers[1].install_net_view(shared.view_at(t, 1));
        assert_eq!(
            credited(&managers),
            vec![32, 0],
            "64 tokens × 0.5 on slot 0"
        );

        // Absorbed but not yet published: still slot 0's alone.
        barrier(
            &mut managers,
            &mut shared,
            published - SimDuration::from_millis(1),
        );
        assert_eq!(credited(&managers), vec![32, 0]);

        // Past its publish time, with the shared tier's content unchanged since the
        // previous install, both slots see it.
        let generation = shared.generation();
        barrier(&mut managers, &mut shared, published);
        assert_eq!(shared.generation(), generation);
        assert_eq!(credited(&managers), vec![32, 32]);
    }

    /// The depth credited is the live three-tier lookup's: GPU hits in full, the
    /// CPU and network continuations at their discounts, each capped by the GPU
    /// pool room the tiers above leave.
    #[test]
    fn discounted_hits_weight_each_live_tier_and_respect_the_pool_cap() {
        use kvcache::{hash_token_blocks, NetKvPool, RetentionPolicy, TierHits};
        use simcore::SimTime;

        // A 6-block chain: blocks 0..2 on the GPU, block 2 in the CPU tier and
        // blocks 3..6 in the network tier.
        let chain: Vec<u32> = (0..96).collect();
        let hashes = hash_token_blocks(&chain, BLOCK_SIZE);
        let mut kv = KvCacheManager::with_offload(3, BLOCK_SIZE, 1 << 30, BLOCK_BYTES);
        // Re-touching the 2-block head makes block 2 the victim the fresh block
        // spills to the CPU tier.
        let fresh: Vec<u32> = (9_000..9_016).collect();
        for (secs, tokens) in [(0, &chain[..48]), (1, &chain[..32]), (2, &fresh[..])] {
            let now = SimTime::from_secs(secs);
            let alloc = kv
                .allocate(tokens, now, RetentionPolicy::FullResidency)
                .unwrap();
            kv.commit(alloc, now);
        }
        let mut net = NetKvPool::new(1 << 30, BLOCK_BYTES);
        net.offload(&hashes[3..], SimTime::from_secs(2));
        kv.install_net_pool(net);
        assert_eq!(
            kv.lookup_tier_hits_from_hashes(&hashes),
            TierHits {
                gpu_blocks: 2,
                cpu_blocks: 1,
                net_blocks: 3,
            }
        );

        let credited = |pool_capacity_blocks| {
            RouterSnapshot::new(
                vec![InstanceLoad::default()],
                vec![&kv],
                BLOCK_SIZE,
                pool_capacity_blocks,
                0.8,
                0.4,
            )
            .discounted_hit_tokens(0, &hashes)
        };
        assert_eq!(credited(1 << 20), 32 + 12 + 19, "32, 16 × 0.8, 48 × 0.4");
        assert_eq!(credited(4), 32 + 12 + 6, "room for one network block");
        assert_eq!(credited(2), 32, "no room past the GPU hit");
    }

    /// The hashing skip reads each manager's per-tier resident counts: residency
    /// in any one tier of any one manager makes the pass hash.
    #[test]
    fn prefix_residency_counts_every_tier() {
        use kvcache::{hash_token_blocks, RetentionPolicy};
        use simcore::SimTime;

        let chain: Vec<u32> = (0..64).collect();
        let hashes = hash_token_blocks(&chain, BLOCK_SIZE);
        // CPU-only residency: fresh traffic evicts the chain into the CPU tier,
        // then a reset empties the GPU cache without spilling.
        let mut cpu_only = KvCacheManager::with_offload(4, BLOCK_SIZE, 1 << 30, BLOCK_BYTES);
        let fresh: Vec<u32> = (1_000..1_064).collect();
        for (secs, tokens) in [(0, &chain), (1, &fresh)] {
            let now = SimTime::from_secs(secs);
            let alloc = cpu_only
                .allocate(tokens, now, RetentionPolicy::FullResidency)
                .unwrap();
            cpu_only.commit(alloc, now);
        }
        cpu_only.clear_cache();
        assert_eq!(
            (cpu_only.cached_blocks(), cpu_only.cpu_resident_blocks()),
            (0, 4)
        );

        let cold = manager_holding(&[], &[]);
        let has_residency = |kv: &KvCacheManager| {
            RouterSnapshot::new(
                vec![InstanceLoad::default(); 2],
                vec![&cold, kv],
                BLOCK_SIZE,
                1 << 20,
                0.8,
                0.4,
            )
            .has_prefix_residency()
        };
        assert!(!has_residency(&manager_holding(&[], &[])));
        assert!(has_residency(&manager_holding(&chain, &[])), "GPU");
        assert!(has_residency(&cpu_only), "CPU");
        assert!(has_residency(&manager_holding(&[], &hashes)), "network");
    }

    #[test]
    fn cache_aware_tie_breaks_by_load_then_index() {
        use kvcache::hash_token_blocks;

        let chain: Vec<u32> = (0..64).collect();
        let hashes = hash_token_blocks(&chain, BLOCK_SIZE);
        let full = [
            manager_holding(&chain, &[]),
            manager_holding(&chain, &[]),
            manager_holding(&chain, &[]),
        ];
        // Equal depth everywhere; instance 2 is the least loaded.
        let loads = vec![
            InstanceLoad {
                queued_requests: 2,
                outstanding_tokens: 8_000,
            },
            InstanceLoad {
                queued_requests: 2,
                outstanding_tokens: 8_000,
            },
            InstanceLoad {
                queued_requests: 1,
                outstanding_tokens: 4_000,
            },
        ];
        let snapshot =
            RouterSnapshot::new(loads, full.iter().collect(), BLOCK_SIZE, 1 << 20, 0.8, 0.4);
        let mut policy = RoutingPolicyKind::CacheAware.build(3).unwrap();
        let q = RouteQuery {
            user_id: 1,
            num_tokens: 64,
            hashes: &hashes,
        };
        assert_eq!(policy.route(&q, &snapshot).instance, 2);

        // Equal depth *and* equal load: lowest index, repeatably.
        let even = RouterSnapshot::new(
            vec![InstanceLoad::default(); 3],
            full.iter().collect(),
            BLOCK_SIZE,
            1 << 20,
            0.8,
            0.4,
        );
        for _ in 0..3 {
            assert_eq!(policy.route(&q, &even).instance, 0);
        }
    }

    #[test]
    fn load_policies_route_only_over_routable_slots() {
        use kvcache::hash_token_blocks;

        // Slot 0 is idle but unroutable (draining): least-loaded must pick the
        // best *routable* slot, tie-breaking by slot index as before.
        let mut policy = RoutingPolicyKind::LeastLoaded.build(3).unwrap();
        let snapshot = snapshot_with_loads(vec![
            InstanceLoad::default(),
            InstanceLoad {
                queued_requests: 2,
                outstanding_tokens: 300,
            },
            InstanceLoad {
                queued_requests: 1,
                outstanding_tokens: 100,
            },
        ])
        .with_routable_slots(vec![1, 2]);
        assert_eq!(policy.route(&query(1, 50), &snapshot).instance, 2);

        // Cache-aware: the deepest hit lives on the unroutable slot; the policy
        // must settle for the deepest hit among the routable ones.
        let chain: Vec<u32> = (0..64).collect();
        let hashes = hash_token_blocks(&chain, BLOCK_SIZE);
        let managers = [
            manager_holding(&chain, &[]),
            manager_holding(&chain[..2 * BLOCK_SIZE], &[]),
            manager_holding(&[], &[]),
        ];
        let snapshot = RouterSnapshot::new(
            vec![InstanceLoad::default(); 3],
            managers.iter().collect(),
            BLOCK_SIZE,
            1 << 20,
            0.8,
            0.4,
        )
        .with_routable_slots(vec![1, 2]);
        let mut policy = RoutingPolicyKind::CacheAware.build(3).unwrap();
        let q = RouteQuery {
            user_id: 3,
            num_tokens: 64,
            hashes: &hashes,
        };
        let d = policy.route(&q, &snapshot);
        assert_eq!((d.instance, d.reason), (1, RoutingReason::DeepestPrefix));
    }

    /// A membership change re-pins only the users whose slot left the routable
    /// list; new users keep going round-robin over the slots that remain.
    #[test]
    fn membership_change_retires_the_sticky_fast_path_and_repins_drained_users() {
        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();

        // Before the resize: users 10 → slot 0, 20 → slot 1.
        let snapshot = snapshot_with_loads(vec![InstanceLoad::default(); 2]);
        let d = policy.route(&query(10, 32), &snapshot);
        assert_eq!((d.instance, d.reason), (0, RoutingReason::StickyNew));
        let d = policy.route(&query(20, 32), &snapshot);
        assert_eq!((d.instance, d.reason), (1, RoutingReason::StickyNew));

        // Slot 1 drains out: user 20's pin is gone → re-pinned to a routable slot,
        // still labelled an existing user; user 10 keeps slot 0.
        let snapshot =
            snapshot_with_loads(vec![InstanceLoad::default(); 2]).with_routable_slots(vec![0]);
        let d = policy.route(&query(20, 32), &snapshot);
        assert_eq!((d.instance, d.reason), (0, RoutingReason::StickyExisting));
        let d = policy.route(&query(10, 32), &snapshot);
        assert_eq!((d.instance, d.reason), (0, RoutingReason::StickyExisting));

        // The fleet grows to three slots: new users round-robin over the routable
        // list, and the re-pinned user 20 sticks to its new home.
        let snapshot =
            snapshot_with_loads(vec![InstanceLoad::default(); 3]).with_routable_slots(vec![0, 2]);
        let d = policy.route(&query(40, 32), &snapshot);
        assert_eq!(d.reason, RoutingReason::StickyNew);
        let first_new = d.instance;
        let d = policy.route(&query(50, 32), &snapshot);
        assert_eq!(d.reason, RoutingReason::StickyNew);
        assert_ne!(d.instance, first_new, "new users spread round-robin");
        assert_eq!(policy.route(&query(20, 32), &snapshot).instance, 0);
    }

    #[test]
    fn sticky_policy_matches_the_user_router_and_labels_reasons() {
        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
        let mut reference = UserRouter::new(2).unwrap();
        let snapshot = snapshot_with_loads(vec![InstanceLoad::default(); 2]);
        for (user, expect_new) in [(5u64, true), (9, true), (5, false), (7, true), (9, false)] {
            let d = policy.route(&query(user, 1_000), &snapshot);
            assert_eq!(d.instance, reference.route(user));
            assert_eq!(
                d.reason,
                if expect_new {
                    RoutingReason::StickyNew
                } else {
                    RoutingReason::StickyExisting
                }
            );
        }
    }
}
