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
//! Sticky routing needs no snapshot at all: it is a pure function of user
//! first-appearance order, which trace generation precomputes
//! ([`workload::StickySeq`]).  On a stamped batch whose stamps extend the router's
//! history, the sticky policy partitions with plain arithmetic and skips the snapshot
//! pass entirely.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use kvcache::{KvCacheManager, TokenBlockHash};
use workload::StreamedArrival;

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
                rank_users: Vec::new(),
                elastic: false,
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

    /// Batch fast path for state-independent policies: route one arrival-sorted
    /// epoch at once, writing into `decisions[..batch.len()]`, or return `false`
    /// to take the snapshot [`Self::route`] pass.  The stamps of a batch may
    /// *extend* history the policy accumulated from earlier epochs and replays —
    /// this is what keeps the arithmetic partition alive across epoch boundaries.
    /// The default has no fast path.
    fn route_stamped_batch(
        &mut self,
        _batch: &[StreamedArrival],
        _num_instances: usize,
        _decisions: &mut [RoutingDecision],
    ) -> bool {
        false
    }

    /// Notifies the policy that the fleet's routable slots changed (a membership
    /// event was applied at an epoch boundary).  `routable` is the new ascending
    /// slot list.  Stateless policies need nothing — they read
    /// [`RouterSnapshot::routable`] each pass; the sticky policy uses this to
    /// *permanently* retire its arithmetic `user_seq % n` fast path, whose modulus
    /// silently diverges from round-robin over a resized fleet.
    fn note_membership_change(&mut self, _routable: &[usize]) {}
}

/// The [`RoutingPolicyKind::StickyUser`] policy: §7.1 user-id routing over a
/// [`UserRouter`], with the arithmetic fast path over traces stamped with
/// [`workload::StickySeq`].
struct StickyUserPolicy {
    router: UserRouter,
    /// Users in order of first appearance — the rank → user table the stamp fast
    /// path validates against.  Maintained by *every* routing path (slow-path
    /// `route` included), which is sound because round-robin assignment in
    /// first-appearance order always pins the `r`-th distinct user to
    /// `r % num_instances`; epoch batches whose stamps extend this history can
    /// therefore keep fast-pathing after a slow-path window.
    rank_users: Vec<u64>,
    /// Set (permanently) by the first membership event.  The arithmetic fast path
    /// computes `user_seq % num_instances` — the round-robin outcome over the fleet
    /// the trace was *stamped* for.  Once the fleet has resized, that modulus
    /// silently disagrees with round-robin over the surviving slots (and can even
    /// name a drained instance), so every later epoch must take the slot-aware
    /// slow path.
    elastic: bool,
}

impl StickyUserPolicy {
    /// Validates that every arrival is stamped and that the stamps consistently
    /// *extend* the router's first-appearance history: new firsts ranked
    /// `known, known+1, ...` in order by distinct unseen users, and every repeat
    /// pointing at its own user's rank.  Returns the new first-appearing users in
    /// order, without mutating anything — a spliced or hand-edited trace fails
    /// here and takes the slow path from an untouched router.
    fn validate_stamps(&self, batch: &[StreamedArrival]) -> Option<Vec<u64>> {
        let known = self.rank_users.len();
        let mut new_firsts: Vec<u64> = Vec::new();
        let mut distinct_firsts: HashSet<u64> = HashSet::new();
        for StreamedArrival { arrival, .. } in batch {
            let sticky = arrival.sticky?;
            let user = arrival.template.user_id;
            if sticky.first_of_user {
                if sticky.user_seq != (known + new_firsts.len()) as u64
                    || self.router.is_known(user)
                    || !distinct_firsts.insert(user)
                {
                    return None;
                }
                new_firsts.push(user);
            } else {
                let rank = sticky.user_seq as usize;
                let expected = if rank < known {
                    self.rank_users.get(rank)
                } else {
                    new_firsts.get(rank - known)
                };
                if expected != Some(&user) {
                    return None;
                }
            }
        }
        Some(new_firsts)
    }

    /// Pins a newly first-appearing user at the next rank (the arithmetic
    /// round-robin outcome) and records it in the rank table.
    fn seed_first(&mut self, user: u64) {
        let instance = self.rank_users.len() % self.router.num_instances();
        self.router.seed(user, instance);
        self.rank_users.push(user);
    }

    fn arithmetic_decision(sticky: workload::StickySeq, num_instances: usize) -> RoutingDecision {
        RoutingDecision {
            instance: (sticky.user_seq % num_instances as u64) as usize,
            reason: if sticky.first_of_user {
                RoutingReason::StickyNew
            } else {
                RoutingReason::StickyExisting
            },
        }
    }
}

impl RoutingPolicy for StickyUserPolicy {
    fn kind(&self) -> RoutingPolicyKind {
        RoutingPolicyKind::StickyUser
    }

    fn route(&mut self, query: &RouteQuery<'_>, snapshot: &RouterSnapshot) -> RoutingDecision {
        if self.elastic {
            // Slot-aware stickiness over a resized fleet: users keep their pin
            // while it stays routable; users pinned to a drained slot (and new
            // users) take the next routable slot round-robin.
            let known = self.router.is_known(query.user_id);
            let instance = self.router.route_slots(query.user_id, snapshot.routable());
            let reason = if known {
                RoutingReason::StickyExisting
            } else {
                self.rank_users.push(query.user_id);
                RoutingReason::StickyNew
            };
            debug_assert_eq!(self.rank_users.len(), self.router.known_users());
            return RoutingDecision { instance, reason };
        }
        let known = self.router.known_users();
        let instance = self.router.route(query.user_id);
        let reason = if self.router.known_users() > known {
            self.rank_users.push(query.user_id);
            RoutingReason::StickyNew
        } else {
            RoutingReason::StickyExisting
        };
        debug_assert_eq!(self.rank_users.len(), self.router.known_users());
        RoutingDecision { instance, reason }
    }

    /// The arrival-partitioning fast path: on a batch where every arrival carries
    /// a [`workload::StickySeq`] stamp consistent with the router's accumulated
    /// first-appearance history, the assignment of every request is
    /// `user_seq % num_instances` — no per-request hash-map traffic, just one seed
    /// insert per *new* distinct user so later epochs (and unstamped traces)
    /// continue from exactly the state the slow path would have left.
    fn route_stamped_batch(
        &mut self,
        batch: &[StreamedArrival],
        num_instances: usize,
        decisions: &mut [RoutingDecision],
    ) -> bool {
        debug_assert_eq!(batch.len(), decisions.len());
        if self.elastic {
            return false;
        }
        let Some(new_firsts) = self.validate_stamps(batch) else {
            return false;
        };
        for (streamed, slot) in batch.iter().zip(decisions.iter_mut()) {
            let sticky = streamed.arrival.sticky.expect("validated above");
            *slot = Self::arithmetic_decision(sticky, num_instances);
        }
        for user in new_firsts {
            self.seed_first(user);
        }
        true
    }

    /// The sticky fast-path fix for elastic fleets: `user_seq % n` was stamped for
    /// the fleet the trace was generated against; after the first resize it would
    /// silently misroute (or target a drained slot), so the arithmetic path is
    /// retired for good and every later arrival takes the slot-aware slow path.
    fn note_membership_change(&mut self, _routable: &[usize]) {
        self.elastic = true;
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

/// Sticky round-robin router keyed by user id (the engine of the
/// [`RoutingPolicyKind::StickyUser`] policy, kept public as the §7.1 reference
/// implementation).
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
    /// indices, non-empty) — the elastic-fleet counterpart of [`Self::route`].  A
    /// user pinned to a still-routable slot keeps it; a new user, or one whose slot
    /// has drained out of the fleet, is (re-)pinned to the next routable slot in
    /// round-robin order.  On the identity slot list `0..n` this behaves exactly
    /// like [`Self::route`].
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

    /// Pins a new user to an instance directly (the sticky fast path, which already
    /// knows the round-robin outcome from the trace's first-appearance ranks) and
    /// advances the round-robin cursor exactly as [`Self::route`] would have.
    fn seed(&mut self, user_id: u64, instance: usize) {
        debug_assert_eq!(instance, self.next, "seeded order must match round-robin");
        self.assignment.insert(user_id, instance);
        self.next = (self.next + 1) % self.num_instances;
    }

    /// Number of instances behind the router.
    pub fn num_instances(&self) -> usize {
        self.num_instances
    }

    /// Number of distinct users seen so far.
    pub fn known_users(&self) -> usize {
        self.assignment.len()
    }

    /// Whether `user_id` is already pinned to an instance.
    pub fn is_known(&self, user_id: u64) -> bool {
        self.assignment.contains_key(&user_id)
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

    /// Offers `trace` to [`RoutingPolicy::route_stamped_batch`] as one batch (ids
    /// are trace indices): the decisions when the fast path takes it, `None` when
    /// it falls back to the slow path.
    fn route_as_batch(
        policy: &mut dyn RoutingPolicy,
        trace: &[workload::ArrivalPattern],
        num_instances: usize,
    ) -> Option<Vec<RoutingDecision>> {
        let batch: Vec<StreamedArrival> = trace
            .iter()
            .enumerate()
            .map(|(id, arrival)| StreamedArrival {
                id: id as u64,
                arrival: arrival.clone(),
            })
            .collect();
        let mut decisions = vec![
            RoutingDecision {
                instance: 0,
                reason: RoutingReason::Direct,
            };
            batch.len()
        ];
        policy
            .route_stamped_batch(&batch, num_instances, &mut decisions)
            .then_some(decisions)
    }

    #[test]
    fn sticky_fast_path_accepts_consistent_stamps_and_rejects_inconsistent_ones() {
        use simcore::SimTime;
        use std::sync::Arc;
        use workload::{ArrivalPattern, RequestTemplate, StickySeq};

        let arrival = |user: u64, at_ms: u64, sticky: Option<StickySeq>| ArrivalPattern {
            template: RequestTemplate {
                user_id: user,
                tokens: Arc::new(vec![0; 32]),
                shared_prefix_tokens: 0,
                decode_tokens: 0,
            },
            arrival: SimTime::from_millis(at_ms),
            sticky,
        };
        let stamp = |user_seq: u64, first_of_user: bool| {
            Some(StickySeq {
                user_seq,
                first_of_user,
            })
        };

        // Consistent: firsts ranked 0, 1 and repeats pointing at their own rank.
        let good = vec![
            arrival(7, 0, stamp(0, true)),
            arrival(9, 10, stamp(1, true)),
            arrival(7, 20, stamp(0, false)),
        ];
        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
        let decisions = route_as_batch(policy.as_mut(), &good, 2)
            .expect("consistent stamps take the fast path");
        assert_eq!(
            decisions.iter().map(|d| d.instance).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );

        // A user stamped "first" twice would split their requests across instances;
        // the fast path must refuse and leave the router untouched.
        let duplicate_first = vec![
            arrival(7, 0, stamp(0, true)),
            arrival(7, 10, stamp(1, true)),
        ];
        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
        assert!(route_as_batch(policy.as_mut(), &duplicate_first, 2).is_none());
        // ... and because nothing was seeded, a later window still fast-paths.
        assert!(route_as_batch(policy.as_mut(), &good, 2).is_some());

        // A repeat stamped with another user's rank is likewise refused.
        let wrong_rank = vec![
            arrival(7, 0, stamp(0, true)),
            arrival(9, 10, stamp(1, true)),
            arrival(9, 20, stamp(0, false)),
        ];
        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
        assert!(route_as_batch(policy.as_mut(), &wrong_rank, 2).is_none());

        // Unstamped arrivals always take the slow path.
        let unstamped = vec![arrival(7, 0, None)];
        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
        assert!(route_as_batch(policy.as_mut(), &unstamped, 2).is_none());
    }

    /// Spliced/truncated-trace edges of the arithmetic fast path: every stamp
    /// inconsistency a cut-and-paste of generated traces can produce must be
    /// detected *before* anything is seeded, so the slow path starts from a clean
    /// router.
    #[test]
    fn sticky_fast_path_rejects_spliced_and_truncated_stamps() {
        use simcore::SimTime;
        use std::sync::Arc;
        use workload::{ArrivalPattern, RequestTemplate, StickySeq};

        let arrival = |user: u64, at_ms: u64, sticky: Option<StickySeq>| ArrivalPattern {
            template: RequestTemplate {
                user_id: user,
                tokens: Arc::new(vec![0; 32]),
                shared_prefix_tokens: 0,
                decode_tokens: 0,
            },
            arrival: SimTime::from_millis(at_ms),
            sticky,
        };
        let stamp = |user_seq: u64, first_of_user: bool| {
            Some(StickySeq {
                user_seq,
                first_of_user,
            })
        };

        let cases: Vec<(&str, Vec<ArrivalPattern>)> = vec![
            (
                // Two *different* users stamped first with the same rank (a splice
                // of two traces' heads): rank 0 repeats.
                "duplicate user_seq across distinct users",
                vec![
                    arrival(7, 0, stamp(0, true)),
                    arrival(9, 10, stamp(0, true)),
                ],
            ),
            (
                // The same user stamped first twice (their requests would split).
                "duplicate first stamp of one user",
                vec![
                    arrival(7, 0, stamp(0, true)),
                    arrival(7, 10, stamp(1, true)),
                ],
            ),
            (
                // A trace whose middle user was cut out: ranks jump 0 → 2.
                "non-contiguous first-appearance ranks",
                vec![
                    arrival(7, 0, stamp(0, true)),
                    arrival(9, 10, stamp(2, true)),
                ],
            ),
            (
                // A truncated trace that lost a user's first arrival: the repeat
                // points at a rank nobody claimed.
                "repeat stamp without its first",
                vec![arrival(9, 0, stamp(0, false))],
            ),
            (
                // Stamped head spliced onto an unstamped tail.
                "stamped-then-unstamped arrivals",
                vec![
                    arrival(7, 0, stamp(0, true)),
                    arrival(9, 10, stamp(1, true)),
                    arrival(7, 20, None),
                ],
            ),
        ];
        let consistent = vec![
            arrival(7, 0, stamp(0, true)),
            arrival(9, 10, stamp(1, true)),
            arrival(7, 20, stamp(0, false)),
        ];
        for (name, trace) in cases {
            let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
            assert!(
                route_as_batch(policy.as_mut(), &trace, 2).is_none(),
                "{name} must fall back to the slow path"
            );
            // Rejection must not have seeded anything: a later consistent window
            // still takes the fast path from rank 0.
            assert!(
                route_as_batch(policy.as_mut(), &consistent, 2).is_some(),
                "{name} must leave the router untouched"
            );
        }
    }

    /// A stamped stream split into epochs must keep the arithmetic partition
    /// across epoch boundaries, and the decisions must match the slow path's.
    #[test]
    fn sticky_batch_fast_path_extends_across_epochs() {
        use simcore::SimTime;
        use std::sync::Arc;
        use workload::{ArrivalPattern, RequestTemplate, StickySeq, StreamedArrival};

        let streamed =
            |id: u64, user: u64, at_ms: u64, user_seq: u64, first: bool| StreamedArrival {
                id,
                arrival: ArrivalPattern {
                    template: RequestTemplate {
                        user_id: user,
                        tokens: Arc::new(vec![0; 32]),
                        shared_prefix_tokens: 0,
                        decode_tokens: 0,
                    },
                    arrival: SimTime::from_millis(at_ms),
                    sticky: Some(StickySeq {
                        user_seq,
                        first_of_user: first,
                    }),
                },
            };
        let epoch1 = vec![
            streamed(0, 70, 0, 0, true),
            streamed(1, 90, 5, 1, true),
            streamed(2, 70, 9, 0, false),
        ];
        // Epoch 2 extends the history: a repeat of rank 1 plus a new user at rank 2.
        let epoch2 = vec![streamed(3, 90, 20, 1, false), streamed(4, 55, 24, 2, true)];

        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
        let noop = RoutingDecision {
            instance: 0,
            reason: RoutingReason::Direct,
        };
        let mut decisions = vec![noop; epoch1.len()];
        assert!(policy.route_stamped_batch(&epoch1, 2, &mut decisions));
        assert_eq!(
            decisions.iter().map(|d| d.instance).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );

        let mut decisions = vec![noop; epoch2.len()];
        assert!(
            policy.route_stamped_batch(&epoch2, 2, &mut decisions),
            "stamps extending earlier epochs' history must keep the fast path"
        );
        assert_eq!(
            decisions
                .iter()
                .map(|d| (d.instance, d.reason))
                .collect::<Vec<_>>(),
            vec![
                (1, RoutingReason::StickyExisting),
                (0, RoutingReason::StickyNew),
            ]
        );

        // A batch restarting ranks at 0 (a fresh trace) must fall back...
        let fresh = vec![streamed(5, 7_000, 30, 0, true)];
        let mut decisions = vec![noop; fresh.len()];
        assert!(!policy.route_stamped_batch(&fresh, 2, &mut decisions));

        // ... and after slow-path routing, stamps that extend the *combined*
        // history (3 firsts so far + slow-routed user 7000 = next rank 4) still
        // fast-path: the rank table is maintained by every routing path.
        let snapshot = snapshot_with_loads(vec![InstanceLoad::default(); 2]);
        let d = policy.route(&query(7_000, 32), &snapshot);
        assert_eq!((d.instance, d.reason), (1, RoutingReason::StickyNew));
        let resumed = vec![
            streamed(6, 11, 40, 4, true),
            streamed(7, 7_000, 44, 3, false),
        ];
        let mut decisions = vec![noop; resumed.len()];
        assert!(policy.route_stamped_batch(&resumed, 2, &mut decisions));
        assert_eq!(
            decisions.iter().map(|d| d.instance).collect::<Vec<_>>(),
            vec![0, 1]
        );
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

    #[test]
    fn membership_change_retires_the_sticky_fast_path_and_repins_drained_users() {
        use simcore::SimTime;
        use std::sync::Arc;
        use workload::{ArrivalPattern, RequestTemplate, StickySeq, StreamedArrival};

        let streamed =
            |id: u64, user: u64, at_ms: u64, user_seq: u64, first: bool| StreamedArrival {
                id,
                arrival: ArrivalPattern {
                    template: RequestTemplate {
                        user_id: user,
                        tokens: Arc::new(vec![0; 32]),
                        shared_prefix_tokens: 0,
                        decode_tokens: 0,
                    },
                    arrival: SimTime::from_millis(at_ms),
                    sticky: Some(StickySeq {
                        user_seq,
                        first_of_user: first,
                    }),
                },
            };
        let mut policy = RoutingPolicyKind::StickyUser.build(2).unwrap();
        let noop = RoutingDecision {
            instance: 0,
            reason: RoutingReason::Direct,
        };

        // Pre-resize: users 10 → slot 0, 20 → slot 1 via the arithmetic fast path.
        let epoch1 = vec![streamed(0, 10, 0, 0, true), streamed(1, 20, 5, 1, true)];
        let mut decisions = vec![noop; epoch1.len()];
        assert!(policy.route_stamped_batch(&epoch1, 2, &mut decisions));
        assert_eq!(
            decisions.iter().map(|d| d.instance).collect::<Vec<_>>(),
            vec![0, 1]
        );

        // Slot 1 drains out.  Even perfectly consistent stamps must now refuse the
        // fast path — `user_seq % n` would route rank-1 users onto the leaver.
        policy.note_membership_change(&[0]);
        let epoch2 = vec![streamed(2, 20, 10, 1, false), streamed(3, 30, 12, 2, true)];
        let mut decisions = vec![noop; epoch2.len()];
        assert!(
            !policy.route_stamped_batch(&epoch2, 2, &mut decisions),
            "resized fleets must take the slot-aware slow path"
        );

        // Slow path: user 20's pin (slot 1) is gone → re-pinned to a routable slot,
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
