//! Trace-scheduled fleet membership events (elastic scale-up/down).
//!
//! Production fleets resize under load, but the replay's determinism contract —
//! parallel per-instance simulation byte-identical to the sequential reference —
//! forbids reacting to anything mid-epoch.  Membership changes are therefore part of
//! the *trace*: a [`MembershipSchedule`] names virtual times at which the fleet
//! grows or shrinks, and the cluster applies each event at the first
//! propagation-epoch boundary at or after its scheduled time.  Epoch boundaries are
//! a pure function of the configuration and the trace prefix (fixed propagation
//! epochs, or a chunk clock that adapts to completed chunks' arrival counts), so
//! the applied fleet size at every instant is too — both replay flavours see
//! identical fleets, identical routing snapshots and identical KV tiers.
//!
//! A [`MembershipChange::Join`] adds one instance, either *attached* to the cluster
//! net tier (it installs the shared pool's visible snapshot from its first epoch —
//! a warm join) or detached (cold: it never reads or feeds the net tier).  A
//! [`MembershipChange::Drain`] marks one instance unroutable; it finishes its
//! queued and running work over as many epochs as that takes, optionally spills its
//! reusable GPU/CPU-resident KV into the net tier
//! ([`KvCacheManager::drain_to_net`](../kvcache/struct.KvCacheManager.html)), and
//! retires at the first boundary where it sits idle.

use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// The serving phase(s) an instance participates in.
///
/// A colocated instance runs both phases on one engine — the classic deployment
/// and the default everywhere.  Disaggregated fleets split the phases across
/// dedicated pools: `Prefill` instances run prompt passes and hand the reserved
/// KV chain to a `Decode` instance over the network fabric at `first_token`;
/// `Decode` instances never receive arrivals from the router, only handoffs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstanceRole {
    /// Runs both prefill and decode on the same engine (the default).
    #[default]
    Colocated,
    /// Prefill-only: admits arrivals, hands finished prefixes off at first token.
    Prefill,
    /// Decode-only: unroutable for arrivals, admits handed-off chains.
    Decode,
}

impl InstanceRole {
    /// Whether the routing layer may send arrivals to an instance of this role.
    pub fn can_prefill(self) -> bool {
        matches!(self, InstanceRole::Colocated | InstanceRole::Prefill)
    }

    /// Whether an instance of this role may admit handed-off chains and price
    /// decode schedules.
    pub fn can_decode(self) -> bool {
        matches!(self, InstanceRole::Colocated | InstanceRole::Decode)
    }
}

impl std::fmt::Display for InstanceRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceRole::Colocated => write!(f, "colocated"),
            InstanceRole::Prefill => write!(f, "prefill"),
            InstanceRole::Decode => write!(f, "decode"),
        }
    }
}

/// One way the fleet changes size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MembershipChange {
    /// One instance joins the fleet.
    Join {
        /// Whether the joiner attaches to the cluster's network KV tier.  An
        /// attached join is *warm*: its first epoch already installs the shared
        /// pool's visible snapshot, so it serves inherited prefixes immediately.
        /// A detached join is the cold baseline — same epoch cadence, no net tier.
        attached: bool,
        /// The serving phase(s) the joiner participates in.  `Colocated` restores
        /// the pre-role behaviour; a disaggregated fleet grows its prefill or
        /// decode pool by joining with the matching dedicated role.
        role: InstanceRole,
    },
    /// One instance leaves the fleet: it stops receiving new work, finishes what it
    /// has, and retires at the first epoch boundary where it sits idle.
    Drain {
        /// Whether the leaver publishes its reusable GPU/CPU-resident KV into the
        /// network tier before retiring (drain-to-net handoff).  `false` is the
        /// abrupt-removal baseline: the leaver's cache dies with it, and survivors
        /// re-prefill everything it knew (the wasted-prefill ablation axis).
        spill: bool,
    },
}

/// One scheduled membership event, applied at the first propagation-epoch boundary
/// at or after `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MembershipEvent {
    /// Virtual time the change is scheduled for.
    pub at: SimTime,
    /// What happens to the fleet.
    pub change: MembershipChange,
}

/// A schedule of membership events, held in application order.
///
/// Events are sorted by scheduled time (stably, so two events at the same instant
/// apply in the order they were listed — deterministic for both replay flavours).
///
/// ```
/// use simcore::SimTime;
/// use workload::{InstanceRole, MembershipChange, MembershipEvent, MembershipSchedule};
///
/// let schedule = MembershipSchedule::new(vec![
///     MembershipEvent {
///         at: SimTime::from_secs(30),
///         change: MembershipChange::Drain { spill: true },
///     },
///     MembershipEvent {
///         at: SimTime::from_secs(10),
///         change: MembershipChange::Join {
///             attached: true,
///             role: InstanceRole::Colocated,
///         },
///     },
/// ]);
/// assert_eq!(schedule.len(), 2);
/// assert_eq!(schedule.events()[0].at, SimTime::from_secs(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MembershipSchedule {
    events: Vec<MembershipEvent>,
}

impl MembershipSchedule {
    /// Builds a schedule from events in any order (sorted stably by time here).
    pub fn new(mut events: Vec<MembershipEvent>) -> MembershipSchedule {
        events.sort_by_key(|event| event.at);
        MembershipSchedule { events }
    }

    /// Whether the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in application order (ascending scheduled time).
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_sort_stably_by_time() {
        let schedule = MembershipSchedule::new(vec![
            MembershipEvent {
                at: SimTime::from_secs(5),
                change: MembershipChange::Drain { spill: false },
            },
            MembershipEvent {
                at: SimTime::from_secs(1),
                change: MembershipChange::Join {
                    attached: false,
                    role: InstanceRole::Colocated,
                },
            },
            MembershipEvent {
                at: SimTime::from_secs(5),
                change: MembershipChange::Join {
                    attached: true,
                    role: InstanceRole::Decode,
                },
            },
        ]);
        let times: Vec<SimTime> = schedule.events().iter().map(|e| e.at).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(5),
                SimTime::from_secs(5)
            ]
        );
        // Same-instant events keep their listed order.
        assert_eq!(
            schedule.events()[1].change,
            MembershipChange::Drain { spill: false }
        );
        assert_eq!(
            schedule.events()[2].change,
            MembershipChange::Join {
                attached: true,
                role: InstanceRole::Decode,
            }
        );
    }

    #[test]
    fn roles_split_prefill_and_decode_capability() {
        assert_eq!(InstanceRole::default(), InstanceRole::Colocated);
        assert!(InstanceRole::Colocated.can_prefill());
        assert!(InstanceRole::Colocated.can_decode());
        assert!(InstanceRole::Prefill.can_prefill());
        assert!(!InstanceRole::Prefill.can_decode());
        assert!(!InstanceRole::Decode.can_prefill());
        assert!(InstanceRole::Decode.can_decode());
        assert_eq!(InstanceRole::Prefill.to_string(), "prefill");
    }

    #[test]
    fn empty_schedule_reports_empty() {
        let schedule = MembershipSchedule::default();
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
        assert!(schedule.events().is_empty());
    }
}
