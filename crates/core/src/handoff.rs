//! The prefill→decode KV handoffs in flight on the cluster fabric.
//!
//! In a disaggregated fleet a `Prefill`-role instance stops a request at its first
//! token and ships the whole reserved chain to a decode-capable instance.  The
//! transfer is charged on the prefill side (the handoff's `ready_at` is first-token
//! time plus the modelled `NetLink` transfer), and the cluster admits it at the
//! first epoch boundary at or after that instant.  [`HandoffsInFlight`] holds each
//! handoff once between those two ends.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

use simcore::SimTime;

use crate::instance::KvHandoff;

/// The prefill→decode KV handoffs in flight on the fabric, keyed by
/// `(ready_at, request id)`.  A handoff becomes admissible at the first epoch
/// boundary at or after its `ready_at`, and boundaries drain it in key order —
/// never in map iteration order — so parallel and sequential replay dispatch
/// identically.  The emitted totals are counted once, at [`Self::push`] (the
/// charged, prefill side), so they do not depend on admission retries.
#[derive(Debug, Default)]
pub(crate) struct HandoffsInFlight {
    pending: BTreeMap<(SimTime, u64), KvHandoff>,
    /// Handoffs ever emitted.
    pub(crate) emitted: u64,
    /// Bytes ever emitted.
    pub(crate) emitted_bytes: u64,
}

impl HandoffsInFlight {
    /// Puts a newly emitted handoff in flight and counts it.
    pub(crate) fn push(&mut self, handoff: KvHandoff) {
        self.emitted += 1;
        self.emitted_bytes += handoff.bytes;
        self.requeue(handoff);
    }

    /// Puts back a handoff that no decode slot could admit at this boundary.  It
    /// keeps its place in `(ready_at, request id)` order and is not recounted.
    pub(crate) fn requeue(&mut self, handoff: KvHandoff) {
        self.pending
            .insert((handoff.ready_at, handoff.request.id), handoff);
    }

    /// Removes and returns every handoff whose transfer completed by `now`, in
    /// `(ready_at, request id)` order.
    pub(crate) fn take_ready(&mut self, now: SimTime) -> Vec<KvHandoff> {
        let first_later = self
            .pending
            .range((Excluded((now, u64::MAX)), Unbounded))
            .next()
            .map(|(&key, _)| key);
        let later = match first_later {
            Some(key) => self.pending.split_off(&key),
            None => BTreeMap::new(),
        };
        std::mem::replace(&mut self.pending, later)
            .into_values()
            .collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::request::PrefillRequest;
    use crate::routing::RoutingReason;

    fn handoff(id: u64, ready_ms: u64) -> KvHandoff {
        KvHandoff {
            request: PrefillRequest {
                id,
                user_id: id,
                tokens: kvcache::TokenSeq::from(vec![0u32; 64]),
                decode_tokens: 16,
                allowed_outputs: Vec::new(),
                arrival: SimTime::ZERO,
                routing: RoutingReason::Direct,
            },
            prefill_slot: 0,
            started: SimTime::ZERO,
            first_token: SimTime::from_millis(ready_ms.saturating_sub(10)),
            blocks: 4,
            bytes: 4 * 256,
            ready_at: SimTime::from_millis(ready_ms),
            cached_tokens: 0,
            reloaded_tokens: 0,
            net_reloaded_tokens: 0,
            net_propagated_tokens: 0,
            hashes: Arc::new(Vec::new()),
        }
    }

    fn ids(ready: &[KvHandoff]) -> Vec<u64> {
        ready.iter().map(|h| h.request.id).collect()
    }

    #[test]
    fn drains_in_ready_then_request_order() {
        let mut in_flight = HandoffsInFlight::default();
        for (id, ready_ms) in [(3, 50), (1, 50), (2, 20), (4, 90)] {
            in_flight.push(handoff(id, ready_ms));
        }
        assert_eq!(
            ids(&in_flight.take_ready(SimTime::from_millis(50))),
            [2, 1, 3]
        );
        assert!(!in_flight.is_empty());
        assert_eq!(ids(&in_flight.take_ready(SimTime::from_millis(1_000))), [4]);
        assert!(in_flight.is_empty());
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut in_flight = HandoffsInFlight::default();
        in_flight.push(handoff(1, 100));
        assert!(in_flight.take_ready(SimTime::from_millis(99)).is_empty());
        assert_eq!(ids(&in_flight.take_ready(SimTime::from_millis(100))), [1]);
    }

    #[test]
    fn requeue_preserves_totals() {
        let mut in_flight = HandoffsInFlight::default();
        for (id, ready_ms) in [(1, 10), (2, 10), (3, 90)] {
            in_flight.push(handoff(id, ready_ms));
        }
        assert_eq!(
            (in_flight.emitted, in_flight.emitted_bytes),
            (3, 3 * 4 * 256)
        );
        let mut ready = in_flight.take_ready(SimTime::from_millis(10)).into_iter();
        assert_eq!(ready.len(), 2);
        // Admission of request 1 failed: it goes back without recounting and
        // keeps its place ahead of request 3.
        in_flight.requeue(ready.next().unwrap());
        assert_eq!(
            (in_flight.emitted, in_flight.emitted_bytes),
            (3, 3 * 4 * 256)
        );
        assert_eq!(
            ids(&in_flight.take_ready(SimTime::from_millis(1_000))),
            [1, 3]
        );
        assert!(in_flight.is_empty());
    }
}
