//! The waiting queue.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// A request waiting to be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitingRequest {
    /// Engine-assigned request identifier.
    pub id: u64,
    /// Virtual time at which the request entered the queue.
    pub arrival: SimTime,
    /// Total number of tokens: the prompt plus the `decode_tokens` trailing tokens
    /// decoded iteratively.  Both phases pin KV for every token, so this is the
    /// residency-relevant size the queue's load signal sums.
    pub total_tokens: u64,
    /// Of `total_tokens`, how many are decoded one step at a time rather than
    /// prefilled (0 for prefill-only requests).
    pub decode_tokens: u64,
    /// Prefix-cache hit tokens measured when the request *arrived*.  Classic (non-
    /// calibrating) SRJF freezes its decision on this value; continuous calibration
    /// ignores it and re-probes the cache at every scheduling step.
    ///
    /// Engine queues leave it at 0: no engine kind schedules with classic SRJF, and
    /// FCFS and calibrated SRJF never read it, so an engine does not probe the cache
    /// at arrival.  Only callers that build classic SRJF over their own queues set
    /// it.
    pub cached_tokens_at_arrival: u64,
}

impl WaitingRequest {
    /// Time this request has spent waiting as of `now`.
    pub fn queueing_time(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.arrival)
    }
}

/// The waiting queue: an *unordered* bag of waiting requests with positional removal.
///
/// # No-ordering invariant
///
/// The storage order of [`Self::requests`] carries **no meaning** and is not preserved
/// by [`Self::remove`].  Every scheduling policy scans the whole slice and orders
/// requests by its own criterion ([`FcfsPolicy`](crate::FcfsPolicy) by `(arrival, id)`,
/// [`SrjfPolicy`](crate::SrjfPolicy) by score), so nothing may rely on arrival order of
/// the slice itself.  This is what allows `remove` to be a `swap_remove` — O(1) instead
/// of shifting the queue's tail down on every admission.
#[derive(Debug, Clone, Default)]
pub struct WaitingQueue {
    entries: Vec<WaitingRequest>,
    /// Sum of `total_tokens` over the entries, maintained incrementally so the load
    /// signal ([`Self::total_tokens`]) is O(1) at any queue depth.
    total_tokens: u64,
}

impl WaitingQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a request to the queue.
    pub fn push(&mut self, request: WaitingRequest) {
        self.total_tokens += request.total_tokens;
        self.entries.push(request);
    }

    /// Removes and returns the request at `index` in O(1), moving the last entry into
    /// the hole (see the no-ordering invariant in the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> WaitingRequest {
        let removed = self.entries.swap_remove(index);
        self.total_tokens -= removed.total_tokens;
        removed
    }

    /// Sum of the waiting requests' input tokens — the queue half of the load signal
    /// routing policies balance on.  O(1).
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// The waiting requests, in unspecified order.
    pub fn requests(&self) -> &[WaitingRequest] {
        &self.entries
    }

    /// Number of waiting requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Longest queueing time among waiting requests as of `now`.
    pub fn oldest_wait(&self, now: SimTime) -> SimDuration {
        self.entries
            .iter()
            .map(|r| r.queueing_time(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, arrival_ms: u64) -> WaitingRequest {
        WaitingRequest {
            id,
            arrival: SimTime::from_millis(arrival_ms),
            total_tokens: 1000,
            decode_tokens: 0,
            cached_tokens_at_arrival: 0,
        }
    }

    #[test]
    fn remove_returns_the_indexed_request_and_keeps_the_rest() {
        let mut q = WaitingQueue::new();
        q.push(request(1, 0));
        q.push(request(2, 10));
        q.push(request(3, 20));
        assert_eq!(q.len(), 3);
        let removed = q.remove(1);
        assert_eq!(removed.id, 2);
        // swap_remove semantics: the remaining set is exact, the order is unspecified.
        let mut rest: Vec<u64> = q.requests().iter().map(|r| r.id).collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![1, 3]);
    }

    #[test]
    fn total_tokens_tracks_pushes_and_removals() {
        let mut q = WaitingQueue::new();
        assert_eq!(q.total_tokens(), 0);
        q.push(request(1, 0));
        q.push(request(2, 10));
        q.push(request(3, 20));
        assert_eq!(q.total_tokens(), 3_000);
        q.remove(0);
        assert_eq!(q.total_tokens(), 2_000);
        q.remove(1);
        q.remove(0);
        assert_eq!(q.total_tokens(), 0);
    }

    #[test]
    fn remove_is_constant_time_swap_remove() {
        // Pin down the swap_remove contract explicitly: removing the head moves the
        // tail entry into its slot rather than shifting the whole queue.
        let mut q = WaitingQueue::new();
        for id in 1..=4 {
            q.push(request(id, id * 10));
        }
        let removed = q.remove(0);
        assert_eq!(removed.id, 1);
        assert_eq!(q.requests()[0].id, 4, "last entry fills the hole");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn queueing_time_and_oldest_wait() {
        let mut q = WaitingQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.oldest_wait(SimTime::from_secs(5)), SimDuration::ZERO);
        q.push(request(1, 0));
        q.push(request(2, 500));
        let now = SimTime::from_millis(1500);
        assert_eq!(
            q.requests()[0].queueing_time(now),
            SimDuration::from_millis(1500)
        );
        assert_eq!(q.oldest_wait(now), SimDuration::from_millis(1500));
    }

    #[test]
    fn queueing_time_saturates_for_future_arrivals() {
        let r = request(1, 1000);
        assert_eq!(
            r.queueing_time(SimTime::from_millis(500)),
            SimDuration::ZERO
        );
    }
}
