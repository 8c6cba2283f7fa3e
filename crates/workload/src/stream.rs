//! Pull-based arrival streams.
//!
//! Every replay window used to materialise its full trace as a `Vec<ArrivalPattern>`
//! before routing could begin — O(trace) memory that does not survive contact with
//! million-request load.  This module turns trace generation inside out: an
//! [`ArrivalStream`] yields arrivals one at a time, **already in event-time order**,
//! and the cluster pulls exactly the arrivals that fall inside its current
//! propagation epoch.  Memory on the replay path is then O(epoch), not O(trace).
//!
//! The contract every stream implementation must honour:
//!
//! 1. **Sorted by construction.**  `next_arrival` yields non-decreasing arrival
//!    times.  Consumers assert this per pull (O(1)) instead of re-scanning whole
//!    windows (`arrivals.windows(2).all(..)` was O(n) per routing pass).
//! 2. **Deterministic.**  A stream is a pure function of its constructor arguments
//!    (spec + seed); two streams built the same way yield byte-identical sequences.
//!    This is what keeps parallel and sequential replay byte-identical.
//! 3. **Identified.**  Each arrival carries a stable `id` used as the replay's
//!    request id.  The slice adapter preserves original trace indices so streamed
//!    and materialised replays of the same trace produce identical records.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use kvcache::{SharedPrefix, TokenSeq};
use simcore::{PoissonProcess, SimDuration, SimRng, SimTime};

use crate::arrival::{ArrivalGranularity, ArrivalPattern};
use crate::dataset::{
    cohort_prefix, conversation_input, conversation_reply, conversation_turn, system_prompt_tokens,
    user_tokens, Dataset, RequestTemplate,
};
use crate::spec::{ConversationSpec, SharedPrefixFleetSpec};

/// An arrival paired with the stable request id the replay will record it under.
#[derive(Debug, Clone)]
pub struct StreamedArrival {
    /// Stable request id: the trace index for slice-backed streams, the emission
    /// sequence number for generators.
    pub id: u64,
    /// The arriving request and its arrival time.
    pub arrival: ArrivalPattern,
}

/// A source of arrivals in non-decreasing event-time order.
///
/// See the module docs above for the full contract (sorted, deterministic,
/// identified).
pub trait ArrivalStream {
    /// Yields the next arrival, or `None` when the trace is exhausted.
    fn next_arrival(&mut self) -> Option<StreamedArrival>;

    /// Total number of arrivals this stream will yield, when known up front.
    /// Purely an allocation hint; `None` is always a correct answer.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

impl<S: ArrivalStream + ?Sized> ArrivalStream for &mut S {
    fn next_arrival(&mut self) -> Option<StreamedArrival> {
        (**self).next_arrival()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

/// A materialised trace whose sortedness is established once, at construction,
/// and carried as a property of the type.
///
/// Derefs to the sorted `[ArrivalPattern]` slice, so it replays through any entry
/// point that takes a slice; [`Self::stream`] streams it without a sortedness
/// re-scan.
#[derive(Debug, Clone)]
pub struct SortedTrace {
    arrivals: Vec<ArrivalPattern>,
}

impl SortedTrace {
    /// Wraps a trace, stably sorting it by arrival time if it is not already
    /// sorted (generated traces always are, so the common case is scan-only).
    pub fn new(mut arrivals: Vec<ArrivalPattern>) -> SortedTrace {
        if !is_sorted(&arrivals) {
            arrivals.sort_by_key(|a| a.arrival);
        }
        SortedTrace { arrivals }
    }

    /// The arrivals, sorted by arrival time.
    pub fn arrivals(&self) -> &[ArrivalPattern] {
        &self.arrivals
    }

    /// Streams the trace without copying it; ids are trace indices.
    pub fn stream(&self) -> SliceArrivalStream<'_> {
        SliceArrivalStream::from_sorted(&self.arrivals)
    }

    /// Recovers the underlying vector.
    pub fn into_inner(self) -> Vec<ArrivalPattern> {
        self.arrivals
    }
}

impl From<Vec<ArrivalPattern>> for SortedTrace {
    fn from(arrivals: Vec<ArrivalPattern>) -> SortedTrace {
        SortedTrace::new(arrivals)
    }
}

impl std::ops::Deref for SortedTrace {
    type Target = [ArrivalPattern];

    fn deref(&self) -> &[ArrivalPattern] {
        &self.arrivals
    }
}

fn is_sorted(arrivals: &[ArrivalPattern]) -> bool {
    arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival)
}

/// Adapts a materialised `&[ArrivalPattern]` slice to the [`ArrivalStream`]
/// contract, so every existing `Vec`-based call site can feed the streaming
/// replay core unchanged.
///
/// Sortedness is established **once** at construction.  A sorted slice (the
/// common case — generators emit sorted traces) streams with zero extra
/// allocation; an unsorted slice builds a single index permutation.  Either way
/// the yielded `id`s are the original trace indices, so replay records are
/// identical to the materialised path's.
///
/// ```
/// use workload::{ArrivalStream, SliceArrivalStream};
/// use workload::{assign_poisson_arrivals, Dataset, WorkloadKind};
/// use simcore::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(7);
/// let dataset = Dataset::generate(WorkloadKind::CreditVerification, &mut rng);
/// let trace = assign_poisson_arrivals(&dataset, 4.0, &mut rng);
///
/// let mut stream = SliceArrivalStream::new(&trace);
/// assert_eq!(stream.len_hint(), Some(trace.len() as u64));
/// let mut count = 0usize;
/// let mut last = simcore::SimTime::ZERO;
/// while let Some(streamed) = stream.next_arrival() {
///     // Ids are trace indices; order is event-time order.
///     assert_eq!(streamed.arrival.arrival, trace[streamed.id as usize].arrival);
///     assert!(streamed.arrival.arrival >= last);
///     last = streamed.arrival.arrival;
///     count += 1;
/// }
/// assert_eq!(count, trace.len());
/// ```
#[derive(Debug)]
pub struct SliceArrivalStream<'a> {
    arrivals: &'a [ArrivalPattern],
    /// Index permutation into `arrivals`; `None` when the slice is already sorted
    /// and positions stream through directly.
    order: Option<Vec<usize>>,
    pos: usize,
}

impl<'a> SliceArrivalStream<'a> {
    /// Wraps a slice, checking sortedness once and building an index permutation
    /// only if the slice is out of order.
    pub fn new(arrivals: &'a [ArrivalPattern]) -> SliceArrivalStream<'a> {
        if is_sorted(arrivals) {
            SliceArrivalStream::from_sorted(arrivals)
        } else {
            SliceArrivalStream::sorting(arrivals)
        }
    }

    /// Wraps a slice already known to be sorted by arrival time (e.g. a
    /// [`SortedTrace`] or a generator output), skipping the sortedness scan.
    pub fn from_sorted(arrivals: &'a [ArrivalPattern]) -> SliceArrivalStream<'a> {
        debug_assert!(is_sorted(arrivals), "slice must be sorted by arrival time");
        SliceArrivalStream {
            arrivals,
            order: None,
            pos: 0,
        }
    }

    /// Wraps a slice known (or suspected) to be unsorted, building the stable
    /// `(arrival, index)` permutation without re-checking sortedness first.
    pub fn sorting(arrivals: &'a [ArrivalPattern]) -> SliceArrivalStream<'a> {
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&idx| (arrivals[idx].arrival, idx));
        SliceArrivalStream {
            arrivals,
            order: Some(order),
            pos: 0,
        }
    }
}

impl ArrivalStream for SliceArrivalStream<'_> {
    fn next_arrival(&mut self) -> Option<StreamedArrival> {
        if self.pos == self.arrivals.len() {
            return None;
        }
        let idx = match &self.order {
            Some(order) => order[self.pos],
            None => self.pos,
        };
        self.pos += 1;
        Some(StreamedArrival {
            id: idx as u64,
            arrival: self.arrivals[idx].clone(),
        })
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.arrivals.len() as u64)
    }
}

/// Streaming twin of
/// [`assign_poisson_arrivals_with`](crate::assign_poisson_arrivals_with): yields
/// the **byte-identical** arrival sequence (same times, same order, ids equal to
/// the materialised trace's indices) without ever materialising the
/// `Vec<ArrivalPattern>`.
///
/// Equality holds because the generator emits in sorted order by construction:
/// Poisson arrival times are non-decreasing, and the materialised path's stable
/// sort is therefore the identity permutation.  Property tests in this module pin
/// the equivalence for both granularities across seeds.
#[derive(Debug)]
pub struct PoissonArrivalStream<'a> {
    dataset: &'a Dataset,
    plan: Plan,
    emitted: u64,
}

#[derive(Debug)]
enum Plan {
    /// All requests of a user arrive at the user's Poisson instant.
    PerUser {
        process: PoissonProcess,
        /// Distinct user ids in shuffled order.
        users: Vec<u64>,
        /// Dataset indices of each user's requests, in dataset order.
        requests_of: HashMap<u64, Vec<usize>>,
        user_pos: usize,
        req_pos: usize,
        at: SimTime,
    },
    /// Every request arrives at its own Poisson instant, in shuffled order.
    PerRequest {
        process: PoissonProcess,
        order: Vec<usize>,
        pos: usize,
    },
    /// The dataset was empty.
    Empty,
}

impl<'a> PoissonArrivalStream<'a> {
    /// Builds the stream.  Consumes `rng` exactly as the materialised generator
    /// does, so the same seed produces the same trace through either path.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not strictly positive.
    pub fn new(
        dataset: &'a Dataset,
        qps: f64,
        granularity: ArrivalGranularity,
        rng: &mut SimRng,
    ) -> PoissonArrivalStream<'a> {
        assert!(qps > 0.0, "QPS must be positive");
        let plan = if dataset.is_empty() {
            Plan::Empty
        } else {
            match granularity {
                ArrivalGranularity::PerUser => {
                    let mut users: Vec<u64> =
                        dataset.requests().iter().map(|r| r.user_id).collect();
                    users.sort_unstable();
                    users.dedup();
                    rng.shuffle(&mut users);

                    let requests_per_user = dataset.len() as f64 / users.len() as f64;
                    let user_rate = qps / requests_per_user;
                    let process = PoissonProcess::new(user_rate, rng.derive(0xA11A));

                    let mut requests_of: HashMap<u64, Vec<usize>> = HashMap::new();
                    for (idx, request) in dataset.requests().iter().enumerate() {
                        requests_of.entry(request.user_id).or_default().push(idx);
                    }
                    Plan::PerUser {
                        process,
                        users,
                        requests_of,
                        user_pos: 0,
                        req_pos: 0,
                        at: SimTime::ZERO,
                    }
                }
                ArrivalGranularity::PerRequest => {
                    let mut order: Vec<usize> = (0..dataset.len()).collect();
                    rng.shuffle(&mut order);
                    let process = PoissonProcess::new(qps, rng.derive(0xB22B));
                    Plan::PerRequest {
                        process,
                        order,
                        pos: 0,
                    }
                }
            }
        };
        PoissonArrivalStream {
            dataset,
            plan,
            emitted: 0,
        }
    }
}

impl ArrivalStream for PoissonArrivalStream<'_> {
    fn next_arrival(&mut self) -> Option<StreamedArrival> {
        let (template, at) = match &mut self.plan {
            Plan::PerUser {
                process,
                users,
                requests_of,
                user_pos,
                req_pos,
                at,
            } => loop {
                let user = *users.get(*user_pos)?;
                let indices = &requests_of[&user];
                if *req_pos == 0 {
                    *at = process.next_arrival();
                }
                match indices.get(*req_pos) {
                    Some(&idx) => {
                        *req_pos += 1;
                        break (&self.dataset.requests()[idx], *at);
                    }
                    None => {
                        *user_pos += 1;
                        *req_pos = 0;
                    }
                }
            },
            Plan::PerRequest {
                process,
                order,
                pos,
            } => {
                let idx = *order.get(*pos)?;
                *pos += 1;
                (&self.dataset.requests()[idx], process.next_arrival())
            }
            Plan::Empty => return None,
        };
        let id = self.emitted;
        self.emitted += 1;
        Some(StreamedArrival {
            id,
            arrival: ArrivalPattern {
                template: template.clone(),
                arrival: at,
            },
        })
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.dataset.len() as u64)
    }
}

/// Streaming shared-prefix fleet generator: the scale workload.
///
/// Yields `num_cohorts * users_per_cohort * requests_per_user` requests with O(1)
/// state per arrival — token content is generated lazily per request (each
/// cohort's prefix once, at the cohort's first arrival, as one [`SharedPrefix`]
/// all its requests hold: O(cohorts) total, bounded by the spec rather than the
/// trace).  Arrivals are per-request Poisson; users take turns
/// round-robin (round `r` emits one request from every user in user-id order), so
/// a cohort's prefix is immediately contended across instances, which is the
/// access pattern that makes the network KV tier measurable.
///
/// Token content matches [`Dataset::shared_prefix_fleet`] per `(user, round)`
/// pair.
#[derive(Debug)]
pub struct SharedPrefixFleetStream {
    spec: SharedPrefixFleetSpec,
    process: Option<PoissonProcess>,
    /// Each cohort's prefix, built at the cohort's first arrival.
    prefixes: Vec<Option<Arc<SharedPrefix>>>,
    next_index: u64,
    total: u64,
}

impl SharedPrefixFleetStream {
    /// Builds the stream.  The spec and seed alone define the full sequence.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not strictly positive and the spec is non-empty.
    pub fn new(spec: SharedPrefixFleetSpec, qps: f64, seed: u64) -> SharedPrefixFleetStream {
        let total = spec.num_cohorts * spec.users_per_cohort * spec.requests_per_user;
        let process = (total > 0).then(|| PoissonProcess::new(qps, SimRng::seed_from_u64(seed)));
        SharedPrefixFleetStream {
            spec,
            process,
            prefixes: vec![None; spec.num_cohorts as usize],
            next_index: 0,
            total,
        }
    }
}

impl ArrivalStream for SharedPrefixFleetStream {
    fn next_arrival(&mut self) -> Option<StreamedArrival> {
        if self.next_index == self.total {
            return None;
        }
        let id = self.next_index;
        self.next_index += 1;

        let num_users = self.spec.num_cohorts * self.spec.users_per_cohort;
        let round = id / num_users;
        let user = id % num_users;
        let cohort = user / self.spec.users_per_cohort;

        let spec = &self.spec;
        let prefix =
            self.prefixes[cohort as usize].get_or_insert_with(|| cohort_prefix(cohort, spec));
        let tokens = TokenSeq::extending(
            prefix,
            &user_tokens(user, round + 1, self.spec.suffix_tokens),
        );

        let at = self
            .process
            .as_mut()
            .expect("total > 0 implies a process")
            .next_arrival();
        Some(StreamedArrival {
            id,
            arrival: ArrivalPattern {
                template: RequestTemplate {
                    user_id: user,
                    tokens,
                    shared_prefix_tokens: self.spec.prefix_tokens,
                    decode_tokens: 0,
                },
                arrival: at,
            },
        })
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// Streaming multi-turn conversation generator (see [`ConversationSpec`]): the
/// decode workload.
///
/// Session start times are drawn from one Poisson process in session-id order;
/// session `s`'s turn `t` arrives `t * think_time_ms` after its start, open-loop.
/// Turn arrivals of concurrent sessions interleave, so emission is a k-way merge
/// keyed `(arrival, session, turn)` — a lazily fed min-heap over the sessions
/// whose turns are still pending, with unopened sessions held back behind the
/// Poisson lookahead (session starts are non-decreasing, so an unopened session
/// can never precede the heap's minimum).
///
/// Per-session state is the rolling token history (the session's sequence so
/// far), dropped when its last turn emits: peak memory is O(concurrently open
/// sessions), not O(trace).  Content is generated through the same pure helpers
/// as [`Dataset::conversation`], and [`conversation_trace`] pins the streamed
/// sequence byte-identical to the materialised twin.
#[derive(Debug)]
pub struct ConversationStream {
    spec: ConversationSpec,
    process: Option<PoissonProcess>,
    system: Vec<u32>,
    /// Next session id not yet opened, and its start time (the Poisson lookahead).
    next_session: u64,
    next_start: Option<SimTime>,
    /// Pending turns of open sessions, min-first on `(arrival, session, turn)`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    /// Rolling sequence history of each open session (system prompt, inputs and
    /// replies of completed turns).
    histories: HashMap<u64, Vec<u32>>,
    emitted: u64,
    total: u64,
}

impl ConversationStream {
    /// Builds the stream; the spec, session rate and seed alone define the full
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics if `session_qps` is not strictly positive while the spec is
    /// non-empty.
    pub fn new(spec: ConversationSpec, session_qps: f64, seed: u64) -> ConversationStream {
        let total = spec.num_requests();
        if total > 0 {
            assert!(session_qps > 0.0, "session QPS must be positive");
        }
        let process =
            (total > 0).then(|| PoissonProcess::new(session_qps, SimRng::seed_from_u64(seed)));
        ConversationStream {
            system: system_prompt_tokens(&spec),
            spec,
            process,
            next_session: 0,
            next_start: None,
            heap: BinaryHeap::new(),
            histories: HashMap::new(),
            emitted: 0,
            total,
        }
    }

    /// Draws the next unopened session's start time, if any session remains.
    fn refill_lookahead(&mut self) {
        if self.next_start.is_none() && self.next_session < self.spec.num_sessions {
            let process = self.process.as_mut().expect("non-empty spec has a process");
            self.next_start = Some(process.next_arrival());
        }
    }

    /// Opens the lookahead session: pushes its turn 0 and seeds its history.
    fn open_next_session(&mut self) {
        let start = self.next_start.take().expect("lookahead must be filled");
        let session = self.next_session;
        self.next_session += 1;
        self.heap.push(Reverse((start, session, 0)));
        self.histories.insert(session, self.system.clone());
    }
}

impl ArrivalStream for ConversationStream {
    fn next_arrival(&mut self) -> Option<StreamedArrival> {
        if self.emitted == self.total {
            return None;
        }
        self.refill_lookahead();
        // Open every session that must precede the heap's minimum.  Strict
        // inequality suffices: at equal arrival times the unopened session's id is
        // larger than every opened session's, so the heap's entry orders first.
        loop {
            match (self.next_start, self.heap.peek()) {
                (Some(start), Some(&Reverse((at, _, _)))) if start < at => {
                    self.open_next_session();
                    self.refill_lookahead();
                }
                (Some(_), None) => {
                    self.open_next_session();
                    self.refill_lookahead();
                }
                _ => break,
            }
        }

        let Reverse((at, session, turn)) = self.heap.pop()?;
        let history = self
            .histories
            .get_mut(&session)
            .expect("open session has a history");
        history.extend(conversation_input(
            session,
            turn,
            self.spec.input_tokens(turn),
        ));
        let reply = conversation_reply(session, turn, self.spec.decode_tokens_per_turn);
        let tokens = conversation_turn(history, &reply);
        if turn + 1 < self.spec.turns_per_session {
            history.extend(reply);
            self.heap.push(Reverse((
                at + SimDuration::from_millis(self.spec.think_time_ms),
                session,
                turn + 1,
            )));
        } else {
            self.histories.remove(&session);
        }

        let id = self.emitted;
        self.emitted += 1;
        Some(StreamedArrival {
            id,
            arrival: ArrivalPattern {
                template: RequestTemplate {
                    user_id: session,
                    tokens,
                    shared_prefix_tokens: self.spec.turn_total_tokens(0),
                    decode_tokens: self.spec.decode_tokens_per_turn,
                },
                arrival: at,
            },
        })
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// Materialised twin of [`ConversationStream`]: generates the same sessions
/// eagerly from [`Dataset::conversation`], assigns the same Poisson session
/// starts and think-time offsets and sorts by the stream's `(arrival, session,
/// turn)` emission key — byte-identical to draining the stream (pinned by
/// property test).
pub fn conversation_trace(spec: &ConversationSpec, session_qps: f64, seed: u64) -> SortedTrace {
    let dataset = Dataset::conversation(spec);
    if dataset.is_empty() {
        return SortedTrace::new(Vec::new());
    }
    assert!(session_qps > 0.0, "session QPS must be positive");
    let mut process = PoissonProcess::new(session_qps, SimRng::seed_from_u64(seed));
    let think = SimDuration::from_millis(spec.think_time_ms);

    // Dataset order is (session, turn); attach each turn's arrival time.
    let mut order: Vec<(SimTime, u64, u64)> = Vec::with_capacity(dataset.len());
    for session in 0..spec.num_sessions {
        let start = process.next_arrival();
        let mut at = start;
        for turn in 0..spec.turns_per_session {
            order.push((at, session, turn));
            at += think;
        }
    }
    order.sort_unstable();

    let arrivals = order
        .into_iter()
        .map(|(at, session, turn)| {
            let idx = (session * spec.turns_per_session + turn) as usize;
            ArrivalPattern {
                template: dataset.requests()[idx].clone(),
                arrival: at,
            }
        })
        .collect();
    SortedTrace::new(arrivals)
}

/// Drains a stream into a materialised trace (test/interop helper; the point of
/// streams is not to need this on the replay path).
pub fn collect_stream<S: ArrivalStream + ?Sized>(stream: &mut S) -> Vec<ArrivalPattern> {
    let mut out = Vec::new();
    while let Some(streamed) = stream.next_arrival() {
        out.push(streamed.arrival);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::assign_poisson_arrivals_with;
    use crate::spec::{PostRecommendationSpec, WorkloadKind};

    fn assert_same_trace(streamed: &[ArrivalPattern], materialised: &[ArrivalPattern]) {
        assert_eq!(streamed.len(), materialised.len());
        for (s, m) in streamed.iter().zip(materialised) {
            assert_eq!(s.arrival, m.arrival);
            assert_eq!(s.template.user_id, m.template.user_id);
            assert_eq!(
                s.template.shared_prefix_tokens,
                m.template.shared_prefix_tokens
            );
            assert_eq!(s.template.tokens, m.template.tokens);
        }
    }

    #[test]
    fn poisson_stream_is_byte_identical_to_the_materialised_generator() {
        for kind in [
            WorkloadKind::PostRecommendation,
            WorkloadKind::CreditVerification,
            WorkloadKind::SharedPrefixFleet,
        ] {
            for granularity in [ArrivalGranularity::PerUser, ArrivalGranularity::PerRequest] {
                for seed in [1u64, 42, 9_000] {
                    let dataset = Dataset::generate(kind, &mut SimRng::seed_from_u64(seed ^ 0xD5));
                    let materialised = assign_poisson_arrivals_with(
                        &dataset,
                        8.0,
                        granularity,
                        &mut SimRng::seed_from_u64(seed),
                    );
                    let mut stream = PoissonArrivalStream::new(
                        &dataset,
                        8.0,
                        granularity,
                        &mut SimRng::seed_from_u64(seed),
                    );
                    assert_eq!(stream.len_hint(), Some(dataset.len() as u64));
                    let streamed = collect_stream(&mut stream);
                    assert_same_trace(&streamed, &materialised);
                }
            }
        }
    }

    #[test]
    fn poisson_stream_ids_are_emission_order() {
        let dataset = Dataset::generate(
            WorkloadKind::PostRecommendation,
            &mut SimRng::seed_from_u64(3),
        );
        let mut stream = PoissonArrivalStream::new(
            &dataset,
            5.0,
            ArrivalGranularity::PerRequest,
            &mut SimRng::seed_from_u64(3),
        );
        let mut expected = 0u64;
        let mut last = SimTime::ZERO;
        while let Some(streamed) = stream.next_arrival() {
            assert_eq!(streamed.id, expected);
            assert!(streamed.arrival.arrival >= last);
            last = streamed.arrival.arrival;
            expected += 1;
        }
        assert_eq!(expected, dataset.len() as u64);
    }

    #[test]
    fn poisson_stream_of_empty_dataset_is_empty() {
        let spec = PostRecommendationSpec {
            num_users: 0,
            ..PostRecommendationSpec::default()
        };
        let dataset = Dataset::post_recommendation(&spec, &mut SimRng::seed_from_u64(1));
        let mut stream = PoissonArrivalStream::new(
            &dataset,
            5.0,
            ArrivalGranularity::PerUser,
            &mut SimRng::seed_from_u64(1),
        );
        assert!(stream.next_arrival().is_none());
        assert_eq!(stream.len_hint(), Some(0));
    }

    #[test]
    #[should_panic(expected = "QPS must be positive")]
    fn poisson_stream_rejects_zero_qps() {
        let dataset = Dataset::generate(
            WorkloadKind::CreditVerification,
            &mut SimRng::seed_from_u64(1),
        );
        PoissonArrivalStream::new(
            &dataset,
            0.0,
            ArrivalGranularity::PerUser,
            &mut SimRng::seed_from_u64(1),
        );
    }

    #[test]
    fn slice_stream_preserves_indices_and_sorts_unsorted_slices() {
        let dataset = Dataset::generate(
            WorkloadKind::CreditVerification,
            &mut SimRng::seed_from_u64(5),
        );
        let mut trace = assign_poisson_arrivals_with(
            &dataset,
            3.0,
            ArrivalGranularity::PerRequest,
            &mut SimRng::seed_from_u64(5),
        );
        trace.reverse();

        let mut stream = SliceArrivalStream::new(&trace);
        let mut last = SimTime::ZERO;
        let mut seen = vec![false; trace.len()];
        while let Some(streamed) = stream.next_arrival() {
            assert!(streamed.arrival.arrival >= last);
            last = streamed.arrival.arrival;
            let idx = streamed.id as usize;
            assert!(!seen[idx], "each index yielded exactly once");
            seen[idx] = true;
            assert_eq!(streamed.arrival.arrival, trace[idx].arrival);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sorted_trace_sorts_once_and_streams_every_arrival() {
        let dataset = Dataset::generate(
            WorkloadKind::PostRecommendation,
            &mut SimRng::seed_from_u64(6),
        );
        let mut trace = assign_poisson_arrivals_with(
            &dataset,
            3.0,
            ArrivalGranularity::PerRequest,
            &mut SimRng::seed_from_u64(6),
        );
        trace.reverse();
        let sorted = SortedTrace::new(trace);
        assert!(is_sorted(&sorted));
        let streamed = collect_stream(&mut sorted.stream());
        assert_eq!(streamed.len(), sorted.len());

        let empty = SortedTrace::new(Vec::new());
        assert!(empty.stream().next_arrival().is_none());
    }

    #[test]
    fn fleet_stream_matches_the_materialised_dataset_per_user_round() {
        let spec = SharedPrefixFleetSpec {
            num_cohorts: 3,
            users_per_cohort: 4,
            prefix_tokens: 96,
            suffix_tokens: 16,
            requests_per_user: 5,
        };
        let dataset = Dataset::shared_prefix_fleet(&spec);
        let mut stream = SharedPrefixFleetStream::new(spec, 50.0, 7);
        assert_eq!(stream.len_hint(), Some(dataset.len() as u64));

        let num_users = spec.num_cohorts * spec.users_per_cohort;
        let mut last = SimTime::ZERO;
        let mut count = 0u64;
        while let Some(streamed) = stream.next_arrival() {
            let round = streamed.id / num_users;
            let user = streamed.id % num_users;
            assert_eq!(streamed.arrival.template.user_id, user);
            // Arrival order is round-robin over users; times strictly advance.
            assert!(streamed.arrival.arrival > last);
            last = streamed.arrival.arrival;
            // Token content matches the materialised dataset's (user, round) request.
            let materialised = dataset
                .requests()
                .iter()
                .filter(|r| r.user_id == user)
                .nth(round as usize)
                .unwrap();
            assert_eq!(streamed.arrival.template.tokens, materialised.tokens);
            assert_eq!(
                streamed.arrival.template.shared_prefix_tokens,
                materialised.shared_prefix_tokens
            );
            count += 1;
        }
        assert_eq!(count, dataset.len() as u64);
    }

    /// The stream builds one shared prefix per cohort, at the cohort's first
    /// arrival, and every request of the cohort holds it.
    #[test]
    fn fleet_stream_holds_one_shared_prefix_per_cohort() {
        let spec = SharedPrefixFleetSpec {
            num_cohorts: 3,
            users_per_cohort: 4,
            prefix_tokens: 96,
            suffix_tokens: 16,
            requests_per_user: 5,
        };
        let mut stream = SharedPrefixFleetStream::new(spec, 50.0, 7);
        assert!(stream.prefixes.iter().all(Option::is_none), "built lazily");
        let templates: Vec<RequestTemplate> = collect_stream(&mut stream)
            .into_iter()
            .map(|arrival| arrival.template)
            .collect();
        crate::dataset::assert_one_shared_prefix_per_group(&templates, |r| {
            r.user_id / spec.users_per_cohort
        });
    }

    #[test]
    fn fleet_stream_is_deterministic_per_seed() {
        let spec = SharedPrefixFleetSpec {
            num_cohorts: 2,
            users_per_cohort: 3,
            prefix_tokens: 32,
            suffix_tokens: 8,
            requests_per_user: 4,
        };
        let a = collect_stream(&mut SharedPrefixFleetStream::new(spec, 20.0, 11));
        let b = collect_stream(&mut SharedPrefixFleetStream::new(spec, 20.0, 11));
        let c = collect_stream(&mut SharedPrefixFleetStream::new(spec, 20.0, 12));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.template.tokens, y.template.tokens);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival));
    }

    #[test]
    fn conversation_stream_is_byte_identical_to_the_materialised_trace() {
        for (sessions, turns, think_ms) in [(6u64, 4u64, 900u64), (12, 3, 0), (5, 1, 2_500)] {
            for seed in [1u64, 42, 977] {
                let spec = ConversationSpec {
                    num_sessions: sessions,
                    turns_per_session: turns,
                    system_prompt_tokens: 48,
                    first_turn_input_tokens: 96,
                    turn_input_tokens: 24,
                    decode_tokens_per_turn: 16,
                    think_time_ms: think_ms,
                };
                let materialised = conversation_trace(&spec, 2.0, seed);
                let mut stream = ConversationStream::new(spec, 2.0, seed);
                assert_eq!(stream.len_hint(), Some(spec.num_requests()));
                let streamed = collect_stream(&mut stream);
                assert_same_trace(&streamed, materialised.arrivals());
                for (s, m) in streamed.iter().zip(materialised.arrivals()) {
                    assert_eq!(s.template.decode_tokens, m.template.decode_tokens);
                }
            }
        }
    }

    #[test]
    fn conversation_stream_emits_sorted_with_monotone_turns_per_session() {
        let spec = ConversationSpec {
            num_sessions: 8,
            turns_per_session: 5,
            system_prompt_tokens: 32,
            first_turn_input_tokens: 64,
            turn_input_tokens: 16,
            decode_tokens_per_turn: 8,
            think_time_ms: 700,
        };
        let mut stream = ConversationStream::new(spec, 3.0, 13);
        let mut last = SimTime::ZERO;
        let mut next_turn: HashMap<u64, u64> = HashMap::new();
        let mut prev_len: HashMap<u64, usize> = HashMap::new();
        let mut count = 0u64;
        let mut expected_id = 0u64;
        while let Some(streamed) = stream.next_arrival() {
            assert_eq!(streamed.id, expected_id);
            expected_id += 1;
            assert!(streamed.arrival.arrival >= last, "stream must stay sorted");
            last = streamed.arrival.arrival;
            let session = streamed.arrival.template.user_id;
            let turn = next_turn.entry(session).or_insert(0);
            let expected_tokens = spec.turn_total_tokens(*turn);
            assert_eq!(streamed.arrival.template.num_tokens(), expected_tokens);
            assert_eq!(streamed.arrival.template.decode_tokens, 8);
            *turn += 1;
            // Each turn strictly extends the session's previous sequence.
            let len = streamed.arrival.template.tokens.len();
            if let Some(&prev) = prev_len.get(&session) {
                assert!(len > prev);
            }
            prev_len.insert(session, len);
            count += 1;
        }
        assert_eq!(count, spec.num_requests());
        assert!(next_turn.values().all(|&t| t == 5));
    }

    #[test]
    fn conversation_stream_with_empty_spec_is_empty() {
        let spec = ConversationSpec {
            num_sessions: 0,
            ..ConversationSpec::default()
        };
        let mut stream = ConversationStream::new(spec, 1.0, 1);
        assert_eq!(stream.len_hint(), Some(0));
        assert!(stream.next_arrival().is_none());
        let trace = conversation_trace(&spec, 1.0, 1);
        assert!(trace.arrivals().is_empty());

        let no_turns = ConversationSpec {
            turns_per_session: 0,
            ..ConversationSpec::default()
        };
        assert!(ConversationStream::new(no_turns, 1.0, 1)
            .next_arrival()
            .is_none());
    }

    #[test]
    fn fleet_stream_with_empty_spec_is_empty() {
        let spec = SharedPrefixFleetSpec {
            requests_per_user: 0,
            ..SharedPrefixFleetSpec::default()
        };
        let mut stream = SharedPrefixFleetStream::new(spec, 10.0, 1);
        assert_eq!(stream.len_hint(), Some(0));
        assert!(stream.next_arrival().is_none());
    }
}
