//! Dataset generation.

use std::sync::Arc;

use kvcache::{SharedPrefix, TokenSeq};
use serde::{Deserialize, Serialize};
use simcore::SimRng;

use crate::spec::{
    ConversationSpec, CreditVerificationSpec, PostRecommendationSpec, SharedPrefixFleetSpec,
    WorkloadKind,
};

/// One request before an arrival time has been assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTemplate {
    /// The user this request belongs to (used for user-id routing, §7.1).
    pub user_id: u64,
    /// The full token sequence of the request: the prompt followed by the
    /// `decode_tokens` trailing tokens the engine decodes iteratively (trace-replay
    /// style: the reply content is part of the trace, its *production* is what the
    /// engine simulates).  Requests from the same user share the leading profile
    /// tokens, which is what prefix caching exploits; the generators that know a
    /// prefix is shared build the requests from one [`SharedPrefix`], so the
    /// prefix's block hashes are computed once rather than once per request.
    pub tokens: TokenSeq,
    /// Number of leading tokens shared with every other request of the same user.
    pub shared_prefix_tokens: u64,
    /// Number of trailing tokens of `tokens` that are decoded one step at a time
    /// rather than prefilled.  `0` is the prefill-only request every pre-decode
    /// workload generates, pinned byte-identical to the historical behaviour.
    pub decode_tokens: u64,
}

impl RequestTemplate {
    /// Total number of tokens (prompt plus decoded reply).
    pub fn num_tokens(&self) -> u64 {
        self.tokens.len() as u64
    }

    /// Number of prompt tokens (what the prefill stage forwards).
    pub fn prompt_tokens(&self) -> u64 {
        self.num_tokens() - self.decode_tokens
    }
}

/// Summary statistics of a generated dataset, mirroring the columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Number of distinct users.
    pub num_users: u64,
    /// Number of requests.
    pub num_requests: u64,
    /// Shortest request in tokens.
    pub min_request_tokens: u64,
    /// Longest request in tokens.
    pub max_request_tokens: u64,
    /// Total tokens across all requests.
    pub total_tokens: u64,
}

/// A generated workload: a bag of request templates plus its summary.
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: WorkloadKind,
    requests: Vec<RequestTemplate>,
}

impl Dataset {
    /// Generates the post-recommendation dataset.
    pub fn post_recommendation(spec: &PostRecommendationSpec, rng: &mut SimRng) -> Dataset {
        let mut requests = Vec::new();
        for user in 0..spec.num_users {
            let profile_len = rng
                .gen_normal(spec.profile_mean_tokens, spec.profile_std_tokens)
                .round()
                .clamp(
                    spec.profile_min_tokens as f64,
                    spec.profile_max_tokens as f64,
                ) as u64;
            let profile = SharedPrefix::new(user_tokens(user, 0, profile_len));
            for post in 0..spec.posts_per_user {
                let post_tokens = user_tokens(user, post + 1, spec.post_tokens);
                requests.push(RequestTemplate {
                    user_id: user,
                    tokens: TokenSeq::extending(&profile, &post_tokens),
                    shared_prefix_tokens: profile_len,
                    decode_tokens: 0,
                });
            }
        }
        Dataset {
            kind: WorkloadKind::PostRecommendation,
            requests,
        }
    }

    /// Generates the credit-verification dataset.
    pub fn credit_verification(spec: &CreditVerificationSpec, rng: &mut SimRng) -> Dataset {
        let mut requests = Vec::new();
        for user in 0..spec.num_users {
            let history_len = rng.gen_range(spec.history_min_tokens..=spec.history_max_tokens);
            let tokens = user_tokens(user, 0, history_len);
            requests.push(RequestTemplate {
                user_id: user,
                tokens: TokenSeq::from(tokens),
                // A credit-verification user issues a single request, so nothing is
                // shared in practice, but the history would be the reusable part.
                shared_prefix_tokens: history_len,
                decode_tokens: 0,
            });
        }
        Dataset {
            kind: WorkloadKind::CreditVerification,
            requests,
        }
    }

    /// Generates the shared-prefix fleet dataset (see
    /// [`SharedPrefixFleetSpec`]): users `c * users_per_cohort .. (c+1) *
    /// users_per_cohort` share cohort `c`'s prefix byte for byte, and every request
    /// appends a private per-(user, request) suffix.
    ///
    /// Token content is fully deterministic — the spec alone defines the dataset —
    /// so the interesting randomness lives entirely in the arrival process.
    pub fn shared_prefix_fleet(spec: &SharedPrefixFleetSpec) -> Dataset {
        let mut requests = Vec::new();
        for cohort in 0..spec.num_cohorts {
            let prefix = cohort_prefix(cohort, spec);
            for member in 0..spec.users_per_cohort {
                let user = cohort * spec.users_per_cohort + member;
                for round in 0..spec.requests_per_user {
                    let suffix = user_tokens(user, round + 1, spec.suffix_tokens);
                    requests.push(RequestTemplate {
                        user_id: user,
                        tokens: TokenSeq::extending(&prefix, &suffix),
                        shared_prefix_tokens: spec.prefix_tokens,
                        decode_tokens: 0,
                    });
                }
            }
        }
        Dataset {
            kind: WorkloadKind::SharedPrefixFleet,
            requests,
        }
    }

    /// Generates the multi-turn conversation dataset (see [`ConversationSpec`]):
    /// session `s` is user `s`, and its turn `t` request carries the session's full
    /// prior sequence — system prompt, every earlier input and every earlier decoded
    /// reply — plus turn `t`'s new input as the prompt, with the turn's own reply as
    /// the `decode_tokens` trailing tail.  Committing one turn's decode output into
    /// the prefix cache therefore makes the next turn's prompt a pure extension of
    /// cached blocks.
    ///
    /// Requests are emitted in `(session, turn)` order (arrival assignment is the
    /// stream's job); token content is fully deterministic from the spec.
    pub fn conversation(spec: &ConversationSpec) -> Dataset {
        let mut requests = Vec::with_capacity(spec.num_requests() as usize);
        for session in 0..spec.num_sessions {
            let mut history = system_prompt_tokens(spec);
            for turn in 0..spec.turns_per_session {
                history.extend(conversation_input(session, turn, spec.input_tokens(turn)));
                let reply = conversation_reply(session, turn, spec.decode_tokens_per_turn);
                requests.push(RequestTemplate {
                    user_id: session,
                    tokens: conversation_turn(&history, &reply),
                    // Every pair of a session's turns shares at least the first
                    // turn's full sequence (later turns extend it verbatim).
                    shared_prefix_tokens: spec.turn_total_tokens(0),
                    decode_tokens: spec.decode_tokens_per_turn,
                });
                history.extend(reply);
            }
        }
        Dataset {
            kind: WorkloadKind::Conversation,
            requests,
        }
    }

    /// Generates the dataset selected by `kind` with default parameters (Table 1
    /// for the paper's two workloads).
    pub fn generate(kind: WorkloadKind, rng: &mut SimRng) -> Dataset {
        match kind {
            WorkloadKind::PostRecommendation => {
                Dataset::post_recommendation(&PostRecommendationSpec::default(), rng)
            }
            WorkloadKind::CreditVerification => {
                Dataset::credit_verification(&CreditVerificationSpec::default(), rng)
            }
            WorkloadKind::SharedPrefixFleet => {
                Dataset::shared_prefix_fleet(&SharedPrefixFleetSpec::default())
            }
            WorkloadKind::Conversation => Dataset::conversation(&ConversationSpec::default()),
        }
    }

    /// Which workload this dataset instantiates.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The request templates.
    pub fn requests(&self) -> &[RequestTemplate] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Length (in tokens) of the longest request; engines whose MIL is below this
    /// cannot run the workload (the ✗ entries of Table 2).
    pub fn max_request_tokens(&self) -> u64 {
        self.requests
            .iter()
            .map(RequestTemplate::num_tokens)
            .max()
            .unwrap_or(0)
    }

    /// Summary statistics in the shape of Table 1.
    pub fn summary(&self) -> DatasetSummary {
        let mut users: Vec<u64> = self.requests.iter().map(|r| r.user_id).collect();
        users.sort_unstable();
        users.dedup();
        DatasetSummary {
            num_users: users.len() as u64,
            num_requests: self.requests.len() as u64,
            min_request_tokens: self
                .requests
                .iter()
                .map(RequestTemplate::num_tokens)
                .min()
                .unwrap_or(0),
            max_request_tokens: self.max_request_tokens(),
            total_tokens: self.requests.iter().map(RequestTemplate::num_tokens).sum(),
        }
    }
}

/// Deterministic synthetic token ids for a given (user, document) pair.
///
/// The ids only need two properties: requests of the same user share their profile
/// tokens exactly, and different users / documents never collide on a full block.
/// Shared with the streaming generators so a streamed request's token content is
/// bit-identical to the materialised dataset's.
pub(crate) fn user_tokens(user: u64, document: u64, len: u64) -> Vec<u32> {
    let base = (user.wrapping_mul(1_000_003) ^ document.wrapping_mul(7_919)) as u32;
    (0..len as u32).map(|i| base.wrapping_add(i)).collect()
}

/// Cohort `cohort`'s prefix: "user tokens" of a synthetic id outside the user
/// range, so cohorts never collide with each other or with suffixes.  Shared with
/// the streaming generator so streamed content is bit-identical to the dataset's.
pub(crate) fn cohort_prefix(cohort: u64, spec: &SharedPrefixFleetSpec) -> Arc<SharedPrefix> {
    SharedPrefix::new(user_tokens(1_000_000 + cohort, 0, spec.prefix_tokens))
}

/// The system prompt all conversation sessions share, as a synthetic "user" outside
/// the session-id range (so it never collides with per-session content).
pub(crate) fn system_prompt_tokens(spec: &ConversationSpec) -> Vec<u32> {
    user_tokens(2_000_000, 0, spec.system_prompt_tokens)
}

/// Turn `turn`'s user input of session `session` (documents `2t` keep inputs and
/// replies disjoint).  Shared with [`crate::stream`] so streamed conversation
/// content is bit-identical to the materialised dataset's.
pub(crate) fn conversation_input(session: u64, turn: u64, len: u64) -> Vec<u32> {
    user_tokens(session, 2 * turn + 1, len)
}

/// Turn `turn`'s decoded reply of session `session`.
pub(crate) fn conversation_reply(session: u64, turn: u64, len: u64) -> Vec<u32> {
    user_tokens(session, 2 * turn + 2, len)
}

/// A turn's tokens: the session's history up to this turn's input, then its
/// reply, in one allocation of exactly their length.  Conversation turns are
/// unshared sequences: their hashing is a small share of a chat replay, and
/// nesting each turn's prefix in the previous one measured no gain.
pub(crate) fn conversation_turn(history: &[u32], reply: &[u32]) -> TokenSeq {
    let mut tokens = Vec::with_capacity(history.len() + reply.len());
    tokens.extend_from_slice(history);
    tokens.extend_from_slice(reply);
    TokenSeq::from(tokens)
}

/// Test helper: every request holds a [`SharedPrefix`] of exactly its template's
/// `shared_prefix_tokens`, all requests of one `group` hold the same one, and no
/// two groups share one.
#[cfg(test)]
pub(crate) fn assert_one_shared_prefix_per_group(
    requests: &[RequestTemplate],
    group: impl Fn(&RequestTemplate) -> u64,
) {
    let mut prefixes: Vec<(u64, &Arc<SharedPrefix>)> = Vec::new();
    for request in requests {
        let prefix = request
            .tokens
            .shared_prefix()
            .expect("the request was built from a shared prefix");
        assert_eq!(prefix.len() as u64, request.shared_prefix_tokens);
        let key = group(request);
        match prefixes.iter().find(|(other, _)| *other == key) {
            Some((_, first)) => {
                assert!(Arc::ptr_eq(first, prefix), "group {key} holds two prefixes")
            }
            None => {
                assert!(
                    prefixes
                        .iter()
                        .all(|(_, other)| !Arc::ptr_eq(other, prefix)),
                    "group {key} shares another group's prefix"
                );
                prefixes.push((key, prefix));
            }
        }
    }
    assert!(prefixes.len() > 1, "needs at least two groups to compare");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1234)
    }

    #[test]
    fn post_recommendation_matches_table1() {
        let ds = Dataset::post_recommendation(&PostRecommendationSpec::default(), &mut rng());
        let summary = ds.summary();
        assert_eq!(summary.num_users, 20);
        assert_eq!(summary.num_requests, 20 * 50);
        assert!(summary.min_request_tokens >= 11_000 + 150);
        assert!(summary.max_request_tokens <= 17_000 + 150);
        // Table 1 reports ~14,000,000 total tokens.
        assert!(
            (12_000_000..16_000_000).contains(&summary.total_tokens),
            "total tokens {}",
            summary.total_tokens
        );
    }

    #[test]
    fn credit_verification_matches_table1() {
        let ds = Dataset::credit_verification(&CreditVerificationSpec::default(), &mut rng());
        let summary = ds.summary();
        assert_eq!(summary.num_users, 60);
        assert_eq!(summary.num_requests, 60);
        assert!(summary.min_request_tokens >= 40_000);
        assert!(summary.max_request_tokens <= 60_000);
        // Table 1 reports ~3,000,000 total tokens.
        assert!(
            (2_400_000..3_600_000).contains(&summary.total_tokens),
            "total tokens {}",
            summary.total_tokens
        );
    }

    #[test]
    fn same_user_requests_share_their_profile_prefix() {
        let ds = Dataset::post_recommendation(&PostRecommendationSpec::default(), &mut rng());
        let user0: Vec<&RequestTemplate> =
            ds.requests().iter().filter(|r| r.user_id == 0).collect();
        assert_eq!(user0.len(), 50);
        let prefix_len = user0[0].shared_prefix_tokens as usize;
        for r in &user0[1..] {
            assert_eq!(r.shared_prefix_tokens as usize, prefix_len);
            assert_eq!(
                &r.tokens[..prefix_len],
                &user0[0].tokens[..prefix_len],
                "profile prefix must be byte-identical across a user's requests"
            );
            assert_ne!(
                &r.tokens[prefix_len..],
                &user0[0].tokens[prefix_len..],
                "post suffixes must differ"
            );
        }
    }

    #[test]
    fn each_user_holds_one_shared_profile() {
        let ds = Dataset::post_recommendation(&PostRecommendationSpec::default(), &mut rng());
        assert_one_shared_prefix_per_group(ds.requests(), |r| r.user_id);
    }

    #[test]
    fn different_users_do_not_share_prefixes() {
        let ds = Dataset::post_recommendation(&PostRecommendationSpec::default(), &mut rng());
        let a = &ds.requests()[0];
        let b = ds.requests().iter().find(|r| r.user_id == 1).unwrap();
        assert_ne!(a.tokens[..64], b.tokens[..64]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Dataset::generate(WorkloadKind::PostRecommendation, &mut rng());
        let b = Dataset::generate(WorkloadKind::PostRecommendation, &mut rng());
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.requests()[7].tokens, b.requests()[7].tokens);
        let c = Dataset::generate(
            WorkloadKind::PostRecommendation,
            &mut SimRng::seed_from_u64(999),
        );
        assert_ne!(a.summary(), c.summary());
    }

    #[test]
    fn shared_prefix_fleet_shares_prefixes_across_a_cohort_but_not_between_cohorts() {
        let spec = SharedPrefixFleetSpec {
            num_cohorts: 2,
            users_per_cohort: 3,
            prefix_tokens: 320,
            suffix_tokens: 32,
            requests_per_user: 2,
        };
        let ds = Dataset::shared_prefix_fleet(&spec);
        assert_eq!(ds.kind(), WorkloadKind::SharedPrefixFleet);
        assert_eq!(ds.len(), 2 * 3 * 2);
        let summary = ds.summary();
        assert_eq!(summary.num_users, 6);
        assert_eq!(summary.min_request_tokens, 352);
        assert_eq!(summary.max_request_tokens, 352);

        let prefix_of = |user: u64| {
            let r = ds.requests().iter().find(|r| r.user_id == user).unwrap();
            assert_eq!(r.shared_prefix_tokens, 320);
            r.tokens[..320].to_vec()
        };
        // Cohort 0 = users 0-2, cohort 1 = users 3-5: identical within, distinct
        // between.
        assert_eq!(prefix_of(0), prefix_of(2));
        assert_eq!(prefix_of(3), prefix_of(5));
        assert_ne!(prefix_of(0), prefix_of(3));
        // Suffixes are private per (user, request).
        let user0: Vec<_> = ds.requests().iter().filter(|r| r.user_id == 0).collect();
        assert_ne!(user0[0].tokens[320..], user0[1].tokens[320..]);
        // Deterministic: the spec alone defines the dataset.
        let again = Dataset::shared_prefix_fleet(&spec);
        assert_eq!(ds.requests()[5].tokens, again.requests()[5].tokens);
        // One shared prefix per cohort, held by every request of the cohort.
        assert_one_shared_prefix_per_group(ds.requests(), |r| r.user_id / 3);
    }

    #[test]
    fn conversation_turns_extend_the_full_prior_sequence_including_replies() {
        let spec = ConversationSpec {
            num_sessions: 3,
            turns_per_session: 3,
            system_prompt_tokens: 64,
            first_turn_input_tokens: 128,
            turn_input_tokens: 32,
            decode_tokens_per_turn: 16,
            think_time_ms: 1_000,
        };
        let ds = Dataset::conversation(&spec);
        assert_eq!(ds.kind(), WorkloadKind::Conversation);
        assert_eq!(ds.len(), 9);
        assert_eq!(ds.max_request_tokens(), spec.max_request_tokens());

        let session0: Vec<&RequestTemplate> =
            ds.requests().iter().filter(|r| r.user_id == 0).collect();
        assert_eq!(session0.len(), 3);
        for (turn, r) in session0.iter().enumerate() {
            assert_eq!(r.decode_tokens, 16);
            assert_eq!(r.num_tokens(), spec.turn_total_tokens(turn as u64));
            assert_eq!(r.prompt_tokens(), r.num_tokens() - 16);
        }
        // Turn t's prompt is exactly turn t-1's full sequence (prompt + reply)
        // plus the new input: the decoded reply is re-hit by the next turn.
        for turn in 1..3 {
            let prev = &session0[turn - 1];
            let cur = &session0[turn];
            assert_eq!(
                &cur.tokens[..prev.tokens.len()],
                &prev.tokens[..],
                "turn {turn} must extend the previous turn's sequence verbatim"
            );
        }
        // Sessions share the system prompt but nothing else.
        let session1 = ds.requests().iter().find(|r| r.user_id == 1).unwrap();
        assert_eq!(session0[0].tokens[..64], session1.tokens[..64]);
        assert_ne!(session0[0].tokens[64..128], session1.tokens[64..128]);
        // Deterministic: the spec alone defines the dataset.
        let again = Dataset::conversation(&spec);
        assert_eq!(ds.requests()[5], again.requests()[5]);
    }

    #[test]
    fn kind_round_trips() {
        let ds = Dataset::generate(WorkloadKind::CreditVerification, &mut rng());
        assert_eq!(ds.kind(), WorkloadKind::CreditVerification);
        assert!(!ds.is_empty());
        assert_eq!(ds.len(), 60);
    }
}
