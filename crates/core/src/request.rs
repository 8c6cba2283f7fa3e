//! Request and response types of the prefill-only serving API.
//!
//! The real PrefillOnly exposes an OpenAI-compatible HTTP endpoint; the reproduction
//! exposes the same information as plain structs.  A prefill-only request carries its
//! prompt tokens plus the list of *acceptable* output tokens (§2.3: "pass a list of
//! acceptable tokens to the LLM engine so that the LLM engine only samples output from
//! this list"), and the response carries one probability per acceptable token.

use kvcache::TokenSeq;
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

use crate::routing::RoutingReason;

/// A prefill-only inference request.
#[derive(Debug, Clone)]
pub struct PrefillRequest {
    /// Engine-wide unique request id.
    pub id: u64,
    /// The user (or tenant) this request belongs to; drives user-id routing.
    pub user_id: u64,
    /// Full token sequence: the prompt followed by the `decode_tokens` trailing
    /// tokens the engine produces one iteration at a time (trace-replay style —
    /// the reply content is part of the trace, the engine models *when* each
    /// token appears, not *which*).  [`TokenSeq::block_hashes`] hashes it,
    /// reusing the memoised chain of the shared prefix it was built from.
    pub tokens: TokenSeq,
    /// Of `tokens`, how many are decoded iteratively rather than prefilled.
    /// 0 means a pure prefill-only request, which behaves exactly as before the
    /// decode stage existed.
    pub decode_tokens: u64,
    /// The acceptable single-token outputs (e.g. `["Yes", "No"]`).
    pub allowed_outputs: Vec<String>,
    /// When the request entered the system.
    pub arrival: SimTime,
    /// Why the routing layer placed the request on its instance
    /// ([`RoutingReason::Direct`] when no policy was involved).
    pub routing: RoutingReason,
}

impl PrefillRequest {
    /// Total number of tokens the request pins in KV once complete: the prompt
    /// plus the decoded reply.
    pub fn num_tokens(&self) -> u64 {
        self.tokens.len() as u64
    }

    /// Number of prompt tokens (everything that is prefilled in one pass).
    pub fn prompt_tokens(&self) -> u64 {
        self.num_tokens() - self.decode_tokens
    }
}

/// Probability assigned to one acceptable output token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenScore {
    /// The output token text.
    pub token: String,
    /// Its probability among the acceptable tokens (the scores of a response sum to 1).
    pub probability: f64,
}

/// The engine's answer to a prefill-only request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefillResponse {
    /// Id of the request this answers.
    pub request_id: u64,
    /// One probability per acceptable output token, in the order they were supplied.
    pub scores: Vec<TokenScore>,
    /// End-to-end latency (queueing + execution) in virtual time.
    pub latency: SimDuration,
    /// Prompt tokens that were served from the prefix cache.
    pub cached_tokens: u64,
}

impl PrefillResponse {
    /// The highest-probability output token.
    pub fn top_token(&self) -> Option<&TokenScore> {
        self.scores.iter().max_by(|a, b| {
            a.probability
                .partial_cmp(&b.probability)
                .expect("probabilities are never NaN")
        })
    }
}

/// Deterministic pseudo-probabilities over the acceptable tokens.
///
/// The analytical GPU never computes real logits, so the reproduction derives a stable
/// pseudo-score from the prompt content: the same prompt always yields the same
/// distribution, different prompts yield different ones.  This keeps the end-to-end API
/// shape of the paper's system (a recommendation score per candidate document) without
/// pretending to model quality.
pub fn pseudo_scores(tokens: &[u32], allowed_outputs: &[String]) -> Vec<TokenScore> {
    if allowed_outputs.is_empty() {
        return Vec::new();
    }
    // FNV-1a over the prompt, decorrelated per output index.
    let mut weights = Vec::with_capacity(allowed_outputs.len());
    for (idx, output) in allowed_outputs.iter().enumerate() {
        let mut state = 0xcbf29ce484222325u64 ^ (idx as u64).wrapping_mul(0x9e3779b97f4a7c15);
        for &t in tokens {
            state ^= u64::from(t);
            state = state.wrapping_mul(0x100000001b3);
        }
        for b in output.as_bytes() {
            state ^= u64::from(*b);
            state = state.wrapping_mul(0x100000001b3);
        }
        // Map to (0, 1) and soften so no option ever gets probability ~0.
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        weights.push(0.05 + unit);
    }
    let total: f64 = weights.iter().sum();
    allowed_outputs
        .iter()
        .zip(weights)
        .map(|(token, w)| TokenScore {
            token: token.clone(),
            probability: w / total,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_form_a_distribution() {
        let tokens: Vec<u32> = (0..1000).collect();
        let scores = pseudo_scores(&tokens, &["Yes".into(), "No".into()]);
        assert_eq!(scores.len(), 2);
        let sum: f64 = scores.iter().map(|s| s.probability).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(scores.iter().all(|s| s.probability > 0.0));
    }

    #[test]
    fn scores_are_deterministic_and_content_sensitive() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (1..101).collect();
        let outputs = vec!["Yes".to_string(), "No".to_string()];
        assert_eq!(pseudo_scores(&a, &outputs), pseudo_scores(&a, &outputs));
        assert_ne!(pseudo_scores(&a, &outputs), pseudo_scores(&b, &outputs));
    }

    #[test]
    fn empty_outputs_yield_empty_scores() {
        assert!(pseudo_scores(&[1, 2, 3], &[]).is_empty());
    }

    #[test]
    fn top_token_picks_the_argmax() {
        let response = PrefillResponse {
            request_id: 1,
            scores: vec![
                TokenScore {
                    token: "Yes".into(),
                    probability: 0.3,
                },
                TokenScore {
                    token: "No".into(),
                    probability: 0.7,
                },
            ],
            latency: SimDuration::from_millis(10),
            cached_tokens: 0,
        };
        assert_eq!(response.top_token().unwrap().token, "No");
    }

    #[test]
    fn request_token_count() {
        let req = PrefillRequest {
            id: 1,
            user_id: 2,
            tokens: vec![1, 2, 3].into(),
            decode_tokens: 0,
            allowed_outputs: vec!["Yes".into()],
            arrival: SimTime::ZERO,
            routing: RoutingReason::Direct,
        };
        assert_eq!(req.num_tokens(), 3);
        assert_eq!(req.prompt_tokens(), 3);
        let decode = PrefillRequest {
            decode_tokens: 2,
            ..req
        };
        assert_eq!(decode.num_tokens(), 3);
        assert_eq!(decode.prompt_tokens(), 1);
    }
}
