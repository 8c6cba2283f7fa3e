//! Synchronous single-instance client facade.
//!
//! The real PrefillOnly exposes an OpenAI-compatible HTTP server; applications send a
//! prompt plus a list of acceptable output tokens and read back one probability per
//! token (§2.3).  [`PrefillOnlyClient`] provides that interaction pattern in-process:
//! each call submits one prefill-only request to a private engine instance, advances
//! the instance's virtual clock through execution, and returns the scores together with
//! the simulated latency.  It is what the runnable examples build on.

use simcore::SimTime;

use crate::config::{ConfigError, EngineConfig};
use crate::instance::EngineInstance;
use crate::request::{pseudo_scores, PrefillRequest, PrefillResponse};

/// A blocking, single-tenant client over one engine instance.
pub struct PrefillOnlyClient {
    instance: EngineInstance,
    clock: SimTime,
    next_request_id: u64,
}

impl PrefillOnlyClient {
    /// Creates a client backed by a freshly profiled engine instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EngineConfig::validate`]; use
    /// [`Self::try_new`] to handle invalid configurations as values.
    pub fn new(config: &EngineConfig) -> PrefillOnlyClient {
        PrefillOnlyClient::try_new(config).expect("invalid engine configuration")
    }

    /// Creates a client backed by a freshly profiled engine instance, surfacing
    /// configuration problems (e.g. a zero block size) as a typed [`ConfigError`]
    /// instead of a panic.
    pub fn try_new(config: &EngineConfig) -> Result<PrefillOnlyClient, ConfigError> {
        Ok(PrefillOnlyClient {
            instance: EngineInstance::try_new(config, 0)?,
            clock: SimTime::ZERO,
            next_request_id: 0,
        })
    }

    /// The engine instance behind the client (for inspecting cache statistics etc.).
    pub fn instance(&self) -> &EngineInstance {
        &self.instance
    }

    /// Current virtual time of the client.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Scores a prompt against a list of acceptable output tokens, as a user of the
    /// paper's system would ("Should we recommend this document?  Answer Yes or No").
    ///
    /// Returns `None` if the prompt is longer than the engine's maximum input length.
    pub fn try_score(
        &mut self,
        tokens: &[u32],
        allowed_outputs: &[&str],
    ) -> Option<PrefillResponse> {
        if !self.instance.can_serve(tokens.len() as u64) {
            return None;
        }
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let arrival = self.clock;
        let request = PrefillRequest {
            id: request_id,
            user_id: 0,
            tokens: tokens.to_vec().into(),
            decode_tokens: 0,
            allowed_outputs: allowed_outputs.iter().map(|s| s.to_string()).collect(),
            arrival,
            routing: crate::routing::RoutingReason::Direct,
        };
        self.instance.enqueue(request, arrival);
        let started = self
            .instance
            .try_start(arrival)
            .expect("an idle instance must admit a feasible request");
        let record = self
            .instance
            .complete(started.request_id, started.completion)
            .expect("a colocated prefill-only completion always yields a record");
        self.clock = started.completion;
        Some(PrefillResponse {
            request_id,
            scores: pseudo_scores(
                tokens,
                &allowed_outputs
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>(),
            ),
            latency: record.latency(),
            cached_tokens: record.cached_tokens,
        })
    }

    /// Like [`Self::try_score`] but panics on oversized prompts.
    ///
    /// # Panics
    ///
    /// Panics if the prompt exceeds the engine's maximum input length.
    pub fn score(&mut self, tokens: &[u32], allowed_outputs: &[&str]) -> PrefillResponse {
        self.try_score(tokens, allowed_outputs)
            .expect("prompt exceeds the engine's maximum input length")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, EngineKind};
    use gpu::HardwareSetup;
    use model::ModelPreset;

    fn client() -> PrefillOnlyClient {
        PrefillOnlyClient::new(&EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            30_000,
        ))
    }

    #[test]
    fn scoring_returns_a_distribution_and_latency() {
        let mut c = client();
        let prompt: Vec<u32> = (0..5_000).collect();
        let response = c.score(&prompt, &["Yes", "No"]);
        assert_eq!(response.scores.len(), 2);
        let sum: f64 = response.scores.iter().map(|s| s.probability).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(response.latency.as_secs_f64() > 0.0);
        assert_eq!(response.cached_tokens, 0);
        assert!(c.now() > SimTime::ZERO);
    }

    #[test]
    fn repeated_prefix_is_served_from_cache_and_faster() {
        let mut c = client();
        let profile: Vec<u32> = (0..10_000).collect();
        let mut first = profile.clone();
        first.extend(900_000..900_150u32);
        let mut second = profile.clone();
        second.extend(800_000..800_150u32);
        let cold = c.score(&first, &["Yes", "No"]);
        let warm = c.score(&second, &["Yes", "No"]);
        assert!(warm.cached_tokens > 9_000);
        assert!(warm.latency < cold.latency);
    }

    #[test]
    fn oversized_prompt_is_rejected_gracefully() {
        let mut c = client();
        let mil = c.instance().max_input_length();
        let prompt: Vec<u32> = (0..(mil + 10_000) as u32).collect();
        assert!(c.try_score(&prompt, &["Yes"]).is_none());
    }

    #[test]
    fn try_new_rejects_a_zero_block_size() {
        let mut config = EngineConfig::new(
            ModelPreset::Llama31_8b,
            HardwareSetup::l4_pair(),
            EngineKind::prefillonly_default(),
            30_000,
        );
        config.block_size = 0;
        assert_eq!(
            PrefillOnlyClient::try_new(&config).err(),
            Some(ConfigError::ZeroBlockSize)
        );
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let mut c = client();
        let prompt: Vec<u32> = (0..1_000).collect();
        let a = c.score(&prompt, &["Yes", "No"]);
        let b = c.score(&prompt, &["Yes", "No"]);
        assert!(b.request_id > a.request_id);
    }
}
