//! Collision audit of the block-hash chain over the simulator's own workload
//! families: post-recommendation (long per-user profiles shared by each user's
//! posts), a shared-prefix fleet (cohort prefixes with private suffixes) and
//! multi-turn conversations (each turn extends its session's history).
//!
//! Every chain hash must name exactly one (parent hash, block tokens) pair.  By
//! induction along the chain, each hash then names exactly one token prefix, which
//! is what prefix caching keys its blocks by: a collision would let one request's
//! cached KV stand in for another's.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use kvcache::{hash_token_blocks, TokenBlockHash};
use simcore::SimRng;
use workload::{ConversationSpec, Dataset, PostRecommendationSpec, SharedPrefixFleetSpec};

/// The engine's default KV block size.
const BLOCK_SIZE: usize = 16;

#[test]
fn no_chain_hash_names_two_different_blocks() {
    let datasets = [
        Dataset::post_recommendation(
            &PostRecommendationSpec {
                num_users: 20,
                posts_per_user: 5,
                ..PostRecommendationSpec::default()
            },
            &mut SimRng::seed_from_u64(7),
        ),
        Dataset::shared_prefix_fleet(&SharedPrefixFleetSpec {
            num_cohorts: 128,
            users_per_cohort: 8,
            prefix_tokens: 512,
            suffix_tokens: 128,
            requests_per_user: 3,
        }),
        Dataset::conversation(&ConversationSpec {
            num_sessions: 128,
            turns_per_session: 8,
            ..ConversationSpec::default()
        }),
    ];

    let mut owners: HashMap<TokenBlockHash, (Option<TokenBlockHash>, &[u32])> = HashMap::new();
    let mut blocks = 0usize;
    for request in datasets.iter().flat_map(Dataset::requests) {
        let tokens = &request.tokens[..];
        let mut parent = None;
        for (hash, block) in hash_token_blocks(tokens, BLOCK_SIZE)
            .into_iter()
            .zip(tokens.chunks_exact(BLOCK_SIZE))
        {
            match owners.entry(hash) {
                Entry::Occupied(owner) => assert!(
                    *owner.get() == (parent, block),
                    "{hash:?} names two different (parent, block) pairs"
                ),
                Entry::Vacant(slot) => {
                    slot.insert((parent, block));
                }
            }
            parent = Some(hash);
            blocks += 1;
        }
    }
    // Shared prefixes hash to the same chains again and again; without that the
    // audit would only have compared distinct blocks.
    assert!(
        owners.len() * 3 < blocks,
        "{} distinct hashes over {blocks} blocks",
        owners.len()
    );
}
