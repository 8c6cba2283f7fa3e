//! Rolling content hashes over token blocks.
//!
//! Prefix caching identifies reusable KV blocks by the *content* of the token prefix
//! they cover: block `i` of a request is interchangeable with block `i` of another
//! request iff both requests agree on every token up to and including that block.
//! The standard trick (used by vLLM) is a rolling hash: each block's key combines the
//! previous block's key with the tokens inside the block.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Content hash identifying "this exact token prefix up to the end of this block".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TokenBlockHash(pub u64);

/// A map keyed by block hashes, hashed with [`BlockHasher`] instead of std's
/// SipHash-1-3: the key is already a hash, so keying it again only needs to spread
/// its bits, not to resist an adversary.  (It gives up SipHash's protection against
/// keys crafted to collide, which a simulator replaying its own traces does not
/// need.)
pub(crate) type BlockMap<V> = HashMap<TokenBlockHash, V, BuildHasherDefault<BlockHasher>>;

/// The hasher of [`BlockMap`]: one 64×64→128-bit multiply by an odd constant,
/// folded by XOR-ing the two halves of the product.
///
/// Not the identity: the table picks buckets by the *low* bits of the hash, and the
/// low bits of an FNV-1a state depend only on the low bits of each input byte, so
/// chains that differ only in high token bits would share buckets.  The high half of
/// the product depends on every key bit, so the fold spreads all of them into the
/// low bits (and into the top bits the table keeps as tags).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockHasher(u64);

/// Odd multiplier of [`BlockHasher`] (the 64-bit golden-ratio constant).
const FOLD_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for BlockHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(FOLD_MULTIPLIER);
        self.0 = (product >> 64) as u64 ^ product as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a_extend(mut state: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        state ^= u64::from(byte);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Computes the rolling hash chain over the *full* blocks of `tokens`.
///
/// The trailing partial block (fewer than `block_size` tokens) is not hashed: a partial
/// block can never be shared because a future request would need to append different
/// tokens into the same block.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn hash_token_blocks(tokens: &[u32], block_size: usize) -> Vec<TokenBlockHash> {
    assert!(block_size > 0, "block size must be positive");
    let full_blocks = tokens.len() / block_size;
    let mut hashes = Vec::with_capacity(full_blocks);
    let mut state = FNV_OFFSET;
    for block in 0..full_blocks {
        let start = block * block_size;
        for &token in &tokens[start..start + block_size] {
            state = fnv1a_extend(state, u64::from(token));
        }
        hashes.push(TokenBlockHash(state));
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_prefixes_share_hashes() {
        let a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        b.extend(1000..1032);
        let ha = hash_token_blocks(&a, 16);
        let hb = hash_token_blocks(&b, 16);
        assert_eq!(ha.len(), 4);
        assert_eq!(hb.len(), 6);
        assert_eq!(
            &ha[..],
            &hb[..4],
            "shared prefix must produce identical hashes"
        );
    }

    #[test]
    fn diverging_prefixes_diverge_forever() {
        let a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        b[20] = 9999;
        let ha = hash_token_blocks(&a, 16);
        let hb = hash_token_blocks(&b, 16);
        assert_eq!(ha[0], hb[0], "first block is identical");
        for i in 1..4 {
            assert_ne!(
                ha[i], hb[i],
                "blocks at and after the divergence must differ"
            );
        }
    }

    #[test]
    fn partial_blocks_are_not_hashed() {
        let tokens: Vec<u32> = (0..30).collect();
        assert_eq!(hash_token_blocks(&tokens, 16).len(), 1);
        assert_eq!(hash_token_blocks(&tokens[..15], 16).len(), 0);
        assert_eq!(hash_token_blocks(&[], 16).len(), 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        hash_token_blocks(&[1, 2, 3], 0);
    }

    #[test]
    fn block_hasher_spreads_high_key_bits_into_the_low_bits() {
        // Keys that differ only above bit 40 must still spread over the low bits the
        // table picks buckets by (an identity hasher would put all 256 in one).
        let low_bits = |key: u64| {
            let mut hasher = BlockHasher::default();
            std::hash::Hash::hash(&TokenBlockHash(key), &mut hasher);
            hasher.finish() & 0xffff
        };
        let buckets: std::collections::HashSet<u64> =
            (0..256u64).map(|i| low_bits(i << 40)).collect();
        assert!(
            buckets.len() > 250,
            "only {} distinct low halves",
            buckets.len()
        );
    }

    #[test]
    fn hash_depends_on_position() {
        // Same multiset of tokens, different order => different hashes.
        let a = vec![1u32, 2, 3, 4];
        let b = vec![4u32, 3, 2, 1];
        assert_ne!(hash_token_blocks(&a, 4), hash_token_blocks(&b, 4));
    }
}
