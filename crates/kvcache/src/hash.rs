//! Rolling content hashes over token blocks.
//!
//! Prefix caching identifies reusable KV blocks by the *content* of the token prefix
//! they cover: block `i` of a request is interchangeable with block `i` of another
//! request iff both requests agree on every token up to and including that block.
//! The standard trick (used by vLLM) is a rolling hash: each block's key combines the
//! previous block's key with the tokens inside the block.
//!
//! [`hash_token_blocks`] computes that chain in two steps per block:
//!
//! 1. **Block digest.**  The block's tokens are packed two to a 64-bit word (the
//!    earlier token in the low half, i.e. little-endian order), and consecutive words
//!    go round-robin to [`LANES`] independent multiply–xorshift lanes.  The lanes do
//!    not wait on each other, so their multiplies pipeline instead of forming one
//!    dependency chain through every token.  A block whose size is not a multiple of
//!    the lane width feeds its leftover words (the last one possibly holding a single
//!    token) to the first lanes.  The lanes are then folded into one digest, each
//!    weighted by its own odd multiplier so equal changes in two lanes never cancel.
//! 2. **Chain step.**  The block's hash is a bijective mix of the previous block's
//!    hash XOR the digest.  For a fixed block it is a bijection of the previous hash,
//!    so two chains whose hashes differ before a block never merge on an identical
//!    block, and block `i` depends only on hash `i − 1` and block `i`'s tokens.
//!
//! Every lane round, the fold (with any one lane varying) and the chain step are
//! bijective, so changing a single 64-bit word of a block always changes its hash
//! and every hash after it.  The function is integer arithmetic only (no floats, no
//! byte reinterpretation), so every platform produces the same values; a change to
//! it moves every cached block's hash and with it the CPU and network tiers'
//! `(last_used, hash)` LRU tie-breaks, which the golden-value test pins.
//!
//! Because block `i` depends only on hash `i − 1` and its own tokens, a chain can
//! be continued: [`extend_token_blocks`] appends the hashes of further tokens to a
//! chain computed earlier.  A [`TokenSeq`] built from a [`SharedPrefix`] uses that
//! to hash the prefix once, however many requests start with it, and only its own
//! suffix per request.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

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

/// A map keyed by request ids, hashed with [`BlockHasher`] for the same reason as
/// the crate's block-hash maps: a simulator keys it by its own ids, so SipHash's
/// resistance to crafted keys buys nothing.  Iterating it visits entries in an order that
/// depends on the keys, so a caller whose output must not depend on that order
/// folds over it order-independently (a count or a sum).
pub type RequestMap<V> = HashMap<u64, V, BuildHasherDefault<BlockHasher>>;

/// The hasher of the crate's block-hash maps and of [`RequestMap`]: one
/// 64×64→128-bit multiply by an odd constant, folded by XOR-ing the two halves of
/// the product.
///
/// Not the identity, although a chain hash is already well mixed: the map must not
/// depend on its keys being chain hashes.  A synthetic key such as
/// `TokenBlockHash(i)` or a sequential request id has empty top bits, which the
/// table keeps as tags, and sequential low bits; the high half of the product
/// depends on every key bit, so the fold spreads all of them over both ends of the
/// word.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

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

/// Independent mixing lanes of a block digest.
const LANES: usize = 4;

/// Tokens one round of the lanes consumes: one 64-bit word (two tokens) per lane.
const ROUND_TOKENS: usize = 2 * LANES;

/// Starting state of each lane (hexadecimal digits of π), distinct so equal words
/// mix differently in different lanes.
const LANE_SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Odd multiplier of a lane round.
const LANE_MULTIPLIER: u64 = 0x9e37_79b1_85eb_ca87;

/// Odd weight of each lane in the digest fold.
const LANE_WEIGHTS: [u64; LANES] = [
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
    0x27d4_eb2f_1656_67c5,
];

/// Chain state before the first block.
const CHAIN_SEED: u64 = 0x4528_21e6_38d0_1377;

/// One lane round: XOR the word in, multiply, fold the high half down.  Bijective in
/// `lane ^ word`.
fn lane_round(lane: u64, word: u64) -> u64 {
    let mixed = (lane ^ word).wrapping_mul(LANE_MULTIPLIER);
    mixed ^ (mixed >> 32)
}

/// Two tokens as one word, `low` in the low half.
fn word(low: u32, high: u32) -> u64 {
    u64::from(low) | u64::from(high) << 32
}

/// The digest of one block's tokens, independent of the block's position.
fn block_digest(block: &[u32]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (rounds, tail) = block.as_chunks::<ROUND_TOKENS>();
    for round in rounds {
        for (lane, pair) in lanes.iter_mut().zip(round.as_chunks::<2>().0) {
            *lane = lane_round(*lane, word(pair[0], pair[1]));
        }
    }
    for (lane, pair) in lanes.iter_mut().zip(tail.chunks(2)) {
        *lane = lane_round(*lane, word(pair[0], pair.get(1).copied().unwrap_or(0)));
    }
    lanes
        .iter()
        .zip(LANE_WEIGHTS)
        .fold(0, |digest, (&lane, weight)| {
            digest.wrapping_add(lane.wrapping_mul(weight))
        })
}

/// The hash of a block from its predecessor's hash and its own digest: the
/// SplitMix64 finaliser of their XOR, a bijection of each argument.
fn chain_step(previous: u64, digest: u64) -> u64 {
    let mut state = previous ^ digest;
    state = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    state ^ (state >> 31)
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
    let mut chain = Vec::new();
    extend_token_blocks(&mut chain, tokens, block_size);
    chain
}

/// Continues the hash chain `chain` over the *full* blocks of `tokens`.
///
/// `chain` holds the hashes of the blocks that precede `tokens` in the sequence
/// (empty at its start).  So for every `k` up to the number of full blocks in
/// `tokens`, continuing `hash_token_blocks(&tokens[..k * block_size], block_size)`
/// over `&tokens[k * block_size..]` yields `hash_token_blocks(tokens, block_size)`.
/// As there, a trailing partial block is not hashed.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn extend_token_blocks(chain: &mut Vec<TokenBlockHash>, tokens: &[u32], block_size: usize) {
    assert!(block_size > 0, "block size must be positive");
    let mut state = chain.last().map_or(CHAIN_SEED, |hash| hash.0);
    chain.extend(tokens.chunks_exact(block_size).map(|block| {
        state = chain_step(state, block_digest(block));
        TokenBlockHash(state)
    }));
}

/// A token prefix that many sequences start with (a user's profile ahead of each
/// of their posts, a cohort's system prompt), with its block-hash chain memoised.
///
/// The memo holds the chain for one block size: the one of the first
/// [`TokenSeq::block_hashes`] call that needs it.  A call with another block size
/// hashes the prefix again and does not store the result.  Concurrent first calls
/// are safe: one computes the chain while the others wait, and the value does not
/// depend on which one does.
#[derive(Debug)]
pub struct SharedPrefix {
    tokens: Vec<u32>,
    chain: OnceLock<(usize, Vec<TokenBlockHash>)>,
}

impl SharedPrefix {
    /// A prefix of exactly `tokens`, its chain not yet computed.
    pub fn new(tokens: Vec<u32>) -> Arc<SharedPrefix> {
        Arc::new(SharedPrefix {
            tokens,
            chain: OnceLock::new(),
        })
    }

    /// Number of tokens in the prefix.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the prefix has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The prefix's chain at `block_size`, computed on first use; `None` if the
    /// memo holds another block size.
    fn memoised_chain(&self, block_size: usize) -> Option<&[TokenBlockHash]> {
        let (size, chain) = self
            .chain
            .get_or_init(|| (block_size, hash_token_blocks(&self.tokens, block_size)));
        (*size == block_size).then_some(chain.as_slice())
    }
}

/// A request's token sequence: its tokens, contiguous and shared by reference,
/// plus the [`SharedPrefix`] it was built from, if any.
///
/// The sequence dereferences to its tokens.  Two sequences are equal when their
/// tokens are; the prefix only saves work.  [`Self::extending`] copies the prefix's
/// own tokens, so a sequence that holds a prefix starts with exactly its tokens,
/// and [`Self::block_hashes`] can take the prefix's memoised chain without looking
/// at them:
///
/// ```
/// use kvcache::{hash_token_blocks, SharedPrefix, TokenSeq};
///
/// let profile = SharedPrefix::new((0..100).collect());
/// let post = TokenSeq::extending(&profile, &[7; 40]);
/// assert_eq!(post.len(), 140);
/// // Hashes the profile's 6 full blocks and memoises them, then continues over
/// // the post; a second post of the same profile hashes only its own tokens.
/// assert_eq!(post.block_hashes(16), hash_token_blocks(&post, 16));
/// let other = TokenSeq::extending(&profile, &[9; 40]);
/// assert_eq!(other.block_hashes(16), hash_token_blocks(&other, 16));
/// // A sequence without a prefix hashes all of its tokens.
/// let plain = TokenSeq::from(post.to_vec());
/// assert_eq!(plain.block_hashes(16), post.block_hashes(16));
/// ```
#[derive(Clone)]
pub struct TokenSeq {
    tokens: Arc<Vec<u32>>,
    prefix: Option<Arc<SharedPrefix>>,
}

impl TokenSeq {
    /// The tokens of `prefix` followed by `suffix`, in one allocation of exactly
    /// their length.
    pub fn extending(prefix: &Arc<SharedPrefix>, suffix: &[u32]) -> TokenSeq {
        let mut tokens = Vec::with_capacity(prefix.tokens.len() + suffix.len());
        tokens.extend_from_slice(&prefix.tokens);
        tokens.extend_from_slice(suffix);
        TokenSeq {
            tokens: Arc::new(tokens),
            prefix: Some(Arc::clone(prefix)),
        }
    }

    /// The prefix the sequence was built from, if any.
    pub fn shared_prefix(&self) -> Option<&Arc<SharedPrefix>> {
        self.prefix.as_ref()
    }

    /// The sequence's block-hash chain, equal to
    /// `hash_token_blocks(&self, block_size)`: the prefix's memoised chain (see
    /// [`SharedPrefix`]) continued over the rest by [`extend_token_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn block_hashes(&self, block_size: usize) -> Vec<TokenBlockHash> {
        assert!(block_size > 0, "block size must be positive");
        let mut chain = Vec::with_capacity(self.tokens.len() / block_size);
        if let Some(prefix_chain) = self
            .prefix
            .as_deref()
            .and_then(|prefix| prefix.memoised_chain(block_size))
        {
            chain.extend_from_slice(prefix_chain);
        }
        let hashed = chain.len() * block_size;
        extend_token_blocks(&mut chain, &self.tokens[hashed..], block_size);
        chain
    }
}

impl From<Vec<u32>> for TokenSeq {
    /// A sequence of `tokens` with no shared prefix.
    fn from(tokens: Vec<u32>) -> TokenSeq {
        TokenSeq {
            tokens: Arc::new(tokens),
            prefix: None,
        }
    }
}

impl Deref for TokenSeq {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.tokens
    }
}

impl PartialEq for TokenSeq {
    fn eq(&self, other: &TokenSeq) -> bool {
        self.tokens == other.tokens
    }
}

impl Eq for TokenSeq {}

impl fmt::Debug for TokenSeq {
    /// The tokens, as a slice prints them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
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
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics_when_extending_a_chain() {
        extend_token_blocks(&mut vec![TokenBlockHash(1)], &[1, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics_on_a_shared_sequence() {
        TokenSeq::extending(&SharedPrefix::new(vec![1, 2]), &[3]).block_hashes(0);
    }

    fn random_tokens(rng: &mut simcore::SimRng, len: usize) -> Vec<u32> {
        (0..len).map(|_| rng.gen_range(0u32..1_000_000)).collect()
    }

    const MEMO_BLOCK_SIZES: [usize; 4] = [1, 3, 16, 17];

    /// Model check of the memo against the primitive: over prefix lengths of 0,
    /// below one block, and multiples and non-multiples of the block size, and
    /// suffixes from empty to several blocks, a shared sequence's chain equals
    /// `hash_token_blocks` over its tokens on a cold memo, on a warm one, and
    /// after the memo was filled at another block size (which must keep serving
    /// its own size).
    #[test]
    fn shared_prefix_chains_equal_the_primitive_at_every_memo_state() {
        let mut checked = 0;
        for seed in 0..16u64 {
            let mut rng = simcore::SimRng::seed_from_u64(seed);
            for block_size in MEMO_BLOCK_SIZES {
                let prefix_lens = [
                    0,
                    block_size - 1,
                    block_size,
                    2 * block_size + 1,
                    5 * block_size,
                    rng.gen_range(0..10 * block_size + 1),
                ];
                let suffix_lens = [0, 1, block_size, rng.gen_range(0..4 * block_size + 1)];
                for prefix_len in prefix_lens {
                    let prefix_tokens = random_tokens(&mut rng, prefix_len);
                    let suffixes: Vec<Vec<u32>> = suffix_lens
                        .iter()
                        .map(|&len| random_tokens(&mut rng, len))
                        .collect();
                    let expect = |seq: &TokenSeq, size| {
                        assert_eq!(
                            seq.block_hashes(size),
                            hash_token_blocks(seq, size),
                            "seed {seed}, block size {size}, prefix {prefix_len}, \
                             sequence {}",
                            seq.len()
                        );
                    };

                    // Cold, then warm: every sibling at the memo's own size.
                    let prefix = SharedPrefix::new(prefix_tokens.clone());
                    for suffix in &suffixes {
                        let seq = TokenSeq::extending(&prefix, suffix);
                        assert_eq!(seq[..prefix_len], prefix_tokens[..]);
                        expect(&seq, block_size);
                        expect(&seq, block_size);
                        checked += 2;
                    }
                    // Filled at another size first: both sizes stay exact.
                    for other in MEMO_BLOCK_SIZES.into_iter().filter(|&b| b != block_size) {
                        let prefix = SharedPrefix::new(prefix_tokens.clone());
                        let first = TokenSeq::extending(&prefix, &suffixes[0]);
                        expect(&first, other);
                        for suffix in &suffixes {
                            let seq = TokenSeq::extending(&prefix, suffix);
                            expect(&seq, block_size);
                            expect(&seq, other);
                            checked += 2;
                        }
                    }
                }
            }
        }
        assert!(checked > 10_000, "checked {checked} chains");
    }

    /// Continuing a chain from any of its block boundaries, and from any token
    /// offset before the next one, reproduces the chain of the whole sequence.
    #[test]
    fn a_chain_continued_from_every_split_point_equals_the_whole_chain() {
        for seed in 0..8u64 {
            let mut rng = simcore::SimRng::seed_from_u64(100 + seed);
            for block_size in MEMO_BLOCK_SIZES {
                let len = rng.gen_range(0..8 * block_size + block_size);
                let tokens = random_tokens(&mut rng, len);
                let whole = hash_token_blocks(&tokens, block_size);
                for split in 0..=whole.len() {
                    let mut chain = whole[..split].to_vec();
                    extend_token_blocks(&mut chain, &tokens[split * block_size..], block_size);
                    assert_eq!(
                        chain, whole,
                        "seed {seed}, block size {block_size}, split at block {split}"
                    );
                }
            }
        }
    }

    /// Eight threads hash distinct siblings of one cold prefix at once: whichever
    /// thread fills the memo, every chain equals the primitive's.
    #[test]
    fn racing_first_uses_of_a_prefix_all_get_exact_chains() {
        let prefix = SharedPrefix::new((0..4_003).collect());
        let siblings: Vec<TokenSeq> = (0..8u32)
            .map(|sibling| {
                let suffix: Vec<u32> = (0..150).map(|i| 1_000_000 * (sibling + 1) + i).collect();
                TokenSeq::extending(&prefix, &suffix)
            })
            .collect();
        let barrier = std::sync::Barrier::new(siblings.len());
        std::thread::scope(|scope| {
            for seq in &siblings {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    assert_eq!(seq.block_hashes(16), hash_token_blocks(seq, 16));
                });
            }
        });
        assert_eq!(
            prefix.memoised_chain(16),
            Some(&hash_token_blocks(&prefix.tokens, 16)[..])
        );
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

    /// Every cached block is keyed by these values and every LRU tie breaks on
    /// them, so a change to the function moves simulated records: it must be
    /// deliberate, and update these values with it.
    #[test]
    fn golden_values_pin_the_function() {
        let tokens: Vec<u32> = (0..35u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let values = |tokens: &[u32], block_size| -> Vec<u64> {
            hash_token_blocks(tokens, block_size)
                .iter()
                .map(|hash| hash.0)
                .collect()
        };
        assert_eq!(
            values(&tokens, 16),
            [0x2688_df29_fa5e_ec65, 0xa014_37ef_197b_705c]
        );
        assert_eq!(
            values(&tokens[..10], 3),
            [
                0xcd8b_01ac_70dd_174a,
                0x5f5e_680d_e217_f225,
                0xffc9_a94f_9ad9_ea2a
            ]
        );
    }

    /// Single-token XOR edits (low, middle, top and all bits) and swaps of tokens
    /// up to two lane rounds apart (within a word, across lanes, and into the same
    /// lane a round later), at block sizes that do and do not fill whole rounds.
    /// Each edit keeps the hashes before its block and gives a hash never seen
    /// before to its block and every block after it.
    #[test]
    fn every_small_edit_moves_the_chain_from_its_block_on() {
        const MASKS: [u32; 4] = [1, 1 << 16, 1 << 31, u32::MAX];
        let mut hashes_checked = 0;
        for block_size in [1, 3, 4, 16, 17] {
            let blocks = (48 / block_size).max(3);
            let base: Vec<u32> = (0..(blocks * block_size) as u32)
                .map(|i| (i * 7_919 + 13) % 128_000)
                .collect();
            let base_hashes = hash_token_blocks(&base, block_size);
            let mut seen: std::collections::HashSet<TokenBlockHash> =
                base_hashes.iter().copied().collect();
            assert_eq!(seen.len(), blocks);
            let mut check = |first_edited: usize, tokens: &[u32]| {
                let hashes = hash_token_blocks(tokens, block_size);
                let block = first_edited / block_size;
                assert_eq!(
                    hashes[..block],
                    base_hashes[..block],
                    "block size {block_size}, edit at token {first_edited}: earlier block moved"
                );
                for (index, hash) in hashes.iter().enumerate().skip(block) {
                    assert!(
                        seen.insert(*hash),
                        "block size {block_size}, edit at token {first_edited}: \
                         block {index} repeats a hash"
                    );
                    hashes_checked += 1;
                }
            };
            for i in 0..base.len() {
                for mask in MASKS {
                    let mut tokens = base.clone();
                    tokens[i] ^= mask;
                    check(i, &tokens);
                }
                for j in i + 1..base.len().min(i + 2 * ROUND_TOKENS + 1) {
                    let mut tokens = base.clone();
                    tokens.swap(i, j);
                    check(i, &tokens);
                }
            }
        }
        assert!(hashes_checked > 40_000, "checked {hashes_checked} hashes");
    }
}
