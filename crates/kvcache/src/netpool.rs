//! The cluster-shared network KV tier (third tier of the hierarchical cache).
//!
//! Every instance of a deployment serves the same model, so prefix KV computed on one
//! instance is byte-for-byte reusable on another — if it can be fetched over the
//! network.  [`NetKvPool`] is that tier: a capacity-bounded, deterministically
//! LRU-evicted map from block-content hashes to block-sized KV entries, fed by CPU-tier
//! evictions (gated by the single-use spill filter, see
//! [`KvCacheManager`](crate::KvCacheManager)) and read by any instance of the
//! deployment.
//!
//! # Sharing semantics (snapshot + deterministic merge)
//!
//! The pool is owned by the *cluster*, not by an instance.  At the start of a replay
//! window each instance receives a snapshot of the shared pool; during the window it
//! reads that snapshot (plus its own contributions) and records its spills locally; at
//! the end the per-instance snapshots are merged back into the shared pool in
//! instance-id order.  Cross-instance sharing therefore materialises at snapshot
//! boundaries — modelling the propagation delay of a real network tier, and (crucially)
//! keeping the parallel per-instance replay byte-identical to the sequential reference:
//! no mid-run cross-thread communication exists to race on.
//!
//! # Within-window propagation (publish timestamps)
//!
//! Every entry carries a *publish* timestamp: the virtual time at which the spill
//! becomes visible cluster-wide, `spill time + propagation delay`
//! ([`NetKvPool::with_propagation_delay`]).  A cluster configured with a finite
//! `net_propagation_ms` splits each replay window into propagation *epochs* and
//! installs per-instance views filtered to entries already published at epoch start —
//! so a spill surfaces on other instances at the first epoch boundary past its publish
//! time instead of waiting for the window's end.  Entries published after the window
//! started are additionally flagged, so reloads that were only possible because of
//! mid-window propagation can be accounted separately
//! ([`NetKvPool::reload_prefix_accounted`]).  With a zero delay (the default) the
//! timestamps are inert and sharing happens exactly at window boundaries, as before.
//!
//! # Delta views (append-only overlays, central eviction)
//!
//! Cloning the whole pool into every instance at every propagation epoch costs
//! O(pool × instances) per boundary, which dominated fleet-scale replays.  A
//! [`NetPoolView`] is the remedy: the shared pool keeps its state behind an `Arc`, a
//! view holds a reference to that state plus the epoch's visibility filter
//! (`visible_at`, owner) and a private, append-only *overlay* of entries the instance
//! touched or added during the epoch.  Reads consult the overlay first and fall back
//! to the (filtered) base; writes only ever land in the overlay.  A view never
//! evicts: however full the pool is, it reads exactly its visible base plus its own
//! overlay.
//!
//! Eviction happens in one place, as in a central KV store (LMCache- or
//! Mooncake-style): the barrier merge.  There [`NetPoolView::into_delta`]
//! surrenders each view's overlay and [`NetKvPool::absorb`] replays it into the
//! shared pool — views in slot order, each overlay oldest first — refreshing
//! resident entries and inserting new ones, which displace the pool's global
//! `(last_used, hash)` LRU once it is full.  A boundary therefore costs O(entries
//! touched) whether or not the pool is full, and since the merge runs on one
//! thread in slot order, parallel replay stays byte-identical to sequential.
//!
//! A pool that no barrier merges — a standalone instance's, a detached slot's, a
//! test fixture's — is installed as a *private* view ([`NetPoolView::private`])
//! and evicts in place like the shared pool.
//!
//! Unlike [`CpuKvPool`](crate::CpuKvPool), the pool keeps no statistics of its own:
//! it is swapped in and out of managers every window, so the owning
//! [`KvCacheManager`](crate::KvCacheManager) accounts spills, reloads and evictions in
//! its cumulative [`OffloadStats`](crate::OffloadStats) instead.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use simcore::{SimDuration, SimTime};

use crate::hash::TokenBlockHash;

/// One resident block of the network tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetEntry {
    /// Recency, drives LRU eviction.
    last_used: SimTime,
    /// When the block becomes visible cluster-wide (`spill time + propagation
    /// delay`); a merge keeps the *earliest* publication of duplicate content.
    published: SimTime,
    /// Bitmask of the instances that spilled the content this window (bit `i` for
    /// instance `i`, instances ≥ 63 sharing the top bit — see [`origin_bit`]; 0 for
    /// settled pre-window contents and warm seeds).  Merges take the union, so
    /// *every* spiller keeps sight of its own write no matter whose publication is
    /// kept.
    origins: u64,
    /// Whether this entry reached the holding pool through mid-window propagation
    /// from *another* instance (set only when a visibility-filtered snapshot or view
    /// surfaces it; reloads of flagged entries are accounted as propagated reloads —
    /// an instance re-reading its own same-window spill is not propagation, because
    /// the window-boundary model serves that reload too).
    propagated: bool,
}

/// The [`NetEntry::origins`] bit of one instance (0 for the shared pool itself).
/// Instances from 63 upwards share the top bit: within that bucket spills are
/// mutually visible without delay and their reloads are treated as own-spill reads
/// — i.e. *not* counted as propagation wins — so the bucketing can only
/// under-state, never inflate, the within-window propagation accounting.
fn origin_bit(owner: Option<usize>) -> u64 {
    match owner {
        Some(id) => 1 << id.min(63),
        None => 0,
    }
}

/// Byte and block accounting of one [`NetKvPool::reload_prefix_accounted`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetReload {
    /// Bytes that must cross the network link.
    pub bytes: u64,
    /// Reloaded blocks that were only present thanks to mid-window propagation.
    pub propagated_blocks: u64,
}

/// The interior of a [`NetKvPool`], shared between the pool and its outstanding
/// [`NetPoolView`]s through an `Arc`.  All map/index invariants live here so that
/// the copy-on-write discipline has a single unit of cloning.
#[derive(Debug, Clone, Default)]
struct NetState {
    entries: HashMap<TokenBlockHash, NetEntry>,
    /// Eviction order: `(last_used, hash)` for every entry, oldest first.
    lru: BTreeSet<(SimTime, TokenBlockHash)>,
    /// Bumped whenever an entry is inserted or removed (recency refreshes do not
    /// count), so probe memoisation can extend to the network tier.
    generation: u64,
}

impl NetState {
    /// Refreshes an entry's recency, never moving it backwards (a spill of a stale
    /// duplicate must not demote an entry a recent reload marked hot).  A duplicate
    /// spill also keeps the *earliest* publication — content already on its way to
    /// the cluster does not restart its propagation clock — while the spiller joins
    /// the entry's origin set either way.
    fn touch(&mut self, hash: TokenBlockHash, now: SimTime, publication: Option<(SimTime, u64)>) {
        if let Some(entry) = self.entries.get_mut(&hash) {
            if let Some((published, origins)) = publication {
                entry.published = entry.published.min(published);
                entry.origins |= origins;
            }
            let previous = entry.last_used;
            if previous < now {
                self.lru.remove(&(previous, hash));
                entry.last_used = now;
                self.lru.insert((now, hash));
            }
        }
    }

    /// Inserts a new entry (the hash must not be resident), evicting the LRU victim
    /// first if the pool is full — the one place the eviction/insert/generation
    /// discipline lives, shared by [`NetKvPool::offload_spilled`],
    /// [`NetKvPool::merge_from`] and [`NetKvPool::absorb`].  Returns how many
    /// residents were displaced (0 or 1).
    fn insert_entry(
        &mut self,
        capacity_blocks: u64,
        hash: TokenBlockHash,
        last_used: SimTime,
        published: SimTime,
        origins: u64,
    ) -> u64 {
        debug_assert!(capacity_blocks > 0 && !self.entries.contains_key(&hash));
        let mut evicted = 0;
        if self.entries.len() as u64 >= capacity_blocks {
            if let Some((_, victim)) = self.lru.pop_first() {
                self.entries.remove(&victim);
                self.generation += 1;
                evicted += 1;
            }
        }
        self.entries.insert(
            hash,
            NetEntry {
                last_used,
                published,
                origins,
                propagated: false,
            },
        );
        self.lru.insert((last_used, hash));
        self.generation += 1;
        evicted
    }
}

/// A capacity-bounded, cluster-shared pool of KV blocks behind the network link.
///
/// Deterministic like the CPU tier: eviction order is `(last_used, hash)`, oldest
/// first, with the hash as the tie-break so map iteration order never leaks into
/// behaviour.
///
/// ```
/// use kvcache::{hash_token_blocks, NetKvPool};
/// use simcore::SimTime;
///
/// let block_bytes = 16 * 128 * 1024; // 16 tokens x 128 KiB/token
/// let mut pool = NetKvPool::new(1 << 30, block_bytes);
/// let tokens: Vec<u32> = (0..160).collect();
/// let hashes = hash_token_blocks(&tokens, 16);
/// let (written, evicted) = pool.offload(&hashes, SimTime::ZERO);
/// assert_eq!((written, evicted), (10, 0));
/// assert_eq!(pool.lookup_prefix_blocks(&hashes), 10);
/// ```
#[derive(Debug, Clone)]
pub struct NetKvPool {
    block_bytes: u64,
    capacity_blocks: u64,
    /// Shared with outstanding [`NetPoolView`]s; mutations go through
    /// [`Arc::make_mut`], so a pool whose state is still referenced by views clones
    /// once on first write and in-place thereafter.
    state: Arc<NetState>,
    /// How long after a spill its content becomes visible cluster-wide (applied to
    /// the publish timestamp at [`Self::offload`] time; zero = immediate).
    propagation_delay: SimDuration,
    /// The instance this pool is an installed snapshot of (`None` for the shared
    /// pool itself); stamps the origin of every spill recorded into the snapshot.
    owner: Option<usize>,
}

impl NetKvPool {
    /// Creates a pool of `capacity_bytes` holding blocks of `block_bytes` each (the
    /// full KV of one token-block, all layers).
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub fn new(capacity_bytes: u64, block_bytes: u64) -> NetKvPool {
        assert!(block_bytes > 0, "block size in bytes must be positive");
        NetKvPool {
            block_bytes,
            capacity_blocks: capacity_bytes / block_bytes,
            state: Arc::new(NetState::default()),
            propagation_delay: SimDuration::ZERO,
            owner: None,
        }
    }

    /// Sets the cluster-wide propagation delay applied to every future spill's
    /// publish timestamp (see the module docs).
    pub fn with_propagation_delay(mut self, delay: SimDuration) -> NetKvPool {
        self.propagation_delay = delay;
        self
    }

    /// The configured propagation delay.
    pub fn propagation_delay(&self) -> SimDuration {
        self.propagation_delay
    }

    /// Bytes of KV held per block.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Maximum number of blocks the pool can hold.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Number of blocks currently resident.
    pub fn resident_blocks(&self) -> u64 {
        self.state.entries.len() as u64
    }

    /// Bytes currently occupied.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_blocks() * self.block_bytes
    }

    /// Monotonically increasing counter that changes exactly when the pool *contents*
    /// change.  While it is unchanged, every [`Self::lookup_prefix_blocks`] answer
    /// remains valid (the contract probe memoisation relies on).
    pub fn generation(&self) -> u64 {
        self.state.generation
    }

    /// Publication metadata of one resident entry — `(published, origins)` — or
    /// `None` if the hash is not resident.  Read-only introspection for shadow-model
    /// tests of the spill paths; simulation code never consults it.
    pub fn entry_meta(&self, hash: TokenBlockHash) -> Option<(SimTime, u64)> {
        self.state
            .entries
            .get(&hash)
            .map(|e| (e.published, e.origins))
    }

    /// Admits the given block-hash chain into the pool, evicting the
    /// least-recently-used entries if it is full.  New entries publish at
    /// `now + propagation_delay`.
    ///
    /// Returns `(written, evicted)`: how many blocks were actually inserted (existing
    /// entries are refreshed, not duplicated) and how many residents were displaced.
    pub fn offload(&mut self, hashes: &[TokenBlockHash], now: SimTime) -> (u64, u64) {
        self.offload_spilled(hashes, now, now)
    }

    /// Like [`Self::offload`], but separating the entries' LRU recency
    /// (`last_used`, carried down the tier hierarchy so the net tier's eviction
    /// order extends the CPU tier's) from the virtual time the spill actually
    /// happens (`spilled_at`, which starts the propagation clock).  The eviction
    /// cascade spills *cold* blocks — anchoring publication to their stale recency
    /// would publish them in the past and bypass the configured delay.
    pub fn offload_spilled(
        &mut self,
        hashes: &[TokenBlockHash],
        last_used: SimTime,
        spilled_at: SimTime,
    ) -> (u64, u64) {
        let mut written = 0;
        let mut evicted = 0;
        let published = spilled_at + self.propagation_delay;
        let origins = origin_bit(self.owner);
        let capacity = self.capacity_blocks;
        if capacity == 0 {
            return (0, 0);
        }
        let state = Arc::make_mut(&mut self.state);
        for hash in hashes {
            if let Some(entry) = state.entries.get_mut(hash) {
                // The holder has now spilled this content itself: from here on the
                // window-boundary model would keep it readable in the holder's own
                // snapshot too, so later reloads are no longer propagation wins.
                entry.propagated = false;
                state.touch(*hash, last_used, Some((published, origins)));
                continue;
            }
            evicted += state.insert_entry(capacity, *hash, last_used, published, origins);
            written += 1;
        }
        (written, evicted)
    }

    /// The hashes of every resident block, in unspecified order.
    #[cfg(test)]
    fn resident_hashes(&self) -> impl Iterator<Item = TokenBlockHash> + '_ {
        self.state.entries.keys().copied()
    }

    /// Returns how many *leading* blocks of `hashes` are present in the pool (the
    /// reloadable prefix).
    pub fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        let mut hits = 0;
        for hash in hashes {
            if self.state.entries.contains_key(hash) {
                hits += 1;
            } else {
                break;
            }
        }
        hits
    }

    /// Marks the leading `blocks` blocks of `hashes` as reloaded (refreshing their
    /// recency) and returns the bytes that must cross the network link.  The remote
    /// copy is retained — a reload is a copy, not a move.
    pub fn reload_prefix(&mut self, hashes: &[TokenBlockHash], blocks: u64, now: SimTime) -> u64 {
        self.reload_prefix_accounted(hashes, blocks, now).bytes
    }

    /// Like [`Self::reload_prefix`], but also counting how many of the reloaded
    /// blocks were flagged as mid-window propagated by a visibility-filtered
    /// snapshot or view — reloads that the window-boundary-only propagation model
    /// would have missed.
    pub fn reload_prefix_accounted(
        &mut self,
        hashes: &[TokenBlockHash],
        blocks: u64,
        now: SimTime,
    ) -> NetReload {
        let blocks = blocks.min(hashes.len() as u64);
        let mut reload = NetReload::default();
        let block_bytes = self.block_bytes;
        let state = Arc::make_mut(&mut self.state);
        for hash in &hashes[..blocks as usize] {
            if let Some(entry) = state.entries.get(hash) {
                if entry.propagated {
                    reload.propagated_blocks += 1;
                }
                state.touch(*hash, now, None);
                reload.bytes += block_bytes;
            }
        }
        reload
    }

    /// Merges another pool's contents into this one (seeding a deployment's shared
    /// tier from a warm pool).
    ///
    /// Entries are replayed like an [`Self::absorb`]ed overlay: oldest-first in
    /// `(last_used, hash)` order, refreshing duplicates to the younger timestamp
    /// (and the *earlier* publication); capacity overflow evicts LRU as usual.
    /// Deterministic: the outcome depends only on the two pools' contents, never on
    /// map iteration order.  Propagation flags never survive a merge — the shared
    /// pool is the source of truth and the next visibility-filtered install
    /// recomputes them.  Returns how many residents the merge displaced, so the
    /// caller can account the churn.
    pub fn merge_from(&mut self, other: &NetKvPool) -> u64 {
        if Arc::ptr_eq(&self.state, &other.state) {
            // Merging an untouched copy-on-write snapshot of ourselves: every entry
            // would replay as a no-op touch.
            return 0;
        }
        self.replay(&other.state.entries, &other.state.lru)
    }

    /// The barrier merge of one view: replays the overlay it surrendered
    /// ([`NetPoolView::into_delta`]) into the pool, oldest first, refreshing
    /// resident entries and inserting new ones — each insert into a full pool
    /// displacing the global `(last_used, hash)` LRU head.  This is the only place
    /// the shared tier evicts; the cluster absorbs its views in slot order.
    /// Returns how many residents were displaced.
    pub fn absorb(&mut self, delta: ViewDelta) -> u64 {
        self.replay(&delta.entries, &delta.lru)
    }

    /// Replays `entries` in `lru` order (`(last_used, hash)`, oldest first): the
    /// one merge discipline behind [`Self::merge_from`] and [`Self::absorb`].
    fn replay(
        &mut self,
        entries: &HashMap<TokenBlockHash, NetEntry>,
        lru: &BTreeSet<(SimTime, TokenBlockHash)>,
    ) -> u64 {
        if lru.is_empty() {
            // Skip `make_mut`, which would clone a state that views still read.
            return 0;
        }
        let capacity = self.capacity_blocks;
        let state = Arc::make_mut(&mut self.state);
        let mut evicted = 0;
        for (last_used, hash) in lru {
            let entry = &entries[hash];
            if state.entries.contains_key(hash) {
                state.touch(*hash, *last_used, Some((entry.published, entry.origins)));
            } else if capacity > 0 {
                evicted +=
                    state.insert_entry(capacity, *hash, *last_used, entry.published, entry.origins);
            }
        }
        evicted
    }

    /// Clones the pool filtered to what instance `owner` may read during the
    /// propagation epoch starting at `visible_at`: entries already published by
    /// then, plus `owner`'s *own* spills regardless of publish time — the
    /// window-boundary model keeps an instance's own spills readable all window,
    /// and a propagation delay models fabric latency to *other* nodes, not a node
    /// forgetting its own writes.  Entries that another instance published after
    /// virtual time zero (i.e. spilled earlier in the *same* replay window —
    /// [`Self::settle`] zeroes everything older at window start) are flagged as
    /// propagated, so their reloads can be accounted as wins of the within-window
    /// propagation model; `owner`'s own spills never are.  Spills recorded into
    /// the snapshot during the epoch carry `owner` as their origin.
    ///
    /// This is the legacy dense install; the replay pipeline now uses
    /// [`Self::view_at`] and keeps this as the reference the property suite pins
    /// the views against.
    pub fn visible_snapshot(&self, visible_at: SimTime, owner: usize) -> NetKvPool {
        let mut state = NetState {
            generation: self.state.generation,
            ..NetState::default()
        };
        for (hash, entry) in &self.state.entries {
            let own = entry.origins & origin_bit(Some(owner)) != 0;
            if own || entry.published <= visible_at {
                let entry = NetEntry {
                    propagated: !own && entry.published > SimTime::ZERO,
                    ..*entry
                };
                state.entries.insert(*hash, entry);
                state.lru.insert((entry.last_used, *hash));
            }
        }
        NetKvPool {
            block_bytes: self.block_bytes,
            capacity_blocks: self.capacity_blocks,
            state: Arc::new(state),
            propagation_delay: self.propagation_delay,
            owner: Some(owner),
        }
    }

    /// An append-only view over the whole pool, visibility-unfiltered — the cheap
    /// replacement for cloning the pool into an instance at window start.  Reads
    /// see every resident entry (exactly like a full clone would) and spills stay
    /// in the view's private overlay until [`NetPoolView::into_delta`].
    pub fn view(&self) -> NetPoolView {
        NetPoolView::overlay(self, None, self.owner)
    }

    /// An append-only view filtered like [`Self::visible_snapshot`]: instance
    /// `owner` reads entries published by `visible_at` plus its own spills, with
    /// mid-window propagated entries flagged for reload accounting.
    pub fn view_at(&self, visible_at: SimTime, owner: usize) -> NetPoolView {
        NetPoolView::overlay(self, Some(visible_at), Some(owner))
    }

    /// Marks every resident entry as fully published (publish timestamp zero, no
    /// origin, no propagation flag).  The cluster calls this at the start of each
    /// replay window: whatever was spilled in earlier windows has long since crossed
    /// the fabric, so only *this* window's spills are subject to the propagation
    /// delay.  (Virtual time restarts at zero with each replayed trace, so
    /// carried-over publish timestamps from a previous window would otherwise read
    /// as future ones.)
    pub fn settle(&mut self) {
        let state = Arc::make_mut(&mut self.state);
        for entry in state.entries.values_mut() {
            entry.published = SimTime::ZERO;
            entry.origins = 0;
            entry.propagated = false;
        }
    }

    /// Debug-only structural check of the LRU index invariant.
    #[cfg(test)]
    fn assert_lru_invariant(&self) {
        let expected: BTreeSet<(SimTime, TokenBlockHash)> = self
            .state
            .entries
            .iter()
            .map(|(h, e)| (e.last_used, *h))
            .collect();
        assert_eq!(expected, self.state.lru, "net LRU index out of sync");
    }
}

/// The body of a shared-tier [`NetPoolView`]: the pool's state as the view was
/// taken, the epoch's visibility filter, and a private append-only overlay of
/// touched/added entries.
#[derive(Debug, Clone)]
struct OverlayView {
    base: Arc<NetState>,
    block_bytes: u64,
    capacity_blocks: u64,
    propagation_delay: SimDuration,
    owner: Option<usize>,
    /// `None` = unfiltered (full-clone semantics, window-boundary sharing);
    /// `Some(at)` = the propagation-epoch visibility horizon.
    visible_at: Option<SimTime>,
    /// Entries the view touched or added; always consulted before the base.
    overlay: HashMap<TokenBlockHash, NetEntry>,
    /// `(last_used, hash)` for every overlay entry, oldest first — the replay
    /// order of [`NetKvPool::absorb`].
    overlay_lru: BTreeSet<(SimTime, TokenBlockHash)>,
    /// Overlay entries the base filter does not show (new content, or content
    /// whose base copy is still unpublished to this view): the view's growth over
    /// its visible base, and its content-generation bumps.
    added: u64,
    /// Lazily-computed count of visible base entries (recomputing per
    /// `resident_blocks` call would be O(base)).
    visible_base: Cell<Option<u64>>,
}

impl OverlayView {
    fn base_visible(&self, entry: &NetEntry) -> bool {
        match self.visible_at {
            None => true,
            Some(at) => entry.origins & origin_bit(self.owner) != 0 || entry.published <= at,
        }
    }

    fn base_flag(&self, entry: &NetEntry) -> bool {
        self.visible_at.is_some()
            && entry.origins & origin_bit(self.owner) == 0
            && entry.published > SimTime::ZERO
    }

    fn visible_base_count(&self) -> u64 {
        if let Some(count) = self.visible_base.get() {
            return count;
        }
        let count = match self.visible_at {
            None => self.base.entries.len() as u64,
            Some(_) => self
                .base
                .entries
                .values()
                .filter(|e| self.base_visible(e))
                .count() as u64,
        };
        self.visible_base.set(Some(count));
        count
    }

    fn reload_one(&mut self, hash: TokenBlockHash, now: SimTime) -> Option<bool> {
        if let Some(entry) = self.overlay.get_mut(&hash) {
            let flag = entry.propagated;
            let previous = entry.last_used;
            if previous < now {
                self.overlay_lru.remove(&(previous, hash));
                entry.last_used = now;
                self.overlay_lru.insert((now, hash));
            }
            return Some(flag);
        }
        let entry = *self.base.entries.get(&hash)?;
        if !self.base_visible(&entry) {
            return None;
        }
        let flag = self.base_flag(&entry);
        if entry.last_used < now {
            // Recency moved forward: shadow the base entry in the overlay (the
            // merge replays this as a touch, exactly like the dense path).
            self.overlay.insert(
                hash,
                NetEntry {
                    last_used: now,
                    propagated: flag,
                    ..entry
                },
            );
            self.overlay_lru.insert((now, hash));
        }
        Some(flag)
    }

    /// One hash of a spill, appended to the overlay (a view never evicts).
    /// Returns how many blocks were written (0 for refreshes of readable entries).
    fn spill_one(&mut self, hash: TokenBlockHash, last_used: SimTime, spilled_at: SimTime) -> u64 {
        let published = spilled_at + self.propagation_delay;
        let bit = origin_bit(self.owner);
        if let Some(entry) = self.overlay.get_mut(&hash) {
            entry.propagated = false;
            entry.published = entry.published.min(published);
            entry.origins |= bit;
            let previous = entry.last_used;
            if previous < last_used {
                self.overlay_lru.remove(&(previous, hash));
                entry.last_used = last_used;
                self.overlay_lru.insert((last_used, hash));
            }
            return 0;
        }
        let (entry, written) = match self.base.entries.get(&hash) {
            // Readable through the base: refresh, don't duplicate.
            Some(base) if self.base_visible(base) => (
                NetEntry {
                    last_used: base.last_used.max(last_used),
                    published: base.published.min(published),
                    origins: base.origins | bit,
                    propagated: false,
                },
                0,
            ),
            // New to this view — absent from the pool, or resident but still
            // unpublished here (the barrier merges it as a touch).
            _ => (
                NetEntry {
                    last_used,
                    published,
                    origins: bit,
                    propagated: false,
                },
                1,
            ),
        };
        self.overlay.insert(hash, entry);
        self.overlay_lru.insert((entry.last_used, hash));
        self.added += written;
        written
    }

    fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        let mut hits = 0;
        for hash in hashes {
            let present = self.overlay.contains_key(hash)
                || self
                    .base
                    .entries
                    .get(hash)
                    .is_some_and(|e| self.base_visible(e));
            if present {
                hits += 1;
            } else {
                break;
            }
        }
        hits
    }
}

#[derive(Debug, Clone)]
enum ViewRepr {
    /// An append-only overlay over the shared pool, merged at the barrier.
    Overlay(OverlayView),
    /// A pool of the holder's own that no barrier merges; it evicts in place.
    Private(NetKvPool),
}

/// An instance's window/epoch working set of the network tier.  Usually an
/// append-only view of the shared [`NetKvPool`] ([`NetKvPool::view_at`]) that
/// records the instance's touches in a private overlay — never evicting — and
/// surrenders them to the barrier merge as a [`ViewDelta`]; or a private pool
/// ([`Self::private`]).  Mirrors the pool's read/spill/reload API so
/// [`KvCacheManager`](crate::KvCacheManager) can use either interchangeably.
#[derive(Debug, Clone)]
pub struct NetPoolView {
    repr: ViewRepr,
}

impl NetPoolView {
    fn overlay(pool: &NetKvPool, visible_at: Option<SimTime>, owner: Option<usize>) -> NetPoolView {
        NetPoolView {
            repr: ViewRepr::Overlay(OverlayView {
                base: Arc::clone(&pool.state),
                block_bytes: pool.block_bytes,
                capacity_blocks: pool.capacity_blocks,
                propagation_delay: pool.propagation_delay,
                owner,
                visible_at,
                overlay: HashMap::new(),
                overlay_lru: BTreeSet::new(),
                added: 0,
                visible_base: Cell::new(None),
            }),
        }
    }

    /// Wraps a pool no barrier merges (a standalone instance's tier, a test
    /// fixture) in the view interface.  It evicts in place, like the shared pool.
    pub fn private(pool: NetKvPool) -> NetPoolView {
        NetPoolView {
            repr: ViewRepr::Private(pool),
        }
    }

    /// Whether this is a private pool rather than a view of the shared tier.
    pub(crate) fn is_private(&self) -> bool {
        matches!(self.repr, ViewRepr::Private(_))
    }

    /// Bytes of KV held per block.
    pub fn block_bytes(&self) -> u64 {
        match &self.repr {
            ViewRepr::Overlay(view) => view.block_bytes,
            ViewRepr::Private(pool) => pool.block_bytes(),
        }
    }

    /// Maximum number of blocks the underlying pool can hold.
    pub fn capacity_blocks(&self) -> u64 {
        match &self.repr {
            ViewRepr::Overlay(view) => view.capacity_blocks,
            ViewRepr::Private(pool) => pool.capacity_blocks(),
        }
    }

    /// Number of blocks readable through the view.  A view of a full pool reads
    /// more than the pool's capacity once it spills: it never evicts.
    pub fn resident_blocks(&self) -> u64 {
        match &self.repr {
            ViewRepr::Overlay(view) => view.visible_base_count() + view.added,
            ViewRepr::Private(pool) => pool.resident_blocks(),
        }
    }

    /// Bytes readable through the view.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_blocks() * self.block_bytes()
    }

    /// The content generation of what the view reads (base generation plus the
    /// view's own fresh inserts) — keeps probe memoisation exact.
    pub fn generation(&self) -> u64 {
        match &self.repr {
            ViewRepr::Overlay(view) => view.base.generation + view.added,
            ViewRepr::Private(pool) => pool.generation(),
        }
    }

    /// Publication metadata of one readable entry (see [`NetKvPool::entry_meta`]).
    pub fn entry_meta(&self, hash: TokenBlockHash) -> Option<(SimTime, u64)> {
        match &self.repr {
            ViewRepr::Overlay(view) => {
                if let Some(entry) = view.overlay.get(&hash) {
                    return Some((entry.published, entry.origins));
                }
                let entry = view.base.entries.get(&hash)?;
                if !view.base_visible(entry) {
                    return None;
                }
                Some((entry.published, entry.origins))
            }
            ViewRepr::Private(pool) => pool.entry_meta(hash),
        }
    }

    /// The hashes of every readable block, in unspecified order.
    #[cfg(test)]
    fn resident_hashes(&self) -> Box<dyn Iterator<Item = TokenBlockHash> + '_> {
        match &self.repr {
            ViewRepr::Overlay(view) => Box::new(
                view.base
                    .entries
                    .iter()
                    .filter(|(_, e)| view.base_visible(e))
                    .map(|(h, _)| *h)
                    .chain(view.overlay.keys().copied().filter(|h| {
                        view.base
                            .entries
                            .get(h)
                            .is_none_or(|e| !view.base_visible(e))
                    })),
            ),
            ViewRepr::Private(pool) => Box::new(pool.resident_hashes()),
        }
    }

    /// How many *leading* blocks of `hashes` are readable (the reloadable prefix).
    pub fn lookup_prefix_blocks(&self, hashes: &[TokenBlockHash]) -> u64 {
        match &self.repr {
            ViewRepr::Overlay(view) => view.lookup_prefix_blocks(hashes),
            ViewRepr::Private(pool) => pool.lookup_prefix_blocks(hashes),
        }
    }

    /// See [`NetKvPool::reload_prefix`].
    pub fn reload_prefix(&mut self, hashes: &[TokenBlockHash], blocks: u64, now: SimTime) -> u64 {
        self.reload_prefix_accounted(hashes, blocks, now).bytes
    }

    /// See [`NetKvPool::reload_prefix_accounted`].
    pub fn reload_prefix_accounted(
        &mut self,
        hashes: &[TokenBlockHash],
        blocks: u64,
        now: SimTime,
    ) -> NetReload {
        match &mut self.repr {
            ViewRepr::Overlay(view) => {
                let blocks = blocks.min(hashes.len() as u64);
                let mut reload = NetReload::default();
                for hash in &hashes[..blocks as usize] {
                    if let Some(flag) = view.reload_one(*hash, now) {
                        if flag {
                            reload.propagated_blocks += 1;
                        }
                        reload.bytes += view.block_bytes;
                    }
                }
                reload
            }
            ViewRepr::Private(pool) => pool.reload_prefix_accounted(hashes, blocks, now),
        }
    }

    /// See [`NetKvPool::offload`].
    pub fn offload(&mut self, hashes: &[TokenBlockHash], now: SimTime) -> (u64, u64) {
        self.offload_spilled(hashes, now, now)
    }

    /// See [`NetKvPool::offload_spilled`].  A view of the shared tier never
    /// evicts: every spill lands in its append-only overlay, however full the pool
    /// is, so `evicted` is always 0 and the barrier merge ([`NetKvPool::absorb`])
    /// decides what the tier displaces.  A private pool evicts in place.
    pub fn offload_spilled(
        &mut self,
        hashes: &[TokenBlockHash],
        last_used: SimTime,
        spilled_at: SimTime,
    ) -> (u64, u64) {
        match &mut self.repr {
            ViewRepr::Overlay(view) => {
                if view.capacity_blocks == 0 {
                    return (0, 0);
                }
                let written = hashes
                    .iter()
                    .map(|hash| view.spill_one(*hash, last_used, spilled_at))
                    .sum();
                (written, 0)
            }
            ViewRepr::Private(pool) => pool.offload_spilled(hashes, last_used, spilled_at),
        }
    }

    /// Surrenders the view's overlay for the barrier merge, dropping its base
    /// reference (so the caller can mutate the shared pool without a copy-on-write
    /// clone).  A private pool is not part of the shared tier and contributes
    /// nothing.
    pub fn into_delta(self) -> ViewDelta {
        match self.repr {
            ViewRepr::Overlay(view) => ViewDelta {
                entries: view.overlay,
                lru: view.overlay_lru,
            },
            ViewRepr::Private(_) => ViewDelta::default(),
        }
    }
}

/// A view's surrendered overlay (see [`NetPoolView::into_delta`]), replayed into
/// the shared pool by [`NetKvPool::absorb`].
#[derive(Debug, Default)]
pub struct ViewDelta {
    entries: HashMap<TokenBlockHash, NetEntry>,
    lru: BTreeSet<(SimTime, TokenBlockHash)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_token_blocks;

    const BLOCK_TOKENS: usize = 16;
    const BLOCK_BYTES: u64 = 1024;

    fn hashes(start: u32, tokens: usize) -> Vec<TokenBlockHash> {
        let toks: Vec<u32> = (start..start + tokens as u32).collect();
        hash_token_blocks(&toks, BLOCK_TOKENS)
    }

    #[test]
    fn offload_lookup_reload_round_trip() {
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES);
        let chain = hashes(0, 320);
        assert_eq!(pool.lookup_prefix_blocks(&chain), 0);
        assert_eq!(pool.offload(&chain, SimTime::ZERO), (20, 0));
        assert_eq!(pool.resident_blocks(), 20);
        assert_eq!(pool.resident_bytes(), 20 * BLOCK_BYTES);
        assert_eq!(pool.lookup_prefix_blocks(&chain), 20);
        let bytes = pool.reload_prefix(&chain, 5, SimTime::from_secs(1));
        assert_eq!(bytes, 5 * BLOCK_BYTES);
        pool.assert_lru_invariant();
    }

    #[test]
    fn duplicate_offloads_refresh_without_growing() {
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES);
        let chain = hashes(0, 160);
        pool.offload(&chain, SimTime::ZERO);
        let generation = pool.generation();
        assert_eq!(pool.offload(&chain, SimTime::from_secs(1)), (0, 0));
        assert_eq!(pool.resident_blocks(), 10);
        assert_eq!(pool.generation(), generation, "refreshes keep contents");
        pool.assert_lru_invariant();
    }

    #[test]
    fn eviction_is_deterministic_under_timestamp_ties() {
        let chain = hashes(0, 8 * BLOCK_TOKENS);
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        for _ in 0..4 {
            let mut pool = NetKvPool::new(8 * BLOCK_BYTES, BLOCK_BYTES);
            pool.offload(&chain, SimTime::ZERO);
            let (_, evicted) =
                pool.offload(&hashes(1_000_000, 2 * BLOCK_TOKENS), SimTime::from_secs(1));
            assert_eq!(evicted, 2);
            for victim in &sorted[..2] {
                assert_eq!(pool.lookup_prefix_blocks(std::slice::from_ref(victim)), 0);
            }
            pool.assert_lru_invariant();
        }
    }

    #[test]
    fn merge_unions_contents_and_keeps_younger_recency() {
        let mut shared = NetKvPool::new(1 << 20, BLOCK_BYTES);
        let a = hashes(0, 160);
        let b = hashes(50_000, 160);
        shared.offload(&a, SimTime::ZERO);

        // Two instance snapshots diverge: one refreshed `a`, the other added `b`.
        let mut from_zero = shared.clone();
        from_zero.offload(&a, SimTime::from_secs(5));
        let mut from_one = shared.clone();
        from_one.offload(&b, SimTime::from_secs(3));

        shared.merge_from(&from_zero);
        shared.merge_from(&from_one);
        assert_eq!(shared.lookup_prefix_blocks(&a), 10);
        assert_eq!(shared.lookup_prefix_blocks(&b), 10);
        assert_eq!(shared.resident_blocks(), 20);

        // Merge order does not matter for contents: replay in the other order.
        let mut other_order = NetKvPool::new(1 << 20, BLOCK_BYTES);
        other_order.offload(&a, SimTime::ZERO);
        other_order.merge_from(&from_one);
        other_order.merge_from(&from_zero);
        assert_eq!(other_order.state.entries, shared.state.entries);
        shared.assert_lru_invariant();
    }

    #[test]
    fn zero_capacity_pool_is_inert() {
        let mut pool = NetKvPool::new(0, BLOCK_BYTES);
        let chain = hashes(0, 160);
        assert_eq!(pool.offload(&chain, SimTime::ZERO), (0, 0));
        assert_eq!(pool.resident_blocks(), 0);
        assert_eq!(pool.generation(), 0);
        let mut view = pool.view();
        assert_eq!(view.offload(&chain, SimTime::ZERO), (0, 0));
        assert_eq!(view.resident_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_bytes_panics() {
        NetKvPool::new(1 << 20, 0);
    }

    #[test]
    fn visible_snapshot_hides_unpublished_entries_and_flags_propagated_ones() {
        let delay = simcore::SimDuration::from_millis(500);
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        assert_eq!(pool.propagation_delay(), delay);
        let early = hashes(0, 160);
        let late = hashes(100_000, 160);
        pool.offload(&early, SimTime::ZERO); // publishes at 500ms
        pool.offload(&late, SimTime::from_millis(400)); // publishes at 900ms

        // Before anything publishes, the snapshot is empty.
        assert_eq!(
            pool.visible_snapshot(SimTime::from_millis(100), 0)
                .resident_blocks(),
            0
        );
        // At 500ms the early chain is visible (and flagged as mid-window
        // propagated), the late one still in flight.
        let snap = pool.visible_snapshot(SimTime::from_millis(500), 0);
        assert_eq!(snap.lookup_prefix_blocks(&early), 10);
        assert_eq!(snap.lookup_prefix_blocks(&late), 0);
        assert_eq!(
            snap.clone()
                .reload_prefix_accounted(&early, 10, SimTime::from_secs(1)),
            NetReload {
                bytes: 10 * BLOCK_BYTES,
                propagated_blocks: 10,
            }
        );
        // At 900ms both are visible.
        let snap = pool.visible_snapshot(SimTime::from_millis(900), 0);
        assert_eq!(snap.resident_blocks(), 20);

        // Settling marks everything as published long ago: visible everywhere,
        // never counted as propagated.
        pool.settle();
        let mut snap = pool.visible_snapshot(SimTime::ZERO, 0);
        assert_eq!(snap.resident_blocks(), 20);
        assert_eq!(
            snap.reload_prefix_accounted(&early, 10, SimTime::from_secs(1)),
            NetReload {
                bytes: 10 * BLOCK_BYTES,
                propagated_blocks: 0,
            }
        );
        snap.assert_lru_invariant();
    }

    #[test]
    fn merge_keeps_the_earliest_publication_and_drops_propagation_flags() {
        let delay = simcore::SimDuration::from_secs(1);
        let shared = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        let chain = hashes(0, 160);

        // Two instances spill the same content at different times; the merged entry
        // must publish at the *earlier* instant regardless of merge order.
        let mut from_zero = shared.clone();
        from_zero.offload(&chain, SimTime::from_secs(2)); // publishes at 3s
        let mut from_one = shared.clone();
        from_one.offload(&chain, SimTime::from_secs(5)); // publishes at 6s

        for order in [[&from_zero, &from_one], [&from_one, &from_zero]] {
            let mut merged = shared.clone();
            for local in order {
                merged.merge_from(local);
            }
            // Published at 3s: hidden at 2.9s, visible (and propagated) at 3s.
            assert_eq!(
                merged
                    .visible_snapshot(SimTime::from_millis(2_900), 0)
                    .resident_blocks(),
                0
            );
            let mut snap = merged.visible_snapshot(SimTime::from_secs(3), 0);
            assert_eq!(snap.lookup_prefix_blocks(&chain), 10);
            assert_eq!(
                snap.reload_prefix_accounted(&chain, 10, SimTime::from_secs(7))
                    .propagated_blocks,
                10
            );
            // Recency follows the younger spill.
            assert_eq!(
                merged.state.entries[&chain[0]].last_used,
                SimTime::from_secs(5)
            );
            merged.assert_lru_invariant();
        }

        // Origin honesty: an instance's *own* same-window spills are never flagged
        // as propagated — the window-boundary model serves those reloads too.
        let mut own = NetKvPool::new(1 << 20, BLOCK_BYTES)
            .with_propagation_delay(delay)
            .visible_snapshot(SimTime::ZERO, 0);
        own.offload(&chain, SimTime::from_secs(1)); // origin = Some(0)
        let mut shared2 = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        shared2.merge_from(&own);
        // An instance never loses sight of its *own* spills: the publish time gates
        // other instances only.
        assert_eq!(
            shared2
                .visible_snapshot(SimTime::ZERO, 0)
                .lookup_prefix_blocks(&chain),
            10
        );
        assert_eq!(
            shared2
                .visible_snapshot(SimTime::ZERO, 1)
                .lookup_prefix_blocks(&chain),
            0
        );
        // Visible from 2s on; not propagated for instance 0, propagated for 1.
        let mut for_origin = shared2.visible_snapshot(SimTime::from_secs(2), 0);
        assert_eq!(
            for_origin
                .reload_prefix_accounted(&chain, 10, SimTime::from_secs(3))
                .propagated_blocks,
            0
        );
        let mut for_other = shared2.visible_snapshot(SimTime::from_secs(2), 1);
        assert_eq!(
            for_other
                .reload_prefix_accounted(&chain, 10, SimTime::from_secs(3))
                .propagated_blocks,
            10
        );
        // Once the holder spills the same content itself, the window-boundary model
        // would serve later reloads from its own snapshot too — the flag clears and
        // repeat reloads stop counting as propagation wins.
        for_other.offload(&chain, SimTime::from_secs(4));
        assert_eq!(
            for_other
                .reload_prefix_accounted(&chain, 10, SimTime::from_secs(5))
                .propagated_blocks,
            0
        );

        // Merging a snapshot whose entries are flagged as propagated never carries
        // the flag into the shared pool.
        let mut flagged = from_zero.visible_snapshot(SimTime::from_secs(3), 0);
        assert_eq!(flagged.resident_blocks(), 10);
        let mut fresh = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        fresh.merge_from(&flagged);
        assert!(fresh.state.entries.values().all(|e| !e.propagated));
        // ... while the flagged snapshot itself still reports propagated reloads.
        assert!(
            flagged
                .reload_prefix_accounted(&chain, 1, SimTime::from_secs(9))
                .propagated_blocks
                > 0
        );
    }

    /// Shared-state plumbing: a view is O(1) to take, reads through to the base,
    /// and its mere existence never perturbs the pool it was taken from.
    #[test]
    fn views_read_through_and_leave_the_pool_untouched() {
        let delay = simcore::SimDuration::from_millis(500);
        let mut pool = NetKvPool::new(1 << 20, BLOCK_BYTES).with_propagation_delay(delay);
        let early = hashes(0, 160);
        let late = hashes(100_000, 160);
        pool.offload(&early, SimTime::ZERO); // publishes at 500ms
        pool.offload(&late, SimTime::from_millis(400)); // publishes at 900ms

        let mut view = pool.view_at(SimTime::from_millis(500), 1);
        assert_eq!(view.lookup_prefix_blocks(&early), 10);
        assert_eq!(view.lookup_prefix_blocks(&late), 0);
        assert_eq!(view.resident_blocks(), 10);
        assert_eq!(view.resident_bytes(), 10 * BLOCK_BYTES);
        assert_eq!(view.generation(), pool.generation());
        let mut from_view: Vec<TokenBlockHash> = view.resident_hashes().collect();
        let mut from_snap: Vec<TokenBlockHash> = pool
            .visible_snapshot(SimTime::from_millis(500), 1)
            .resident_hashes()
            .collect();
        from_view.sort_unstable();
        from_snap.sort_unstable();
        assert_eq!(from_view, from_snap);

        // Reloads and spills stay in the overlay: the shared pool is unmoved.
        let before = pool.clone();
        assert_eq!(
            view.reload_prefix_accounted(&early, 10, SimTime::from_secs(1)),
            NetReload {
                bytes: 10 * BLOCK_BYTES,
                propagated_blocks: 10,
            }
        );
        assert_eq!(
            view.offload(&hashes(200_000, 160), SimTime::from_secs(2)).0,
            10
        );
        assert_eq!(view.resident_blocks(), 20);
        assert_eq!(pool.state.entries, before.state.entries);
        assert_eq!(pool.generation(), before.generation());

        // A pool mutation after the view was taken copies the pool's state on
        // write: the view keeps reading the state it was taken from.
        let late_write = hashes(300_000, 16);
        pool.offload(&late_write, SimTime::from_secs(3));
        assert_eq!(pool.lookup_prefix_blocks(&late_write), 1);
        assert_eq!(view.lookup_prefix_blocks(&late_write), 0);
        assert_eq!(view.resident_blocks(), 20);
        pool.assert_lru_invariant();
    }

    /// Central eviction in miniature: views of a full pool keep every spill (and
    /// read past the pool's capacity), and the barrier merge alone evicts — the
    /// global LRU head, views absorbed in slot order.
    #[test]
    fn views_of_a_full_pool_never_evict_and_the_barrier_evicts_by_global_lru() {
        let mut pool = NetKvPool::new(8 * BLOCK_BYTES, BLOCK_BYTES);
        let base: Vec<Vec<TokenBlockHash>> = (0..8u32)
            .map(|i| hashes(10_000 * i, BLOCK_TOKENS))
            .collect();
        for (i, chain) in base.iter().enumerate() {
            pool.offload(chain, SimTime::from_secs(i as u64));
        }
        pool.settle();
        assert_eq!(pool.resident_blocks(), 8);

        let mut views = [
            pool.view_at(SimTime::ZERO, 0),
            pool.view_at(SimTime::ZERO, 1),
        ];
        let fresh = [
            hashes(500_000, 3 * BLOCK_TOKENS),
            hashes(600_000, 3 * BLOCK_TOKENS),
        ];
        for ((view, chain), at) in views.iter_mut().zip(&fresh).zip([10, 11]) {
            assert_eq!(view.offload(chain, SimTime::from_secs(at)), (3, 0));
            assert_eq!(view.resident_blocks(), 11, "a view reads past capacity");
            assert_eq!(view.lookup_prefix_blocks(&base[0]), 1, "nothing evicted");
        }
        assert_eq!(pool.resident_blocks(), 8, "views leave the pool untouched");

        let deltas: Vec<ViewDelta> = views.into_iter().map(NetPoolView::into_delta).collect();
        let evicted: u64 = deltas.into_iter().map(|delta| pool.absorb(delta)).sum();
        assert_eq!(evicted, 6);
        assert_eq!(pool.resident_blocks(), 8);
        for (i, chain) in base.iter().enumerate() {
            let expected = u64::from(i >= 6);
            assert_eq!(pool.lookup_prefix_blocks(chain), expected, "base chain {i}");
        }
        for chain in &fresh {
            assert_eq!(pool.lookup_prefix_blocks(chain), 3);
        }
        pool.assert_lru_invariant();
    }

    /// A tiny deterministic LCG, so the property trials are reproducible.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    /// The flat reference of the shared tier under central eviction: an entry map
    /// plus the `(last_used, hash)` LRU, the content generation and the eviction
    /// count.  Overlays are replayed as the barrier promises — each oldest first —
    /// refreshing resident entries and inserting new ones, which displace the LRU
    /// head once the map is full.
    struct FlatTier {
        capacity: u64,
        entries: HashMap<TokenBlockHash, NetEntry>,
        lru: BTreeSet<(SimTime, TokenBlockHash)>,
        generation: u64,
        evicted: u64,
    }

    impl FlatTier {
        fn insert(&mut self, hash: TokenBlockHash, entry: NetEntry) {
            if self.entries.len() as u64 >= self.capacity {
                let (_, victim) = self.lru.pop_first().expect("a full tier has an LRU head");
                self.entries.remove(&victim);
                self.generation += 1;
                self.evicted += 1;
            }
            self.entries.insert(hash, entry);
            self.lru.insert((entry.last_used, hash));
            self.generation += 1;
        }

        fn absorb(&mut self, overlay: &HashMap<TokenBlockHash, NetEntry>) {
            let mut order: Vec<(SimTime, TokenBlockHash)> = overlay
                .iter()
                .map(|(hash, entry)| (entry.last_used, *hash))
                .collect();
            order.sort_unstable();
            for (last_used, hash) in order {
                let incoming = overlay[&hash];
                let Some(entry) = self.entries.get_mut(&hash) else {
                    self.insert(
                        hash,
                        NetEntry {
                            propagated: false,
                            ..incoming
                        },
                    );
                    continue;
                };
                entry.published = entry.published.min(incoming.published);
                entry.origins |= incoming.origins;
                if entry.last_used < last_used {
                    self.lru.remove(&(entry.last_used, hash));
                    entry.last_used = last_used;
                    self.lru.insert((last_used, hash));
                }
            }
        }
    }

    /// A view in the flat model: the legacy dense install of the epoch start
    /// ([`NetKvPool::visible_snapshot`], the read oracle for the base) plus a flat
    /// overlay map the view's own traffic writes to.
    struct FlatView {
        base: NetKvPool,
        overlay: HashMap<TokenBlockHash, NetEntry>,
        origin: u64,
        delay: SimDuration,
    }

    impl FlatView {
        fn readable(&self, hash: &TokenBlockHash) -> Option<NetEntry> {
            self.overlay
                .get(hash)
                .or_else(|| self.base.state.entries.get(hash))
                .copied()
        }

        fn lookup(&self, chain: &[TokenBlockHash]) -> u64 {
            chain
                .iter()
                .take_while(|hash| self.readable(hash).is_some())
                .count() as u64
        }

        fn reload(&mut self, chain: &[TokenBlockHash], depth: u64, now: SimTime) -> NetReload {
            let mut reload = NetReload::default();
            for hash in &chain[..depth as usize] {
                let Some(entry) = self.readable(hash) else {
                    continue;
                };
                reload.bytes += BLOCK_BYTES;
                reload.propagated_blocks += u64::from(entry.propagated);
                if entry.last_used < now {
                    self.overlay.insert(
                        *hash,
                        NetEntry {
                            last_used: now,
                            ..entry
                        },
                    );
                }
            }
            reload
        }

        fn spill(&mut self, chain: &[TokenBlockHash], now: SimTime) -> (u64, u64) {
            let published = now + self.delay;
            let mut written = 0;
            for hash in chain {
                let entry = match self.readable(hash) {
                    Some(entry) => NetEntry {
                        last_used: entry.last_used.max(now),
                        published: entry.published.min(published),
                        origins: entry.origins | self.origin,
                        propagated: false,
                    },
                    None => {
                        written += 1;
                        NetEntry {
                            last_used: now,
                            published,
                            origins: self.origin,
                            propagated: false,
                        }
                    }
                };
                self.overlay.insert(*hash, entry);
            }
            (written, 0)
        }

        /// Overlay entries the base does not hold: the view's growth.
        fn added(&self) -> u64 {
            self.overlay
                .keys()
                .filter(|hash| !self.base.state.entries.contains_key(hash))
                .count() as u64
        }

        fn readable_hashes(&self) -> Vec<TokenBlockHash> {
            let mut hashes: Vec<TokenBlockHash> = self
                .base
                .resident_hashes()
                .chain(self.overlay.keys().copied())
                .collect();
            hashes.sort_unstable();
            hashes.dedup();
            hashes
        }
    }

    /// The central-eviction property pin: across six propagation epochs with
    /// instances joining and draining, [`NetPoolView`]s driven by an arbitrary
    /// interleaving of lookups, reloads and spills read exactly their visible base
    /// (the legacy [`NetKvPool::visible_snapshot`] is the read oracle) plus their
    /// own overlay, step for step, and never evict; and the barrier's slot-order
    /// absorb leaves the shared pool identical to the [`FlatTier`] reference —
    /// entries, LRU, generation and eviction count.  Runs an ample
    /// pool (no eviction anywhere) and a squeezed one, where views must read past
    /// the pool's capacity and the barrier must evict.
    #[test]
    fn delta_views_match_a_flat_central_eviction_reference_across_epochs() {
        let delay = SimDuration::from_millis(250);
        for (trial, capacity) in [(1u64, 4096u64), (2, 4096), (3, 24), (4, 24), (5, 24)] {
            let squeezed = capacity < 4096;
            let mut rng = Lcg(0x9E3779B97F4A7C15 ^ trial);
            let mut shared =
                NetKvPool::new(capacity * BLOCK_BYTES, BLOCK_BYTES).with_propagation_delay(delay);
            let mut flat = FlatTier {
                capacity,
                entries: HashMap::new(),
                lru: BTreeSet::new(),
                generation: 0,
                evicted: 0,
            };
            // Pre-seed and settle, like a warm window start.
            let seed = hashes(1, 8 * BLOCK_TOKENS);
            shared.offload(&seed, SimTime::ZERO);
            shared.settle();
            for hash in &seed {
                flat.insert(
                    *hash,
                    NetEntry {
                        last_used: SimTime::ZERO,
                        published: SimTime::ZERO,
                        origins: 0,
                        propagated: false,
                    },
                );
            }

            let mut barrier_evictions = 0;
            let mut view_read_past_capacity = false;
            // Membership churn: epoch 0 starts with {0, 1}; 2 joins at epoch 1;
            // 1 drains (publishing a burst) at the end of epoch 2; 3 joins at 3.
            for epoch in 0u64..6 {
                let boundary = SimTime::from_millis(epoch * 250);
                let members: Vec<usize> = match epoch {
                    0 => vec![0, 1],
                    1 | 2 => vec![0, 1, 2],
                    _ => vec![0, 2, 3],
                };
                let mut views: Vec<(usize, NetPoolView, FlatView)> = members
                    .iter()
                    .map(|&id| {
                        let oracle = FlatView {
                            base: shared.visible_snapshot(boundary, id),
                            overlay: HashMap::new(),
                            origin: origin_bit(Some(id)),
                            delay,
                        };
                        (id, shared.view_at(boundary, id), oracle)
                    })
                    .collect();

                for step in 0..40 {
                    let slot = rng.below(members.len() as u64) as usize;
                    let now = boundary + SimDuration::from_millis(step * 5);
                    let start = (rng.below(60) * BLOCK_TOKENS as u64) as u32;
                    let blocks = 1 + rng.below(6) as usize;
                    let chain = hashes(start, blocks * BLOCK_TOKENS);
                    let (_, view, oracle) = &mut views[slot];
                    let at = format!("trial {trial} epoch {epoch} step {step}");
                    match rng.below(3) {
                        0 => assert_eq!(
                            view.lookup_prefix_blocks(&chain),
                            oracle.lookup(&chain),
                            "{at}: lookup diverged"
                        ),
                        1 => {
                            let depth = oracle.lookup(&chain);
                            assert_eq!(
                                view.reload_prefix_accounted(&chain, depth, now),
                                oracle.reload(&chain, depth, now),
                                "{at}: reload diverged"
                            );
                        }
                        _ => assert_eq!(
                            view.offload_spilled(&chain, now, now),
                            oracle.spill(&chain, now),
                            "{at}: spill diverged (a view never evicts)"
                        ),
                    }
                    assert_eq!(
                        view.resident_blocks(),
                        oracle.base.resident_blocks() + oracle.added(),
                        "{at}: residency diverged"
                    );
                    view_read_past_capacity |= view.resident_blocks() > capacity;
                }
                if epoch == 2 {
                    // The leaver's drain-to-net burst, spilled at the boundary.
                    let (_, view, oracle) = views
                        .iter_mut()
                        .find(|(id, _, _)| *id == 1)
                        .expect("instance 1 is a member until it drains");
                    let burst = hashes(900_000, 8 * BLOCK_TOKENS);
                    let at = boundary + delay;
                    assert_eq!(
                        view.offload_spilled(&burst, at, at),
                        oracle.spill(&burst, at)
                    );
                }

                for (id, view, oracle) in &views {
                    let at = format!("trial {trial} epoch {epoch} instance {id}");
                    let mut readable: Vec<TokenBlockHash> = view.resident_hashes().collect();
                    readable.sort_unstable();
                    assert_eq!(readable, oracle.readable_hashes(), "{at}: readable set");
                    for hash in &readable {
                        assert_eq!(
                            view.entry_meta(*hash),
                            oracle.readable(hash).map(|e| (e.published, e.origins)),
                            "{at}: entry metadata"
                        );
                    }
                    assert_eq!(
                        view.generation(),
                        oracle.base.generation() + oracle.added(),
                        "{at}: generation"
                    );
                }

                // The barrier, mirroring the cluster: every delta extracted before
                // the first absorb, then absorbed in slot order.
                let (deltas, overlays): (Vec<ViewDelta>, Vec<HashMap<_, _>>) = views
                    .into_iter()
                    .map(|(_, view, oracle)| (view.into_delta(), oracle.overlay))
                    .unzip();
                let evicted: u64 = deltas.into_iter().map(|delta| shared.absorb(delta)).sum();
                let flat_evicted_before = flat.evicted;
                for overlay in &overlays {
                    flat.absorb(overlay);
                }
                let at = format!("trial {trial} epoch {epoch} barrier");
                assert_eq!(
                    evicted,
                    flat.evicted - flat_evicted_before,
                    "{at}: evictions"
                );
                assert_eq!(shared.state.entries, flat.entries, "{at}: entries");
                assert_eq!(shared.state.lru, flat.lru, "{at}: LRU");
                assert_eq!(shared.generation(), flat.generation, "{at}: generation");
                assert!(shared.resident_blocks() <= capacity, "{at}: over capacity");
                shared.assert_lru_invariant();
                barrier_evictions += evicted;
            }
            if squeezed {
                assert!(
                    barrier_evictions > 0,
                    "trial {trial}: the barrier must evict"
                );
                assert!(
                    view_read_past_capacity,
                    "trial {trial}: a view must read past the pool's capacity"
                );
            } else {
                assert_eq!(
                    barrier_evictions, 0,
                    "trial {trial}: an ample pool never evicts"
                );
            }
        }
    }
}
