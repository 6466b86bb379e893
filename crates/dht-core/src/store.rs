//! Compact struct-of-arrays node store backing [`crate::sim::Membership`].
//!
//! A `BTreeMap<NodeToken, S>` scatters small state structs across
//! pointer-chased tree nodes, and a dense sorted `Vec<NodeToken>` pays an
//! O(n) `memmove` per join/leave; either caps million-node runs.
//!
//! [`CompactStore`] is three coupled structures instead:
//!
//! ```text
//!  chunks:  [ tokens ≤1024 | slots ]  [ tokens | slots ]  ...   sorted
//!              │ gallop from a position hint, else guess chunk and
//!              │ index from the point's value, bracket-checked
//!              ▼
//!  slab:    states[slot]   tokens_by_slot[slot]   loads[slot]
//!              ▲ any order, swap-remove compacted, never shifts
//!              │
//!  index:   open-addressed token → slot hash table (linear probing,
//!           backward-shift deletion)
//! ```
//!
//! * **Chunked sorted tokens** — the token order lives in bounded chunks
//!   (≤ [`CHUNK_CAP`] entries), so a join/leave shifts at most one chunk:
//!   amortized O(1) with a ~8 KiB worst-case `memmove` instead of an
//!   O(n) one. An ordered ring search returns a [`Pos`] and can start
//!   from one: steps and nearby searches never touch the chunk spine.
//! * **State slab** — states are dense `Vec<S>` entries addressed by
//!   `slot`; removal swap-removes and patches the two references (hash
//!   index + chunk) to the moved entry. Iteration in token order walks
//!   the chunks and indexes the slab — a sequential stream after a
//!   [`CompactStore::fill`], which lays the slab out in token order.
//! * **Hash index** — token → slot lookups are O(1) without touching the
//!   ordered structure; this is the `contains`/`get` hot path.
//!
//! Query-load counters (the paper's §4.2 congestion measure) are a
//! fourth parallel slab column — `loads[slot]` — so load accounting is
//! an indexed add, and departures drop the counter with the slot: a
//! departed node can never resurrect a "ghost" counter because its slot
//! is gone.
//!
//! Every read is what a `BTreeMap` from token to state would answer, in
//! the same iteration order, whatever hint it starts from; a duplicate
//! insert panics. The golden traces depend on it; the model test in
//! `sim/membership.rs` compares every read with such a map after every
//! step of arbitrary scripts.

use crate::hash::splitmix64;
use crate::overlay::NodeToken;

/// Maximum tokens per chunk before it splits in half.
///
/// 1024 × 8-byte tokens + 1024 × 4-byte slots ≈ 12 KiB per chunk: large
/// enough that the spine stays short (1M nodes ≈ 1–2k chunks), small
/// enough that the per-insert `memmove` is bounded and cache-resident.
pub const CHUNK_CAP: usize = 1024;

/// Most tokens in a chunk of a [`CompactStore::fill`]: ⅞ of
/// [`CHUNK_CAP`], so such a chunk is allocated at `CHUNK_CAP` and has
/// room for 127 more tokens before it splits.
const FILL_LEN: usize = CHUNK_CAP / 8 * 7;

/// Sentinel marking a vacant hash-table entry.
const EMPTY: u32 = u32::MAX;

/// Rough per-entry heap cost of a `BTreeMap`/`BTreeSet` with entries of
/// `entry_bytes` bytes: payload plus amortized node headers and slack
/// from B-tree fill factor. Used by overlays to report auxiliary-index
/// memory in [`crate::overlay::Overlay::state_bytes`]; an estimate, not
/// an allocator measurement.
#[must_use]
pub fn approx_btree_bytes(len: usize, entry_bytes: usize) -> usize {
    // B-tree nodes hold up to 11 entries and average ~75% fill; the
    // node header plus parent pointers amortize to roughly 16 bytes per
    // entry on top of the (padded) payload.
    len * (entry_bytes + 16)
}

/// A place in the token order of a [`CompactStore`] (chunk, index; the
/// default is the first token). Exact when fresh from a search; once the
/// store has changed, or made up, a *hint* that [`CompactStore::seek_from`]
/// checks before believing — hence a plain `Copy` value, not a borrow.
/// The default doubles as "no hint": a search from it is the cold one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pos {
    pub(crate) chunk: u32,
    pub(crate) index: u32,
}

impl Pos {
    /// A store holds at most `u32::MAX` slots, so neither part overflows.
    fn new(chunk: usize, index: usize) -> Self {
        let (chunk, index) = (chunk as u32, index as u32);
        Self { chunk, index }
    }
}

/// The hints a resolver carries along a run of refreshes: one [`Pos`] per
/// search site (own position, finger `k`, table cell ...), where that
/// site's last search ended. Inline, so a fresh one allocates nothing;
/// sites past the last slot share slots, at the cost of searches only.
#[derive(Debug, Clone)]
pub struct Hints([Pos; 64]);

impl Hints {
    /// The hint of search site number `site`.
    pub fn slot(&mut self, site: usize) -> &mut Pos {
        &mut self.0[site % 64]
    }
}

impl Default for Hints {
    fn default() -> Self {
        Self([Pos::default(); 64])
    }
}

/// First index of `items` at which `above` holds (their length if none
/// does), for an `above` that holds from some index on: doubling steps
/// outward from index `from`, then a binary search of the last step —
/// O(log distance), and two probes when `from` is the answer.
fn gallop<T>(items: &[T], from: usize, above: impl Fn(&T) -> bool) -> usize {
    let from = from.min(items.len());
    let (lo, mut hi, mut step) = (from + 1, items.len(), 1);
    let lo = if from < hi && !above(&items[from]) {
        while from + step < hi && !above(&items[from + step]) {
            step *= 2;
        }
        hi = hi.min(from + step);
        lo + step / 2
    } else {
        hi = from;
        while step <= from && above(&items[from - step]) {
            hi = from - step;
            step *= 2;
        }
        lo.saturating_sub(step)
    };
    lo + items[lo..hi].partition_point(|x| !above(x))
}

/// Where `point` sits among `len` values spread evenly over `lo..=hi`:
/// an index in `0..len`, right for uniform draws up to their spread.
/// Both distances are cut to their top 32 bits at the span's scale, so
/// nothing in all of `u64` overflows, and one `u64` division does it.
#[inline]
fn guess(point: u64, lo: u64, hi: u64, len: usize) -> usize {
    let span = hi.saturating_sub(lo).max(1);
    let scale = span.leading_zeros();
    let at = point.saturating_sub(lo).min(span) << scale >> 32;
    let share = at * len as u64 / (span << scale >> 32);
    (share as usize).min(len - 1)
}

/// One bounded run of the sorted token order.
#[derive(Debug, Clone)]
struct Chunk {
    /// Sorted live tokens in this chunk (non-empty by invariant).
    tokens: Vec<u64>,
    /// Slab slot of the matching token (`slots[i]` ↔ `tokens[i]`).
    slots: Vec<u32>,
}

impl Chunk {
    #[inline]
    fn last(&self) -> u64 {
        *self.tokens.last().expect("chunk is never empty")
    }

    fn heap_bytes(&self) -> usize {
        self.tokens.capacity() * std::mem::size_of::<u64>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// Open-addressed token → slot map (linear probing, power-of-two
/// capacity, backward-shift deletion so no tombstones accumulate).
#[derive(Debug, Clone, Default)]
struct TokenIndex {
    /// `(token, slot)`; `slot == EMPTY` marks a vacant entry.
    entries: Vec<(u64, u32)>,
    len: usize,
}

impl TokenIndex {
    /// An empty index at the capacity `count` inserts grow one to.
    fn sized_for(count: usize) -> Self {
        let mut cap = 0;
        while count * 4 > cap * 3 {
            cap = (cap * 2).max(16);
        }
        let entries = vec![(0, EMPTY); cap];
        Self { entries, len: 0 }
    }

    #[inline]
    fn probe_start(&self, token: u64) -> usize {
        (splitmix64(token) as usize) & (self.entries.len() - 1)
    }

    /// Index of `token`'s entry, if present.
    #[inline]
    fn find(&self, token: u64) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = self.probe_start(token);
        loop {
            let (t, s) = self.entries[i];
            if s == EMPTY {
                return None;
            }
            if t == token {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, token: u64) -> Option<u32> {
        self.find(token).map(|i| self.entries[i].1)
    }

    /// Inserts a new token. Caller guarantees it is absent.
    fn insert(&mut self, token: u64, slot: u32) {
        if (self.len + 1) * 4 > self.entries.len() * 3 {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut i = self.probe_start(token);
        while self.entries[i].1 != EMPTY {
            debug_assert_ne!(self.entries[i].0, token, "token already indexed");
            i = (i + 1) & mask;
        }
        self.entries[i] = (token, slot);
        self.len += 1;
    }

    /// Redirects an existing token to a new slot (after a swap-remove
    /// moved its state).
    fn set_slot(&mut self, token: u64, slot: u32) {
        let i = self.find(token).expect("token must be indexed");
        self.entries[i].1 = slot;
    }

    /// Removes a token, returning its slot. Backward-shift deletion
    /// keeps probe sequences intact without tombstones.
    fn remove(&mut self, token: u64) -> Option<u32> {
        let mut hole = self.find(token)?;
        let slot = self.entries[hole].1;
        let mask = self.entries.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let (t, s) = self.entries[j];
            if s == EMPTY {
                break;
            }
            let ideal = (splitmix64(t) as usize) & mask;
            // The entry at `j` may slide into the hole only if its ideal
            // position is not cyclically inside (hole, j] — otherwise the
            // move would break its own probe chain.
            let blocked = if hole < j {
                ideal > hole && ideal <= j
            } else {
                ideal > hole || ideal <= j
            };
            if !blocked {
                self.entries[hole] = self.entries[j];
                hole = j;
            }
        }
        self.entries[hole] = (0, EMPTY);
        self.len -= 1;
        Some(slot)
    }

    fn grow(&mut self) {
        let cap = (self.entries.len() * 2).max(16);
        let old = std::mem::replace(&mut self.entries, vec![(0, EMPTY); cap]);
        let mask = cap - 1;
        for (t, s) in old {
            if s != EMPTY {
                let mut i = (splitmix64(t) as usize) & mask;
                while self.entries[i].1 != EMPTY {
                    i = (i + 1) & mask;
                }
                self.entries[i] = (t, s);
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u32)>()
    }
}

/// Compact struct-of-arrays node store: chunked sorted token order, a
/// swap-remove state slab, per-slot query-load counters, and a hash
/// index from token to slot. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct CompactStore<S> {
    chunks: Vec<Chunk>,
    states: Vec<S>,
    /// Token owning each slab slot (`tokens_by_slot[slot]`).
    tokens_by_slot: Vec<u64>,
    /// Query-load counter per slab slot.
    loads: Vec<u64>,
    index: TokenIndex,
}

impl<S> Default for CompactStore<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> CompactStore<S> {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self {
            chunks: Vec::new(),
            states: Vec::new(),
            tokens_by_slot: Vec::new(),
            loads: Vec::new(),
            index: TokenIndex::default(),
        }
    }

    /// The store that inserting each of `draw`'s tokens not yet live
    /// builds, up to the `count`-th, with `state` called in token order
    /// and the slab laid out in it. `draw` is called exactly as often as
    /// such a loop calls it. Below one full chunk every capacity is the
    /// loop's too; above, chunks are ⅞ full (DESIGN.md §12).
    pub fn fill(
        count: usize,
        mut draw: impl FnMut() -> NodeToken,
        mut state: impl FnMut(NodeToken) -> S,
    ) -> Self {
        let mut index = TokenIndex::sized_for(count);
        let mut tokens = Vec::with_capacity(count);
        while tokens.len() < count {
            let token = draw();
            if index.get(token).is_none() {
                index.insert(token, 0);
                tokens.push(token);
            }
        }
        tokens.sort_unstable();
        let mut store = Self {
            index,
            ..Self::new()
        };
        for (slot, &token) in (0u32..).zip(&tokens) {
            store.index.set_slot(token, slot);
            store.states.push(state(token));
            store.tokens_by_slot.push(token);
            store.loads.push(0);
        }
        let mut rest = &tokens[..];
        for left in (1..=count.div_ceil(FILL_LEN)).rev() {
            let first = (count - rest.len()) as u32;
            let (run, tail) = rest.split_at(rest.len() / left);
            // A Vec grows 1 → 4 → 8 …, so an inserted chunk of `len ≥ 3`
            // tokens holds `len.next_power_of_two()`, and one of two holds 4.
            let cap = if run.len() == 2 {
                4
            } else {
                run.len().next_power_of_two()
            };
            let mut chunk = Chunk {
                tokens: Vec::with_capacity(cap),
                slots: Vec::with_capacity(cap),
            };
            chunk.tokens.extend_from_slice(run);
            chunk.slots.extend(first..first + run.len() as u32);
            store.chunks.push(chunk);
            rest = tail;
        }
        store
    }

    /// Number of live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` iff no node is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// `true` iff `token` is live.
    #[must_use]
    pub fn contains(&self, token: NodeToken) -> bool {
        self.index.get(token).is_some()
    }

    /// State of a live node.
    #[must_use]
    pub fn get(&self, token: NodeToken) -> Option<&S> {
        self.index
            .get(token)
            .map(|slot| &self.states[slot as usize])
    }

    /// Mutable state of a live node.
    pub fn get_mut(&mut self, token: NodeToken) -> Option<&mut S> {
        self.index
            .get(token)
            .map(|slot| &mut self.states[slot as usize])
    }

    /// Inserts a new node with a zeroed query-load counter.
    ///
    /// # Panics
    /// Panics if `token` is already live: joins must re-draw identifiers
    /// on collision.
    pub fn insert(&mut self, token: NodeToken, state: S) {
        assert!(
            self.index.get(token).is_none(),
            "node token {token} already occupied"
        );
        let slot = u32::try_from(self.states.len()).expect("slab exceeds u32 slots");
        self.states.push(state);
        self.tokens_by_slot.push(token);
        self.loads.push(0);
        self.index.insert(token, slot);

        if self.chunks.is_empty() {
            self.chunks.push(Chunk {
                tokens: vec![token],
                slots: vec![slot],
            });
            return;
        }
        // Before the first token above it, or at the very end.
        let last = self.chunks.len() - 1;
        let end = (last, self.chunks[last].tokens.len());
        let at = self.seek(token);
        let (ci, pos) = at.map_or(end, |p| (p.chunk as usize, p.index as usize));
        let chunk = &mut self.chunks[ci];
        chunk.tokens.insert(pos, token);
        chunk.slots.insert(pos, slot);
        if chunk.tokens.len() >= CHUNK_CAP {
            let mid = chunk.tokens.len() / 2;
            let hi_tokens = chunk.tokens.split_off(mid);
            let hi_slots = chunk.slots.split_off(mid);
            self.chunks.insert(
                ci + 1,
                Chunk {
                    tokens: hi_tokens,
                    slots: hi_slots,
                },
            );
        }
    }

    /// Removes a node, dropping its query-load counter. Returns the
    /// state if the node was live.
    pub fn remove(&mut self, token: NodeToken) -> Option<S> {
        let slot = self.index.remove(token)? as usize;

        // Drop the ordered entry.
        let at = self.position_of(&mut Pos::default(), token);
        let at = at.expect("ordered view out of sync with index");
        let (ci, pos) = (at.chunk as usize, at.index as usize);
        let chunk = &mut self.chunks[ci];
        chunk.tokens.remove(pos);
        chunk.slots.remove(pos);
        if chunk.tokens.is_empty() {
            self.chunks.remove(ci);
        }

        // Swap-remove the slab entry and patch references to the moved
        // tail entry (if any).
        let state = self.states.swap_remove(slot);
        self.tokens_by_slot.swap_remove(slot);
        self.loads.swap_remove(slot);
        if slot < self.states.len() {
            let moved = self.tokens_by_slot[slot];
            let new_slot = u32::try_from(slot).expect("slot fits u32");
            self.index.set_slot(moved, new_slot);
            let at = self.position_of(&mut Pos::default(), moved);
            let at = at.expect("moved token missing from ordered view");
            self.chunks[at.chunk as usize].slots[at.index as usize] = new_slot;
        }
        Some(state)
    }

    /// Live tokens in ascending order.
    #[must_use]
    pub fn tokens(&self) -> Vec<NodeToken> {
        let mut out = Vec::with_capacity(self.len());
        for c in &self.chunks {
            out.extend_from_slice(&c.tokens);
        }
        out
    }

    /// The `i`-th smallest live token — the indexed draw behind
    /// [`crate::overlay::Overlay::random_node`] — in O(#chunks) ≈ O(n/1024).
    #[must_use]
    pub fn nth_token(&self, i: usize) -> Option<NodeToken> {
        let mut before = 0;
        for c in &self.chunks {
            let n = c.tokens.len();
            if i < before + n {
                return Some(c.tokens[i - before]);
            }
            before += n;
        }
        None
    }

    /// Iterates live tokens in ascending order without allocating.
    pub fn token_iter(&self) -> impl Iterator<Item = NodeToken> + '_ {
        self.chunks.iter().flat_map(|c| c.tokens.iter().copied())
    }

    /// Smallest live token.
    #[must_use]
    pub fn first_token(&self) -> Option<NodeToken> {
        self.chunks.first().map(|c| c.tokens[0])
    }

    /// Iterates `(token, state)` pairs in ascending token order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeToken, &S)> {
        self.chunks.iter().flat_map(move |c| {
            c.tokens
                .iter()
                .zip(&c.slots)
                .map(move |(&t, &slot)| (t, &self.states[slot as usize]))
        })
    }

    /// Iterates node states in ascending token order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.iter().map(|(_, s)| s)
    }

    // ------------------------------------------------------------------
    // Positions, and ordered ring searches that start from a hint
    // ------------------------------------------------------------------

    /// The cold search. Identifiers are uniform draws, so `point`'s value
    /// guesses its chunk, which a gallop from the guess checks against
    /// the chunk lasts either side (two probes when it is right), then its
    /// index in the chunk. Every branch compares tokens, so skewed draws
    /// cost probes, never answers.
    fn seek(&self, point: u64) -> Option<Pos> {
        let (first, last) = (self.first_token()?, self.chunks.last()?.last());
        if point > last {
            return None;
        }
        let c = guess(point, first, last, self.chunks.len());
        let c = gallop(&self.chunks, c, |chunk| point <= chunk.last());
        let floor = c.checked_sub(1).map_or(first, |b| self.chunks[b].last());
        let tokens = &self.chunks[c].tokens;
        let m = tokens.len();
        let i = guess(point, floor, tokens[m - 1], m);
        // Five probes a cache line apart, loaded together, cover ±16 tokens
        // round the guess (a uniform chunk's rank error spreads at most
        // √896 / 2 ≈ 15); how many fall below `point` leaves a gap of 7
        // tokens to search, or the chunk's end past the outer ones.
        let probe = |j: usize| (i + 8 * j).saturating_sub(16).min(m - 1);
        let k = (0..5).filter(|&j| tokens[probe(j)] < point).count();
        let lo = if k == 0 { 0 } else { probe(k - 1) + 1 };
        let hi = if k == 5 { m } else { probe(k) };
        let i = lo + tokens[lo..hi].partition_point(|&t| t < point);
        Some(Pos::new(c, i))
    }

    /// Position of the first live token `>= point`, without wrapping,
    /// searched from `hint`: if the hinted chunk or the one after it
    /// brackets `point`, a gallop from the hinted index, else the cold
    /// search. Every branch compares tokens, so the answer is the cold
    /// search's for any `hint` at all; a wrong one costs two probes more
    /// than the cold search, which the default `Pos` goes to at once. The
    /// cold search guesses from `point` itself, so a hint pays only when
    /// it is near: a run of nearby searches, or a step along the ring.
    #[must_use]
    pub fn seek_from(&self, hint: Pos, point: u64) -> Option<Pos> {
        let (mut c, mut from) = (hint.chunk as usize, hint.index as usize);
        let hinted = self.chunks.get(c).filter(|_| hint != Pos::default());
        let Some(mut chunk) = hinted else {
            return self.seek(point);
        };
        if chunk.last() < point {
            (c, from) = (c + 1, 0);
            match self.chunks.get(c) {
                Some(next) if point <= next.last() => chunk = next,
                _ => return self.seek(point),
            }
        } else if c > 0 && point < chunk.tokens[0] {
            return self.seek(point);
        }
        Some(Pos::new(c, gallop(&chunk.tokens, from, |&t| point <= t)))
    }

    /// The token at `pos`. Panics — as `next`, `prev` and `state_at_mut`
    /// do — on a `pos` no search of the store as it is now returned.
    #[must_use]
    pub fn token_at(&self, pos: Pos) -> NodeToken {
        self.chunks[pos.chunk as usize].tokens[pos.index as usize]
    }

    /// Mutable state of the node at `pos`, found through the chunk's slot
    /// column: no hash probe.
    pub fn state_at_mut(&mut self, pos: Pos) -> &mut S {
        let slot = self.chunks[pos.chunk as usize].slots[pos.index as usize];
        &mut self.states[slot as usize]
    }

    /// The position after `pos`, wrapping to the first token.
    #[must_use]
    pub fn next(&self, pos: Pos) -> Pos {
        let (c, i) = (pos.chunk as usize, pos.index as usize + 1);
        if i < self.chunks[c].tokens.len() {
            return Pos::new(c, i);
        }
        Pos::new(if c + 1 < self.chunks.len() { c + 1 } else { 0 }, 0)
    }

    /// The position before `pos`, wrapping to the last token.
    #[must_use]
    pub fn prev(&self, pos: Pos) -> Pos {
        let (c, i) = (pos.chunk as usize, pos.index as usize);
        if i > 0 {
            return Pos::new(c, i - 1);
        }
        let c = c.checked_sub(1).unwrap_or(self.chunks.len() - 1);
        Pos::new(c, self.chunks[c].tokens.len() - 1)
    }

    /// Position of the first live token `>= point`, wrapping to the
    /// smallest; `None` on an empty store. Searched from `hint`, which is
    /// left at the answer for the next search from the same site.
    pub fn successor_from(&self, hint: &mut Pos, point: u64) -> Option<Pos> {
        let first = || (!self.is_empty()).then(Pos::default);
        *hint = self.seek_from(*hint, point).or_else(first)?;
        Some(*hint)
    }

    /// Position of the last live token `< point`, wrapping to the
    /// largest; hinted as [`Self::successor_from`] is.
    pub fn predecessor_from(&self, hint: &mut Pos, point: u64) -> Option<Pos> {
        self.successor_from(hint, point).map(|p| self.prev(p))
    }

    /// Position of the last live token `<= point`, wrapping to the
    /// largest; hinted as [`Self::successor_from`] is.
    pub fn at_or_before_from(&self, hint: &mut Pos, point: u64) -> Option<Pos> {
        let p = self.successor_from(hint, point)?;
        let exact = self.token_at(p) == point;
        Some(if exact { p } else { self.prev(p) })
    }

    /// Position of the live token `token`, hinted as
    /// [`Self::successor_from`] is; `None` if it has departed.
    pub fn position_of(&self, hint: &mut Pos, token: NodeToken) -> Option<Pos> {
        let p = self.successor_from(hint, token)?;
        (self.token_at(p) == token).then_some(p)
    }

    /// First live token `>= point`, wrapping to the smallest.
    #[must_use]
    pub fn successor_of(&self, point: u64) -> Option<NodeToken> {
        let p = self.successor_from(&mut Pos::default(), point)?;
        Some(self.token_at(p))
    }

    // ------------------------------------------------------------------
    // Query-load accounting (dense, slot-indexed)
    // ------------------------------------------------------------------

    /// Adds `k` to `token`'s query-load counter (no-op if departed).
    pub fn add_load(&mut self, token: NodeToken, k: u64) {
        if let Some(slot) = self.index.get(token) {
            self.loads[slot as usize] += k;
        }
    }

    /// Current query-load counter of `token` (zero if departed).
    #[must_use]
    pub fn load_of(&self, token: NodeToken) -> u64 {
        self.index
            .get(token)
            .map_or(0, |slot| self.loads[slot as usize])
    }

    /// Per-node query loads in ascending token order.
    #[must_use]
    pub fn loads_vec(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        for c in &self.chunks {
            out.extend(c.slots.iter().map(|&slot| self.loads[slot as usize]));
        }
        out
    }

    /// Sum of all query-load counters.
    #[must_use]
    pub fn loads_total(&self) -> u64 {
        self.loads.iter().sum()
    }

    /// Zeroes every query-load counter.
    pub fn reset_loads(&mut self) {
        self.loads.iter_mut().for_each(|l| *l = 0);
    }

    // ------------------------------------------------------------------
    // Memory accounting
    // ------------------------------------------------------------------

    /// Heap bytes held by the store itself (chunk spine, state slab,
    /// load counters, hash index), from `Vec` capacities. Per-state
    /// heap payloads (e.g. a Chord finger table) are reported separately
    /// by the overlay via `SimOverlay::heap_beyond_rows`.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let chunk_bytes: usize = self.chunks.iter().map(Chunk::heap_bytes).sum();
        self.chunks.capacity() * std::mem::size_of::<Chunk>()
            + chunk_bytes
            + self.states.capacity() * std::mem::size_of::<S>()
            + self.tokens_by_slot.capacity() * std::mem::size_of::<u64>()
            + self.loads.capacity() * std::mem::size_of::<u64>()
            + self.index.heap_bytes()
    }

    /// Internal consistency check used by tests: every token reachable
    /// through the ordered view resolves to its own slot through the
    /// hash index, chunks are sorted and non-empty, and the slab columns
    /// agree.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        assert_eq!(self.states.len(), self.tokens_by_slot.len());
        assert_eq!(self.states.len(), self.loads.len());
        assert_eq!(self.index.len, self.states.len());
        let mut count = 0;
        let mut prev: Option<u64> = None;
        for c in &self.chunks {
            assert!(!c.tokens.is_empty(), "empty chunk survived");
            assert!(c.tokens.len() < CHUNK_CAP, "chunk exceeded capacity");
            assert_eq!(c.tokens.len(), c.slots.len());
            for (&t, &slot) in c.tokens.iter().zip(&c.slots) {
                assert!(prev.is_none_or(|p| p < t), "tokens out of order");
                prev = Some(t);
                assert_eq!(self.tokens_by_slot[slot as usize], t, "slot mismatch");
                assert_eq!(self.index.get(t), Some(slot), "index mismatch");
                count += 1;
            }
        }
        assert_eq!(count, self.states.len(), "ordered view lost entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<S> CompactStore<S> {
        /// `true` iff slot order is token order, as `fill` leaves it (for
        /// the model test in `sim/membership.rs`).
        pub(crate) fn slab_is_ordered(&self) -> bool {
            self.tokens_by_slot.windows(2).all(|w| w[0] < w[1])
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: CompactStore<String> = CompactStore::new();
        s.insert(10, "a".into());
        s.insert(5, "b".into());
        s.insert(20, "c".into());
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(5).map(String::as_str), Some("b"));
        assert_eq!(s.tokens(), vec![5, 10, 20]);
        assert_eq!(s.remove(10).as_deref(), Some("a"));
        assert_eq!(s.remove(10), None);
        assert_eq!(s.tokens(), vec![5, 20]);
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn duplicate_insert_panics() {
        let mut s: CompactStore<u32> = CompactStore::new();
        s.insert(1, 0);
        s.insert(1, 0);
    }

    #[test]
    fn ordered_queries_on_empty_store() {
        let s: CompactStore<()> = CompactStore::new();
        assert_eq!(s.successor_of(0), None);
        assert_eq!(s.predecessor_from(&mut Pos::default(), 0), None);
        assert_eq!(s.at_or_before_from(&mut Pos::default(), 0), None);
        assert_eq!(s.nth_token(0), None);
        assert_eq!(s.first_token(), None);
    }

    #[test]
    fn loads_survive_swap_remove_without_ghosts() {
        let mut s: CompactStore<()> = CompactStore::new();
        for t in [3, 9, 14, 27] {
            s.insert(t, ());
        }
        s.add_load(9, 2);
        s.add_load(27, 5);
        s.add_load(3, 1);
        assert_eq!(s.loads_vec(), vec![1, 2, 0, 5]);
        assert_eq!(s.loads_total(), 8);
        // Removing 9 must drop its counter and keep the others intact
        // even though the slab swap moves another entry into its slot.
        s.remove(9);
        assert_eq!(s.loads_vec(), vec![1, 0, 5]);
        assert_eq!(s.load_of(9), 0);
        // A departed node's counter never resurrects.
        s.add_load(9, 100);
        assert_eq!(s.loads_total(), 6);
        // Rejoin starts back at zero.
        s.insert(9, ());
        assert_eq!(s.load_of(9), 0);
        assert_eq!(s.loads_vec(), vec![1, 0, 0, 5]);
        s.reset_loads();
        assert_eq!(s.loads_total(), 0);
    }

    #[test]
    fn state_at_mut_follows_token_order_not_slab_order() {
        let mut s: CompactStore<u64> = CompactStore::new();
        for (i, t) in [50u64, 10, 30, 20, 40].iter().enumerate() {
            s.insert(*t, i as u64);
        }
        // Force slab disorder via removals.
        s.remove(30);
        s.insert(35, 99);
        // Token order 10,20,35,40,50 → insertion values 1,3,99,4,0.
        let mut pos = Pos::default();
        for want in [1, 3, 99, 4, 0] {
            assert_eq!(*s.state_at_mut(pos), want);
            *s.state_at_mut(pos) += 1;
            pos = s.next(pos);
        }
        assert_eq!(s.get(35), Some(&100));
    }

    #[test]
    fn chunks_split_and_drain() {
        let mut s: CompactStore<()> = CompactStore::new();
        let n = CHUNK_CAP * 3 + 17;
        for t in 0..n as u64 {
            s.insert(t, ());
        }
        assert!(s.chunks.len() > 1, "expected chunk splits");
        s.check_invariants();
        assert_eq!(s.nth_token(CHUNK_CAP + 5), Some((CHUNK_CAP + 5) as u64));
        for t in 0..n as u64 {
            assert!(s.remove(t).is_some());
        }
        assert!(s.is_empty());
        assert!(s.chunks.is_empty(), "drained chunks must be dropped");
        s.check_invariants();
    }

    /// `next` from the first position passes every token once, ascending,
    /// and wraps to the first; `prev` undoes it.
    fn assert_steps_round_the_ring(s: &CompactStore<()>) {
        let tokens = s.tokens();
        let (mut fwd, mut back) = (Pos::default(), Pos::default());
        for i in 0..tokens.len() {
            assert_eq!(s.token_at(fwd), tokens[i], "next, step {i}");
            assert_eq!(s.prev(s.next(fwd)), fwd);
            fwd = s.next(fwd);
            back = s.prev(back);
            assert_eq!(
                s.token_at(back),
                tokens[tokens.len() - 1 - i],
                "prev, step {i}"
            );
        }
        assert_eq!((fwd, back), (Pos::default(), Pos::default()), "no wrap");
    }

    #[test]
    fn positions_step_and_wrap_at_every_chunk_shape() {
        for n in [1, 2, CHUNK_CAP - 1, CHUNK_CAP + 1, 3 * CHUNK_CAP] {
            let mut s: CompactStore<()> = CompactStore::new();
            (0..n as u64).for_each(|t| s.insert(3 * t, ()));
            assert_eq!(s.chunks.len() > 1, n >= CHUNK_CAP, "n = {n}");
            assert_steps_round_the_ring(&s);
        }
        // Across a chunk that emptied and was dropped: a run of tokens
        // longer than two chunks can be holds at least one whole chunk.
        let mut s: CompactStore<()> = CompactStore::new();
        (0..3 * CHUNK_CAP as u64).for_each(|t| s.insert(t, ()));
        let chunks = s.chunks.len();
        for t in (CHUNK_CAP / 2) as u64..(5 * CHUNK_CAP / 2) as u64 {
            s.remove(t);
        }
        assert!(s.chunks.len() < chunks, "no chunk emptied");
        s.check_invariants();
        assert_steps_round_the_ring(&s);
    }

    #[test]
    fn gallop_finds_the_lower_bound_from_every_start() {
        let tokens: Vec<u64> = (0..40).map(|t| 10 * t + 5).collect();
        for len in [0, 1, 2, 7, 40] {
            let tokens = &tokens[..len];
            for point in 0..=(10 * len as u64 + 10) {
                let want = tokens.partition_point(|&t| t < point);
                for from in 0..len + 3 {
                    assert_eq!(
                        gallop(tokens, from, |&t| point <= t),
                        want,
                        "{len} {from} {point}"
                    );
                }
            }
        }
    }

    /// The `i`-th draw of shape `shape`: uniform over `u64`, or spread so
    /// that a token's value predicts its rank badly — runs clustered at
    /// five centres, gaps that grow geometrically up the order, or a
    /// narrow band plus the two ends of the range.
    fn skewed_draw(shape: u8, seed: u64, i: u64) -> u64 {
        let mix = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9));
        match shape {
            0 => mix,
            1 => splitmix64(seed ^ (mix % 5)).wrapping_add(mix >> 44),
            2 => (mix | 1) >> (mix % 64),
            _ => match mix % 97 {
                0 => 0,
                1 => u64::MAX,
                _ => (1 << 62) + (mix >> 8) % (1 << 15),
            },
        }
    }

    /// `hint`'s searches at `p` against the sorted `tokens` the store holds:
    /// the unwrapped `seek_from`, and the wrapping ones that start from
    /// `hint` (the default among them).
    fn check_searches_at(s: &CompactStore<u64>, tokens: &[u64], p: u64, hint: Pos) {
        let at = |pos: Option<Pos>| pos.map(|pos| s.token_at(pos));
        let ge = tokens.partition_point(|&t| t < p);
        let gt = tokens.partition_point(|&t| t <= p);
        let wrap = |i: usize| tokens.get(i).or(tokens.first()).copied();
        let before = |i: usize| tokens.get(i.wrapping_sub(1)).or(tokens.last()).copied();
        assert_eq!(
            at(s.seek_from(hint, p)),
            tokens.get(ge).copied(),
            "seek_from({hint:?}, {p})"
        );
        assert_eq!(s.successor_of(p), wrap(ge), "successor_of({p})");
        let live = tokens.get(ge).filter(|&&t| t == p).copied();
        assert_eq!(
            at(s.position_of(&mut { hint }, p)),
            live,
            "position_of({hint:?}, {p})"
        );
        let got = at(s.predecessor_from(&mut { hint }, p));
        assert_eq!(got, before(ge), "predecessor_from({hint:?}, {p})");
        let got = at(s.at_or_before_from(&mut { hint }, p));
        assert_eq!(got, before(gt), "at_or_before_from({hint:?}, {p})");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Every ordered search answers what a sorted `Vec` answers on
        /// stores of up to four chunks whose tokens are drawn uniformly or
        /// skewed, built by `fill` or by inserts with every third draw
        /// removed again: at every token, at both its neighbours and at
        /// random points, from the default position and from made-up ones.
        #[test]
        fn searches_match_a_sorted_vec_on_skewed_stores(
            count in 0..=4 * CHUNK_CAP,
            shape in 0u8..4,
            seed in proptest::prelude::any::<u64>(),
            filled in proptest::prelude::any::<bool>(),
            hints in proptest::collection::vec((0u32..8, 0u32..1100), 1..8),
            points in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..64),
        ) {
            // The distinct draws, in draw order.
            let wanted = if filled { count } else { count + count / 2 };
            let mut seen = std::collections::HashSet::new();
            let distinct: Vec<u64> = (0..)
                .map(|i| skewed_draw(shape, seed, i))
                .filter(|&t| seen.insert(t))
                .take(wanted)
                .collect();
            let (s, mut tokens) = if filled {
                let mut i = 0;
                let draw = || {
                    i += 1;
                    skewed_draw(shape, seed, i - 1)
                };
                (CompactStore::fill(count, draw, |t| t), distinct)
            } else {
                let mut s = CompactStore::new();
                distinct.iter().for_each(|&t| s.insert(t, t));
                let (gone, kept): (Vec<_>, Vec<_>) =
                    distinct.iter().enumerate().partition(|(i, _)| i % 3 == 2);
                gone.into_iter().for_each(|(_, &t)| assert_eq!(s.remove(t), Some(t)));
                (s, kept.into_iter().map(|(_, &t)| t).collect())
            };
            tokens.sort_unstable();
            s.check_invariants();
            proptest::prop_assert_eq!(s.tokens(), tokens.clone());
            let mut all: Vec<u64> = tokens
                .iter()
                .flat_map(|&t| [t.wrapping_sub(1), t, t.wrapping_add(1)])
                .chain(points.iter().copied())
                .chain([0, u64::MAX])
                .collect();
            all.sort_unstable();
            for (i, &p) in all.iter().enumerate() {
                let (chunk, index) = hints[i % hints.len()];
                check_searches_at(&s, &tokens, p, Pos::default());
                check_searches_at(&s, &tokens, p, Pos { chunk, index });
            }
        }
    }

    #[test]
    fn heap_bytes_tracks_population() {
        let mut s: CompactStore<[u64; 4]> = CompactStore::new();
        let empty = s.heap_bytes();
        for t in 0..1000u64 {
            s.insert(t, [t; 4]);
        }
        let full = s.heap_bytes();
        assert!(full > empty);
        // At least the raw payload must be accounted for.
        assert!(full >= 1000 * std::mem::size_of::<[u64; 4]>());
    }
}
