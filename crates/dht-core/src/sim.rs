//! Shared simulation substrate for the overlay implementations.
//!
//! Every overlay crate in this workspace is a *simulator* in the
//! paper's sense: all node states live in one structure, and protocol
//! actions mutate exactly the state the real protocol would mutate.
//! Before this module existed each overlay copy-pasted the same three
//! concerns; the substrate owns them once:
//!
//! 1. **Membership** — [`Membership`] is the arena of live node
//!    states, keyed by [`NodeToken`], with deterministic (token-sorted)
//!    iteration order, identifier allocation for joins, wrapping ring
//!    searches, and liveness checks.
//! 2. **Query-load accounting** — [`QueryLoads`] tracks the per-node
//!    lookup-message counters of the paper's §4.2 congestion measure,
//!    kept in lockstep with the membership so a counter exists exactly
//!    for the live nodes.
//! 3. **The iterative lookup walk** — [`WalkCursor`] drives a lookup
//!    hop by hop: it owns the hop budget, the per-step timeout
//!    de-duplication for stale entries, query-load counting, and
//!    [`LookupTrace`] recording. The overlay only answers the pure
//!    per-hop question "from here, which candidates would you try next,
//!    in what order?" through [`SimOverlay::next_hop`].
//!
//! # One way to walk
//!
//! Every lookup is `WalkCursor::begin` → `step`* → `finish`. The cursor
//! is *read-only* on the overlay: it routes against `&T` and yields the
//! trace **plus** a [`WalkEffects`] record of everything a mutating
//! walk would have done in place — query-load increments,
//! repair-on-use evictions, exhaustion accounting, and trace events —
//! which [`apply_effects`] plays back against `&mut T`. A
//! discrete-event driver steps a cursor one hop per reply event
//! ([`LookupCursor`]) and the batch executor steps a handful in turn;
//! everything else calls [`WalkCursor::run`], the same loop run to the
//! end in place. [`walk_from`] is the one mutating convenience —
//! `run` + immediate application — so overlays keep their sequential
//! semantics (a repair made by lookup *k* is visible to lookup
//! *k + 1*).
//!
//! [`ParallelExecutor`] builds on the same split: it shards a batch of
//! lookups across workers that all step cursors against one snapshot,
//! then merges the effect records in canonical workload
//! order. Together with the order-independent fault draws of
//! [`crate::net::NetConditions`], every aggregate, query-load table,
//! and trace byte is identical for any worker count — including one.
//! The one semantic difference from [`walk_from`] is *within a batch*:
//! repair-on-use is applied after the whole batch routes, so all
//! lookups of a batch see the same snapshot (see DESIGN.md, "Parallel
//! execution").
//!
//! Implementing [`SimOverlay`] yields [`Overlay`] for free through a
//! blanket impl, so the experiment harness drives every overlay —
//! including future ones — through one interface with no per-crate
//! glue.
//!
//! # Adding an overlay
//!
//! Define a network type holding a `Membership<YourNodeState>`, pick a
//! per-walk state type (usually the mapped key plus any cursor the
//! routing algorithm threads through hops), and implement the required
//! [`SimOverlay`] methods. Override the defaulted hooks only where the
//! protocol deviates: [`SimOverlay::admit`] for candidate filters
//! beyond liveness, [`SimOverlay::on_hop`] for per-hop *walk-state*
//! bookkeeping (cursor advancement, visited sets),
//! [`SimOverlay::repair_on_use`] / [`SimOverlay::record_exhausted`]
//! for deferred *network-state* mutations (stale-entry eviction,
//! failure counters), [`SimOverlay::on_exhausted`] /
//! [`SimOverlay::classify_terminal`] for outcome classification, and
//! [`SimOverlay::budget_before_terminal`] when the protocol checks its
//! termination test before the hop budget.

use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;

use rand::RngCore;

use crate::audit::{AuditReport, AuditScope};
use crate::corrupt::{CorruptionPlan, CorruptionReport};
use crate::hash::IdAllocator;
use crate::inline::InlineVec;
use crate::lookup::{HopPhase, LookupOutcome, LookupTrace};
use crate::net::{NetConditions, NetCosts};
use crate::obs::{Event, Phase, PhaseAccountant, PhaseCosts, SinkHandle, TimeoutKind};
use crate::overlay::{NodeToken, Overlay};
use crate::store::{approx_btree_bytes, CompactStore};

/// Per-node lookup-message counters (the paper's §4.2 congestion
/// measure), tracked for exactly the current live membership.
///
/// Counters are created at zero when a node is tracked and dropped when
/// it is untracked; counting a query for an untracked token is a no-op,
/// so departed nodes never resurrect a counter.
#[derive(Debug, Clone, Default)]
pub struct QueryLoads {
    counts: BTreeMap<NodeToken, u64>,
}

impl QueryLoads {
    /// Empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts tracking `node` at zero (keeps an existing counter).
    pub fn track(&mut self, node: NodeToken) {
        self.counts.entry(node).or_insert(0);
    }

    /// Stops tracking `node`, dropping its counter.
    pub fn untrack(&mut self, node: NodeToken) {
        self.counts.remove(&node);
    }

    /// Increments `node`'s counter if it is tracked.
    pub fn count(&mut self, node: NodeToken) {
        self.add(node, 1);
    }

    /// Adds `k` to `node`'s counter if it is tracked (no-op otherwise).
    pub fn add(&mut self, node: NodeToken, k: u64) {
        if let Some(c) = self.counts.get_mut(&node) {
            *c += k;
        }
    }

    /// Current counter of `node` (zero if untracked).
    #[must_use]
    pub fn get(&self, node: NodeToken) -> u64 {
        self.counts.get(&node).copied().unwrap_or(0)
    }

    /// Number of tracked nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` iff no node is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// All counters in token order.
    #[must_use]
    pub fn as_vec(&self) -> Vec<u64> {
        self.counts.values().copied().collect()
    }

    /// Sum of all counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Zeroes every counter (tracking set unchanged).
    pub fn reset(&mut self) {
        for c in self.counts.values_mut() {
            *c = 0;
        }
    }
}

/// The node arena shared by every overlay simulator: live node states
/// keyed by [`NodeToken`], the query-load counters kept in lockstep,
/// and the deterministic identifier allocator used by joins.
///
/// Iteration is always in ascending token order, which makes every
/// derived quantity (load vectors, token lists, tie-breaks) independent
/// of insertion history.
#[derive(Debug, Clone)]
pub struct Membership<S> {
    store: Store<S>,
    alloc: IdAllocator,
    net: NetConditions,
    sink: SinkHandle,
    accountant: PhaseAccountant,
}

/// Selects the backing representation of a [`Membership`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// The original `BTreeMap` + dense-sorted-mirror backend, retained
    /// as the reference implementation for the old-vs-new equivalence
    /// suite (`tests/compact_membership.rs`). O(n) memmove per
    /// join/leave — do not use at million-node scale.
    Legacy,
    /// The chunked struct-of-arrays backend
    /// ([`crate::store::CompactStore`]): amortized O(1) join/leave,
    /// dense state slab, O(1) token → state lookups. The default.
    Compact,
}

thread_local! {
    static DEFAULT_STORE_KIND: Cell<StoreKind> = const { Cell::new(StoreKind::Compact) };
}

/// The [`StoreKind`] that [`Membership::new`] uses on this thread.
#[must_use]
pub fn default_store_kind() -> StoreKind {
    DEFAULT_STORE_KIND.with(Cell::get)
}

/// Overrides the backend used by subsequently constructed
/// [`Membership`]s on this thread. This exists so equivalence tests can
/// build entire overlays on the legacy backend without threading a
/// store parameter through every overlay constructor; production code
/// should leave the default ([`StoreKind::Compact`]) alone.
pub fn set_default_store_kind(kind: StoreKind) {
    DEFAULT_STORE_KIND.with(|c| c.set(kind));
}

/// The two interchangeable node-store backends. Every public
/// [`Membership`] operation dispatches here; both arms implement
/// identical observable semantics (iteration order, range behavior,
/// duplicate-insert panics), which the equivalence suite pins.
#[derive(Debug, Clone)]
enum Store<S> {
    Legacy {
        nodes: BTreeMap<NodeToken, S>,
        /// Dense sorted mirror of the live tokens so indexed draws
        /// ([`Membership::token_at`]) avoid an O(n) iterator scan.
        order: Vec<NodeToken>,
        loads: QueryLoads,
    },
    Compact(CompactStore<S>),
}

/// Zero-cost iterator dispatch between the two store backends.
enum EitherIter<A, B> {
    A(A),
    B(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for EitherIter<A, B> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::A(a) => a.next(),
            EitherIter::B(b) => b.next(),
        }
    }
}

impl<S> Membership<S> {
    /// Empty membership whose identifier allocator is seeded with
    /// `seed`. Network conditions start ideal (no message faults) and
    /// tracing starts disabled. The node store uses this thread's
    /// [`default_store_kind`] (compact unless a test overrode it).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_store_kind(seed, default_store_kind())
    }

    /// Empty membership on an explicitly chosen store backend.
    #[must_use]
    pub fn with_store_kind(seed: u64, kind: StoreKind) -> Self {
        let store = match kind {
            StoreKind::Legacy => Store::Legacy {
                nodes: BTreeMap::new(),
                order: Vec::new(),
                loads: QueryLoads::new(),
            },
            StoreKind::Compact => Store::Compact(CompactStore::new()),
        };
        Self {
            store,
            alloc: IdAllocator::new(seed),
            net: NetConditions::ideal(),
            sink: SinkHandle::disabled(),
            accountant: PhaseAccountant::disabled(),
        }
    }

    /// Which backend this arena runs on.
    #[must_use]
    pub fn store_kind(&self) -> StoreKind {
        match &self.store {
            Store::Legacy { .. } => StoreKind::Legacy,
            Store::Compact(_) => StoreKind::Compact,
        }
    }

    /// Heap bytes held by the node store itself (token order, state
    /// slab, query-load counters, token index) — exact capacities for
    /// the compact backend, a documented estimate for the legacy
    /// B-tree. Per-state heap payloads (e.g. a finger table's `Vec`)
    /// are reported separately via `SimOverlay::state_heap_bytes`.
    #[must_use]
    pub fn store_bytes(&self) -> usize {
        match &self.store {
            Store::Legacy {
                nodes,
                order,
                loads,
            } => {
                approx_btree_bytes(nodes.len(), std::mem::size_of::<(NodeToken, S)>())
                    + order.capacity() * std::mem::size_of::<NodeToken>()
                    + approx_btree_bytes(loads.len(), std::mem::size_of::<(NodeToken, u64)>())
            }
            Store::Compact(c) => c.heap_bytes(),
        }
    }

    /// Number of live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes.len(),
            Store::Compact(c) => c.len(),
        }
    }

    /// `true` iff no node is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes.is_empty(),
            Store::Compact(c) => c.is_empty(),
        }
    }

    /// `true` iff `node` is live.
    #[must_use]
    pub fn contains(&self, node: NodeToken) -> bool {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes.contains_key(&node),
            Store::Compact(c) => c.contains(node),
        }
    }

    /// State of a live node.
    #[must_use]
    pub fn get(&self, node: NodeToken) -> Option<&S> {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes.get(&node),
            Store::Compact(c) => c.get(node),
        }
    }

    /// Mutable state of a live node.
    pub fn get_mut(&mut self, node: NodeToken) -> Option<&mut S> {
        match &mut self.store {
            Store::Legacy { nodes, .. } => nodes.get_mut(&node),
            Store::Compact(c) => c.get_mut(node),
        }
    }

    /// Inserts a new node and starts its query-load counter at zero.
    ///
    /// # Panics
    /// Panics if `node` is already live: token collisions are a caller
    /// bug (joins must re-draw identifiers instead).
    pub fn insert(&mut self, node: NodeToken, state: S) {
        match &mut self.store {
            Store::Legacy {
                nodes,
                order,
                loads,
            } => {
                let prev = nodes.insert(node, state);
                assert!(prev.is_none(), "node token {node} already occupied");
                let i = order
                    .binary_search(&node)
                    .expect_err("order mirror out of sync");
                order.insert(i, node);
                loads.track(node);
            }
            Store::Compact(c) => c.insert(node, state),
        }
    }

    /// Removes a node, dropping its query-load counter. Returns the
    /// state if the node was live.
    pub fn remove(&mut self, node: NodeToken) -> Option<S> {
        match &mut self.store {
            Store::Legacy {
                nodes,
                order,
                loads,
            } => {
                let state = nodes.remove(&node);
                if state.is_some() {
                    let i = order
                        .binary_search(&node)
                        .expect("order mirror out of sync");
                    order.remove(i);
                    loads.untrack(node);
                }
                state
            }
            Store::Compact(c) => c.remove(node),
        }
    }

    /// Live tokens in ascending order.
    #[must_use]
    pub fn tokens(&self) -> Vec<NodeToken> {
        match &self.store {
            Store::Legacy { order, .. } => order.clone(),
            Store::Compact(c) => c.tokens(),
        }
    }

    /// The `i`-th smallest live token — the indexed draw behind
    /// [`crate::overlay::Overlay::random_node`]. O(1) on the legacy
    /// mirror, O(#chunks) ≈ O(n/1024) on the compact store.
    #[must_use]
    pub fn token_at(&self, i: usize) -> Option<NodeToken> {
        match &self.store {
            Store::Legacy { order, .. } => order.get(i).copied(),
            Store::Compact(c) => c.token_at(i),
        }
    }

    /// Iterates live tokens in ascending order without allocating.
    pub fn token_iter(&self) -> impl Iterator<Item = NodeToken> + '_ {
        match &self.store {
            Store::Legacy { nodes, .. } => EitherIter::A(nodes.keys().copied()),
            Store::Compact(c) => EitherIter::B(c.token_iter()),
        }
    }

    /// Smallest live token.
    #[must_use]
    pub fn first_token(&self) -> Option<NodeToken> {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes.keys().next().copied(),
            Store::Compact(c) => c.first_token(),
        }
    }

    /// Iterates `(token, state)` pairs in ascending token order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeToken, &S)> {
        match &self.store {
            Store::Legacy { nodes, .. } => EitherIter::A(nodes.iter().map(|(&t, s)| (t, s))),
            Store::Compact(c) => EitherIter::B(c.iter()),
        }
    }

    /// Iterates node states in ascending token order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        match &self.store {
            Store::Legacy { nodes, .. } => EitherIter::A(nodes.values()),
            Store::Compact(c) => EitherIter::B(c.states()),
        }
    }

    /// Mutably iterates node states in ascending token order.
    pub fn states_mut(&mut self) -> impl Iterator<Item = &mut S> {
        match &mut self.store {
            Store::Legacy { nodes, .. } => EitherIter::A(nodes.values_mut()),
            Store::Compact(c) => EitherIter::B(c.states_mut()),
        }
    }

    /// Draws a fresh raw identifier from the allocator.
    pub fn next_raw(&mut self) -> u64 {
        self.alloc.next_raw()
    }

    /// Draws a fresh identifier uniform in `[0, space)`.
    pub fn next_in(&mut self, space: u64) -> u64 {
        self.alloc.next_in(space)
    }

    // ------------------------------------------------------------------
    // Wrapping ring searches over the token order
    // ------------------------------------------------------------------

    /// First live token `>= point`, wrapping to the smallest.
    #[must_use]
    pub fn successor_of(&self, point: u64) -> Option<NodeToken> {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes
                .range(point..)
                .next()
                .or_else(|| nodes.iter().next())
                .map(|(&t, _)| t),
            Store::Compact(c) => c.successor_of(point),
        }
    }

    /// First live token `> point`, wrapping to the smallest.
    #[must_use]
    pub fn successor_after(&self, point: u64) -> Option<NodeToken> {
        match point.checked_add(1) {
            Some(next) => self.successor_of(next),
            None => self.first_token(),
        }
    }

    /// Last live token `< point`, wrapping to the largest.
    #[must_use]
    pub fn predecessor_of(&self, point: u64) -> Option<NodeToken> {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes
                .range(..point)
                .next_back()
                .or_else(|| nodes.iter().next_back())
                .map(|(&t, _)| t),
            Store::Compact(c) => c.predecessor_of(point),
        }
    }

    /// Last live token `<= point`, wrapping to the largest.
    #[must_use]
    pub fn at_or_before(&self, point: u64) -> Option<NodeToken> {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes
                .range(..=point)
                .next_back()
                .or_else(|| nodes.iter().next_back())
                .map(|(&t, _)| t),
            Store::Compact(c) => c.at_or_before(point),
        }
    }

    /// Smallest live token in `[lo, hi]` (no wrapping).
    #[must_use]
    pub fn first_in_range(&self, lo: u64, hi: u64) -> Option<NodeToken> {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes.range(lo..=hi).next().map(|(&t, _)| t),
            Store::Compact(c) => c.first_in_range(lo, hi),
        }
    }

    /// Largest live token in `[lo, hi]` (no wrapping).
    #[must_use]
    pub fn last_in_range(&self, lo: u64, hi: u64) -> Option<NodeToken> {
        match &self.store {
            Store::Legacy { nodes, .. } => nodes.range(lo..=hi).next_back().map(|(&t, _)| t),
            Store::Compact(c) => c.last_in_range(lo, hi),
        }
    }

    /// Ring pointers of position `id` on a `space`-point ring: the live
    /// predecessor and the `r` live successors, nearest first (wrapping,
    /// so a small ring repeats). `None` on an empty ring.
    #[must_use]
    pub fn ring_pointers<const N: usize>(
        &self,
        id: u64,
        r: usize,
        space: u64,
    ) -> Option<(NodeToken, InlineVec<NodeToken, N>)> {
        let pred = self.predecessor_of(id)?;
        let mut succs = InlineVec::new();
        let mut cursor = id;
        for _ in 0..r {
            cursor = self.successor_of((cursor + 1) % space)?;
            succs.push(cursor);
        }
        Some((pred, succs))
    }

    /// The live nodes whose [`Membership::ring_pointers`] reference
    /// position `id`: its live successor, then its `r` nearest live
    /// predecessors, without repeats. Starts at `id + 1` because at join
    /// time `id` is already live and its *successor* must learn of it.
    #[must_use]
    pub fn ring_neighbours(&self, id: u64, r: usize, space: u64) -> Vec<NodeToken> {
        let Some(succ) = self.successor_of((id + 1) % space) else {
            return Vec::new();
        };
        let mut out = vec![succ];
        let mut cursor = id;
        for _ in 0..r {
            cursor = self.predecessor_of(cursor).expect("non-empty ring");
            if !out.contains(&cursor) {
                out.push(cursor);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Query-load accounting
    // ------------------------------------------------------------------

    /// Increments the query-load counter of `node` (no-op if departed).
    pub fn count_query(&mut self, node: NodeToken) {
        self.add_queries(node, 1);
    }

    /// Adds `k` queries to `node`'s counter (no-op if departed).
    pub fn add_queries(&mut self, node: NodeToken, k: u64) {
        match &mut self.store {
            Store::Legacy { loads, .. } => loads.add(node, k),
            Store::Compact(c) => c.add_load(node, k),
        }
    }

    /// Per-node query loads in ascending token order; one entry per
    /// live node.
    #[must_use]
    pub fn query_loads(&self) -> Vec<u64> {
        match &self.store {
            Store::Legacy { loads, .. } => loads.as_vec(),
            Store::Compact(c) => c.loads_vec(),
        }
    }

    /// Zeroes all query-load counters.
    pub fn reset_query_loads(&mut self) {
        match &mut self.store {
            Store::Legacy { loads, .. } => loads.reset(),
            Store::Compact(c) => c.reset_loads(),
        }
    }

    /// Current query-load counter of `node` (zero if departed).
    #[must_use]
    pub fn load_of(&self, node: NodeToken) -> u64 {
        match &self.store {
            Store::Legacy { loads, .. } => loads.get(node),
            Store::Compact(c) => c.load_of(node),
        }
    }

    /// Sum of all query-load counters.
    #[must_use]
    pub fn loads_total(&self) -> u64 {
        match &self.store {
            Store::Legacy { loads, .. } => loads.total(),
            Store::Compact(c) => c.loads_total(),
        }
    }

    // ------------------------------------------------------------------
    // Network conditions (message-level fault injection)
    // ------------------------------------------------------------------

    /// The active network conditions (fault plan + retry policy).
    #[must_use]
    pub fn net_conditions(&self) -> &NetConditions {
        &self.net
    }

    /// Mutable access to the network conditions — the walk engine takes
    /// lookup indices (the fault-draw keys) through this.
    pub fn net_conditions_mut(&mut self) -> &mut NetConditions {
        &mut self.net
    }

    /// Installs new network conditions, resetting the lookup-index
    /// counter.
    pub fn set_net_conditions(&mut self, net: NetConditions) {
        self.net = net;
    }

    // ------------------------------------------------------------------
    // Structured event tracing
    // ------------------------------------------------------------------

    /// The installed trace sink handle (disabled by default).
    #[must_use]
    pub fn trace_sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Installs a trace sink handle; the walk engine emits structured
    /// events through it (see [`crate::obs`]). Pass
    /// [`SinkHandle::disabled`] to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    // ------------------------------------------------------------------
    // Per-phase cost accounting
    // ------------------------------------------------------------------

    /// The installed phase accountant handle (disabled by default).
    #[must_use]
    pub fn phase_accountant(&self) -> &PhaseAccountant {
        &self.accountant
    }

    /// Installs a phase accountant; the walk engine and maintenance
    /// drivers bill per-phase costs through it (see
    /// [`crate::obs::phase`]). Pass [`PhaseAccountant::disabled`] to
    /// turn accounting back off.
    pub fn set_phase_accountant(&mut self, accountant: PhaseAccountant) {
        self.accountant = accountant;
    }
}

/// What one node decides about a lookup it currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepDecision {
    /// The current node is (locally provably) where the walk stops;
    /// classify via [`SimOverlay::classify_terminal`].
    Terminate,
    /// Forward to the first live candidate of the buffer
    /// [`SimOverlay::next_hop`] filled, in preference order; each
    /// candidate is tagged with the phase the hop would be accounted
    /// to. Dead candidates cost one timeout each (de-duplicated within
    /// the step) and are skipped.
    Forward,
}

/// An overlay expressed against the shared simulation substrate.
///
/// Implementors provide membership access, key mapping, and the pure
/// per-hop routing decision; the substrate's [`WalkCursor`] owns the
/// iterative lookup loop and the blanket [`Overlay`] impl provides the
/// harness-facing interface.
///
/// `Sync` is a supertrait because the substrate's [`ParallelExecutor`]
/// shards lookup batches across scoped threads that share `&self`;
/// node states are plain data in every overlay, so this costs nothing.
pub trait SimOverlay: Sync + 'static {
    /// Per-node routing state stored in the [`Membership`] arena.
    type State;
    /// Per-lookup walk state: the mapped key plus whatever cursor the
    /// routing algorithm threads from hop to hop. `'static` because
    /// suspended lookups ([`LookupCursor`]) box it across events; walk
    /// states are plain data in every overlay, so this costs nothing.
    type Walk: 'static;

    /// The node arena.
    fn membership(&self) -> &Membership<Self::State>;
    /// The node arena, mutably.
    fn membership_mut(&mut self) -> &mut Membership<Self::State>;

    /// Display name (e.g. `"Cycloid(7)"`).
    fn label(&self) -> String;

    /// Worst-case routing-state size per node, if the protocol bounds
    /// it by a constant.
    fn degree_limit(&self) -> Option<usize>;

    /// Maps a raw key to its identifier in this overlay's space.
    fn map_key(&self, raw_key: u64) -> u64;

    /// The live node responsible for `raw_key` (ground truth, computed
    /// from global membership), or `None` if the overlay cannot name
    /// an owner.
    fn owner_token(&self, raw_key: u64) -> Option<NodeToken>;

    /// Maximum hops before a walk is declared broken. Generous by
    /// design: only genuinely broken routing should trip it.
    fn hop_budget(&self) -> usize;

    /// Initializes the walk state for a lookup of `raw_key` starting
    /// at the live node `src`.
    fn begin_walk(&self, src: NodeToken, raw_key: u64) -> Self::Walk;

    /// The ground-truth owner of the walk's (already mapped) key.
    fn walk_owner(&self, walk: &Self::Walk) -> Option<NodeToken>;

    /// The per-hop routing decision at `cur`, using only `cur`'s own
    /// routing state (plus the walk cursor). May mutate the walk state
    /// for phase transitions that happen *before* forwarding. The
    /// candidates of a [`StepDecision::Forward`] are appended to `out`,
    /// which arrives empty and is the caller's to reuse: a hop
    /// allocates nothing once the buffer has grown to the longest plan.
    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut Self::Walk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision;

    /// Touches the memory [`SimOverlay::next_hop`] will read at `node`,
    /// so that [`ParallelExecutor`] can start those cache misses for
    /// all its in-flight walks before it waits on any of them. Plain
    /// loads handed to [`std::hint::black_box`], never a result: it
    /// must be correct to call this any number of times, or not at
    /// all, for a live or departed `node`. Default: the token-index
    /// probe; overlays whose hop is bound by memory latency also read
    /// the state row and what hangs off it.
    fn warm(&self, node: NodeToken) {
        std::hint::black_box(self.membership().contains(node));
    }

    /// Extra candidate filter applied before the liveness check
    /// (e.g. Cycloid's no-revisit rule). Rejected candidates cost no
    /// timeout. Default: admit everything.
    fn admit(&self, walk: &Self::Walk, cur: NodeToken, cand: NodeToken) -> bool {
        let _ = (walk, cur, cand);
        true
    }

    /// Walk-state bookkeeping when the walk takes a hop `from -> to`
    /// accounted to `phase`; `timed_out` lists the dead candidates
    /// skipped in this step. Runs inline during the (read-only) walk,
    /// so it may only mutate the *walk* state — cursor advancement,
    /// visited sets. Network-state mutations (repair-on-use) belong in
    /// [`SimOverlay::repair_on_use`], which the engine defers into the
    /// walk's [`WalkEffects`]. Default: nothing.
    fn on_hop(
        &self,
        walk: &mut Self::Walk,
        from: NodeToken,
        phase: HopPhase,
        to: NodeToken,
        timed_out: &[NodeToken],
    ) {
        let _ = (walk, from, phase, to, timed_out);
    }

    /// Repair-on-use: the walk hopped `from -> to` (phase `phase`)
    /// after skipping the dead candidates in `timed_out`, and the
    /// protocol may now evict the stale entries. Called once per such
    /// hop when the walk's effects are applied — immediately after the
    /// walk under the sequential entry points, after the whole batch
    /// under [`ParallelExecutor`]. Only hops that actually skipped dead
    /// candidates are reported. Default: nothing.
    fn repair_on_use(
        &mut self,
        from: NodeToken,
        phase: HopPhase,
        to: NodeToken,
        timed_out: &[NodeToken],
    ) {
        let _ = (from, phase, to, timed_out);
    }

    /// Classifies a walk that stopped at `cur` by its own decision
    /// ([`StepDecision::Terminate`]). Default: compare against
    /// [`SimOverlay::walk_owner`].
    fn classify_terminal(&self, cur: NodeToken, walk: &Self::Walk) -> LookupOutcome {
        match self.walk_owner(walk) {
            Some(owner) if owner == cur => LookupOutcome::Found,
            Some(_) => LookupOutcome::WrongOwner,
            None => LookupOutcome::Stuck,
        }
    }

    /// Classifies a walk stranded at `cur` with no live candidate —
    /// read-only; accounting belongs in
    /// [`SimOverlay::record_exhausted`]. Default:
    /// [`LookupOutcome::Found`] when `cur` happens to be the owner,
    /// otherwise [`LookupOutcome::Stuck`].
    fn on_exhausted(&self, cur: NodeToken, walk: &Self::Walk) -> LookupOutcome {
        match self.walk_owner(walk) {
            Some(owner) if owner == cur => LookupOutcome::Found,
            _ => LookupOutcome::Stuck,
        }
    }

    /// Deferred accounting for a walk that exhausted its candidates at
    /// `terminal` (e.g. a protocol failure counter). Called when the
    /// walk's effects are applied. Default: nothing.
    fn record_exhausted(&mut self, terminal: NodeToken) {
        let _ = terminal;
    }

    /// Whether the hop budget is checked before the terminal test.
    /// Protocols that can cheaply prove local termination first
    /// (Viceroy, CAN) override this to `false`.
    fn budget_before_terminal(&self) -> bool {
        true
    }

    /// Joins one node (protocol-defined identifier draw), returning
    /// its token.
    fn node_join(&mut self, rng: &mut dyn RngCore) -> Option<NodeToken>;

    /// Graceful departure; `false` if `node` is not live.
    fn node_leave(&mut self, node: NodeToken) -> bool;

    /// Ungraceful failure; defaults to a graceful leave for protocols
    /// that do not distinguish the two.
    fn node_fail(&mut self, node: NodeToken) -> bool {
        self.node_leave(node)
    }

    /// One full stabilization round over the network.
    fn stabilize_network(&mut self);

    /// Stabilization work of a single node; defaults to a full round
    /// for protocols without a per-node refresh.
    fn stabilize_one(&mut self, node: NodeToken) {
        let _ = node;
        self.stabilize_network();
    }

    /// Audits every node's routing state (see [`crate::audit`]). Overlays
    /// with a [`crate::audit::StateAudit`] impl override this one-liner to
    /// run it; the default reports nothing checked. The blanket
    /// [`Overlay`] impl forwards [`Overlay::audit_state`] here.
    fn audit_network(&self, scope: AuditScope) -> AuditReport {
        AuditReport::new(self.label(), scope)
    }

    /// Applies a seeded corruption plan to the network's routing state
    /// (see [`crate::corrupt`]): the plan chooses the victims and the
    /// value draws, the overlay maps the plan's strategy onto its own
    /// link layout. Implementations must be deterministic in
    /// `(current state, plan)` and must not draw from any RNG stream.
    /// The default corrupts nothing — overlays without mutable routing
    /// links report zero targets.
    fn corrupt_network(&mut self, plan: &CorruptionPlan) -> CorruptionReport {
        let _ = plan;
        CorruptionReport::default()
    }

    /// One node's *repair* routine: recomputes every routing entry the
    /// node's stabilizer owns from live membership and returns how many
    /// entries were actually rewritten. Repair subsumes
    /// [`SimOverlay::stabilize_one`] — on a healthy network it must be
    /// an exact no-op (zero rewrites, no other state change, no RNG
    /// draws), which is what pins goldens and repair-enabled churn runs
    /// byte-identical. The default falls back to the stabilizer and
    /// reports zero rewrites.
    fn repair_step(&mut self, node: NodeToken) -> u64 {
        self.stabilize_one(node);
        0
    }

    /// Heap bytes owned by one node's routing state beyond
    /// `size_of::<Self::State>()` — e.g. a Chord finger table's `Vec`
    /// buffer. States whose links are stored inline
    /// ([`crate::inline::InlineVec`]) report 0, the default.
    fn state_heap_bytes(&self, state: &Self::State) -> usize {
        let _ = state;
        0
    }

    /// Heap bytes of overlay-level auxiliary indexes outside the
    /// [`Membership`] arena (e.g. Cycloid's per-cycle member sets).
    /// Default: none.
    fn aux_bytes(&self) -> usize {
        0
    }

    /// Messages one maintenance pass over `node`'s routing links costs
    /// (one probe per routing entry — see the [`crate::obs::phase`]
    /// conventions). Overlays override this with their actual per-node
    /// link count; the default assumes the constant degree bound, or 1
    /// when the degree grows with the network. Must not mutate anything
    /// or draw from any RNG stream.
    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        let _ = node;
        self.degree_limit().map_or(1, |d| d.max(1) as u64)
    }
}

/// The node lifecycle of an overlay whose stabilizer is a *refresh*: a
/// node's links are a pure function of the live membership, so joining,
/// leaving and stabilizing are all "recompute somebody's links". The
/// overlay supplies the five protocol pieces; the lifecycle is written
/// once here (the paper's §3.3 shape: a join or graceful leave notifies
/// only the neighbourhood that lists the node, everything else waits for
/// stabilization).
pub trait Refresh: SimOverlay {
    /// Size of the identifier space joins draw from.
    fn id_space(&self) -> u64;

    /// State of a node that knows nobody yet.
    fn blank_state(&self, id: NodeToken) -> Self::State;

    /// Recomputes every link of the live node `id` from the live
    /// membership — what its stabilizer converges to. Computes first and
    /// stores through a single `get_mut`.
    fn refresh_node(&mut self, id: NodeToken);

    /// Recomputes only the links a join/leave notification mends (ring
    /// pointers, leaf sets); long-range links stay stale.
    fn refresh_notified(&mut self, id: NodeToken);

    /// The live nodes a join or departure at position `id` notifies.
    fn notified_by(&self, id: NodeToken) -> Vec<NodeToken>;

    /// Fills an empty network with `count` uniformly drawn nodes and
    /// stabilizes it.
    fn populate(&mut self, count: usize) {
        let space = self.id_space();
        assert!(
            count as u64 <= space,
            "{count} nodes exceed the {space}-point identifier space"
        );
        while self.membership().len() < count {
            let id = self.membership_mut().next_in(space);
            if !self.membership().contains(id) {
                let state = self.blank_state(id);
                self.membership_mut().insert(id, state);
            }
        }
        self.refresh_all();
    }

    /// Protocol join at a chosen identifier: the newcomer builds its full
    /// state and its neighbourhood mends the notified links. `false` if
    /// `id` is already live.
    fn join_id(&mut self, id: NodeToken) -> bool {
        if self.membership().contains(id) {
            return false;
        }
        let state = self.blank_state(id);
        self.membership_mut().insert(id, state);
        self.refresh_node(id);
        for nb in self.notified_by(id) {
            if nb != id {
                self.refresh_notified(nb);
            }
        }
        true
    }

    /// Join at a freshly drawn free identifier; `None` when the space is
    /// full.
    fn join_random(&mut self) -> Option<NodeToken> {
        let space = self.id_space();
        if self.membership().len() as u64 >= space {
            return None;
        }
        loop {
            let id = self.membership_mut().next_in(space);
            if self.join_id(id) {
                return Some(id);
            }
        }
    }

    /// Removes `id`. With `notify` (a graceful leave) its neighbourhood
    /// mends the notified links; without (a failure) every pointer to it
    /// stays stale until stabilization — the timeouts of §4.3. `false` if
    /// `id` is not live.
    fn depart(&mut self, id: NodeToken, notify: bool) -> bool {
        if self.membership_mut().remove(id).is_none() {
            return false;
        }
        if notify {
            for nb in self.notified_by(id) {
                self.refresh_notified(nb);
            }
        }
        true
    }

    /// One full stabilization round: every node refreshes all its links.
    fn refresh_all(&mut self) {
        for id in self.membership().tokens() {
            self.refresh_node(id);
        }
    }
}

/// One hop's deferred repair-on-use record: the walk hopped
/// `from -> to` after skipping the dead candidates in `timed_out`.
/// Replayed into [`SimOverlay::repair_on_use`] by [`apply_effects`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRepair {
    /// Node whose routing entry pointed at the dead candidates.
    pub from: NodeToken,
    /// Phase the taken hop was accounted to.
    pub phase: HopPhase,
    /// The live candidate that answered.
    pub to: NodeToken,
    /// Dead candidates skipped in this step, in preference order.
    pub timed_out: Vec<NodeToken>,
}

/// Everything a mutating walk would have done in place, recorded by
/// a [`WalkCursor`] for deferred application via [`apply_effects`].
///
/// The trace events carry a placeholder lookup id of 0; the real
/// stream-unique id is stamped at application time so ids are handed
/// out in canonical workload order regardless of which worker thread
/// routed the walk.
#[derive(Debug, Clone, Default)]
pub struct WalkEffects {
    /// Visited nodes in visit order (source first) — one query-load
    /// increment each. Empty when the walk did not count loads.
    pub queried: Vec<NodeToken>,
    /// Hops that skipped dead candidates, for repair-on-use.
    pub repairs: Vec<HopRepair>,
    /// Terminal of an exhausted walk (no live candidate), for
    /// [`SimOverlay::record_exhausted`].
    pub exhausted: Option<NodeToken>,
    /// Trace events in emission order (empty when tracing is off).
    pub events: Vec<Event>,
    /// The walk's [`Phase::Lookup`] bill, recorded only when the
    /// overlay's [`PhaseAccountant`] was enabled at walk start (the
    /// same snapshot discipline as `events`); billed at apply time so
    /// parallel walks account in canonical workload order.
    pub bill: Option<PhaseCosts>,
}

impl WalkEffects {
    /// `true` iff applying these effects would change nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queried.is_empty()
            && self.repairs.is_empty()
            && self.exhausted.is_none()
            && self.events.is_empty()
            && self.bill.is_none()
    }
}

/// Reusable per-walk scratch buffers for the step loop. One instance
/// per worker (or per call site) avoids re-allocating the candidate
/// buffer [`SimOverlay::next_hop`] fills and the two skipped-candidate
/// lists on every step — see `crates/bench/benches/walk_throughput.rs`
/// for the measured win. A step sees a few dozen candidates at most,
/// so the lists are scanned linearly.
#[derive(Debug, Default)]
pub struct WalkScratch {
    candidates: Vec<(HopPhase, NodeToken)>,
    unreachable_seen: Vec<NodeToken>,
    step_dead: Vec<NodeToken>,
}

/// Performs one lookup from `src` with an already-initialized walk
/// state, walking the overlay hop by hop using only each node's private
/// routing state, and returns the full trace: a [`WalkCursor`] run to
/// completion, followed by [`apply_effects`], so query loads,
/// repair-on-use, and trace events land immediately. `raw_key` only
/// tags the `LookupStart` event (`None` for route-to-point entry points
/// whose key is pre-mapped). When `count_loads` is set, every visited
/// node's query-load counter is incremented (the §4.2 congestion
/// measure counts lookup traffic only, so control traffic passes
/// `false`).
pub fn walk_from<T: SimOverlay + ?Sized>(
    net: &mut T,
    src: NodeToken,
    state: T::Walk,
    raw_key: Option<u64>,
    count_loads: bool,
) -> LookupTrace {
    let index = net
        .membership_mut()
        .net_conditions_mut()
        .take_lookup_index();
    let (trace, fx) = WalkCursor::begin(&*net, src, state, count_loads, index, raw_key)
        .run(&*net, &mut WalkScratch::default());
    apply_effects(net, fx);
    trace
}

/// Plays a [`WalkEffects`] record back against the overlay: query-load
/// increments, repair-on-use, exhaustion accounting, and trace-event
/// emission (stamping the stream-unique lookup id). Application order
/// across walks defines the canonical byte stream, so callers must
/// apply records in workload order.
pub fn apply_effects<T: SimOverlay + ?Sized>(net: &mut T, fx: WalkEffects) {
    let WalkEffects {
        queried,
        repairs,
        exhausted,
        events,
        bill,
    } = fx;
    for &node in &queried {
        net.membership_mut().count_query(node);
    }
    // Repair-on-use costs are billed to `Repair`, not `Lookup`: the
    // lookup only *detected* the stale entries; rewriting them is
    // maintenance work (one message per evicted entry).
    if !repairs.is_empty() {
        let entries: u64 = repairs.iter().map(|r| r.timed_out.len() as u64).sum();
        net.membership()
            .phase_accountant()
            .bill(Phase::Repair, || PhaseCosts {
                calls: repairs.len() as u64,
                msgs: entries,
                repair_entries: entries,
                ..PhaseCosts::default()
            });
    }
    for r in &repairs {
        net.repair_on_use(r.from, r.phase, r.to, &r.timed_out);
    }
    if let Some(terminal) = exhausted {
        net.record_exhausted(terminal);
    }
    if let Some(costs) = bill {
        net.membership()
            .phase_accountant()
            .bill(Phase::Lookup, || costs);
    }
    if !events.is_empty() {
        let sink = net.membership().trace_sink().clone();
        let id = sink.next_lookup_id();
        for mut event in events {
            event.set_lookup_id(id);
            sink.emit(move || event);
        }
    }
}

/// One advance of a suspended walk (see [`WalkCursor::step`]), tagged
/// with the virtual time the step consumed: stale-entry waits, retry
/// backoff, and the answering message's round trip, exactly as billed
/// to [`NetCosts::latency_us`]. A discrete-event driver schedules the
/// walk's resumption `delay_us` after the step — which is why reported
/// lookup latency and virtual-clock elapsed time agree *by
/// construction* under the continuous time model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorStep {
    /// The walk took one hop; it can step again once `delay_us` of
    /// simulated time has elapsed.
    Forwarded {
        /// Virtual-time cost of the step, in µs.
        delay_us: u64,
    },
    /// The walk terminated during this step (terminal reached, budget
    /// exhausted, or no live candidate answered) after `delay_us` of
    /// simulated waiting.
    Finished {
        /// Virtual-time cost of the final step, in µs.
        delay_us: u64,
    },
}

/// A lookup suspended between hops: the walk engine's loop state made
/// first-class so a discrete-event driver can interleave many walks on
/// one virtual clock, resuming each when its reply event fires.
///
/// [`WalkCursor::run`] drives this same cursor to completion in a tight
/// loop, so suspended and inline walks are one implementation —
/// byte-identical traces by construction.
#[derive(Debug)]
pub struct WalkCursor<W> {
    state: W,
    cur: NodeToken,
    hops: Vec<HopPhase>,
    timeouts: u32,
    costs: NetCosts,
    fx: WalkEffects,
    outcome: Option<LookupOutcome>,
    lookup_index: u64,
    count_loads: bool,
    record_events: bool,
    bill_phase: bool,
    conditions: NetConditions,
    budget: usize,
}

impl<W> WalkCursor<W> {
    /// Starts a walk at the live node `src` with an initialized walk
    /// state. Snapshots the overlay's network conditions and sink
    /// enablement; `lookup_index` keys the fault draws.
    ///
    /// # Panics
    /// Panics if `src` is not live.
    pub fn begin<T: SimOverlay<Walk = W> + ?Sized>(
        net: &T,
        src: NodeToken,
        state: W,
        count_loads: bool,
        lookup_index: u64,
        raw_key: Option<u64>,
    ) -> Self {
        assert!(
            net.membership().contains(src),
            "lookup source {src} is not live"
        );
        // Record events only when a sink is installed, preserving the
        // zero-cost-when-disabled guarantee. Ids are stamped at apply
        // time. Phase billing snapshots enablement the same way.
        let record_events = net.membership().trace_sink().is_enabled();
        let bill_phase = net.membership().phase_accountant().is_enabled();
        let conditions = *net.membership().net_conditions();
        let mut fx = WalkEffects::default();
        if record_events {
            fx.events.push(Event::LookupStart {
                lookup: 0,
                src,
                key: raw_key,
            });
        }
        if count_loads {
            fx.queried.push(src);
        }
        Self {
            state,
            cur: src,
            hops: Vec::new(),
            timeouts: 0,
            costs: NetCosts::default(),
            fx,
            outcome: None,
            lookup_index,
            count_loads,
            record_events,
            bill_phase,
            conditions,
            budget: net.hop_budget(),
        }
    }

    /// The node currently holding the lookup (the terminal, once
    /// finished).
    #[must_use]
    pub fn current(&self) -> NodeToken {
        self.cur
    }

    /// `true` once the walk has terminated.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// Strands the walk: its current holder departed mid-flight (a
    /// hazard that only exists once walks are suspended on a virtual
    /// clock), so the lookup can make no further progress and is
    /// classified [`LookupOutcome::Stuck`]. No-op if already finished.
    pub fn strand(&mut self) {
        if self.outcome.is_none() {
            self.outcome = Some(LookupOutcome::Stuck);
        }
    }

    /// Advances the walk by exactly one iteration of the lookup loop:
    /// one routing decision at the current node, skipping dead and
    /// unreachable candidates (billing their waits) until one answers.
    ///
    /// # Panics
    /// Panics if the walk already finished.
    pub fn step<T: SimOverlay<Walk = W> + ?Sized>(
        &mut self,
        net: &T,
        scratch: &mut WalkScratch,
    ) -> CursorStep {
        assert!(self.outcome.is_none(), "stepping a finished walk");
        let before = self.costs.latency_us;
        let outcome = self.step_inner(net, scratch);
        let delay_us = self.costs.latency_us - before;
        match outcome {
            Some(o) => {
                self.outcome = Some(o);
                CursorStep::Finished { delay_us }
            }
            None => CursorStep::Forwarded { delay_us },
        }
    }

    /// One loop iteration; `Some` terminates the walk.
    fn step_inner<T: SimOverlay<Walk = W> + ?Sized>(
        &mut self,
        net: &T,
        scratch: &mut WalkScratch,
    ) -> Option<LookupOutcome> {
        if net.budget_before_terminal() && self.hops.len() >= self.budget {
            return Some(LookupOutcome::HopBudgetExhausted);
        }
        scratch.candidates.clear();
        let decision = net.next_hop(self.cur, &mut self.state, &mut scratch.candidates);
        if decision == StepDecision::Terminate {
            return Some(net.classify_terminal(self.cur, &self.state));
        }
        if !net.budget_before_terminal() && self.hops.len() >= self.budget {
            return Some(LookupOutcome::HopBudgetExhausted);
        }
        let mut next: Option<(HopPhase, NodeToken)> = None;
        // A stale entry costs one timeout; trying the same dead
        // node twice within one step does not (the querier
        // remembers who just failed to answer). The same memory
        // covers live candidates whose messages the fault plan
        // swallowed (`unreachable_seen`): one exhausted retry
        // cycle per step, never two.
        scratch.unreachable_seen.clear();
        scratch.step_dead.clear();
        for &(phase, cand) in &scratch.candidates {
            if cand == self.cur || !net.admit(&self.state, self.cur, cand) {
                continue;
            }
            if !net.membership().contains(cand) {
                if !scratch.step_dead.contains(&cand) {
                    self.timeouts += 1;
                    self.costs.absorb_stale(self.conditions.stale_wait_us());
                    scratch.step_dead.push(cand);
                    if self.record_events {
                        self.fx.events.push(Event::Timeout {
                            lookup: 0,
                            target: cand,
                            kind: TimeoutKind::Stale,
                        });
                    }
                }
                continue;
            }
            if scratch.unreachable_seen.contains(&cand) {
                continue;
            }
            // The candidate is live: contact it under the fault
            // plan, retrying per the policy. Draws are keyed by
            // (lookup_index, candidate, attempt), so the outcome
            // is independent of every other contact.
            let contact = self.conditions.contact(self.lookup_index, cand);
            self.costs.absorb(&contact);
            if self.record_events && contact.attempts > 1 {
                self.fx.events.push(Event::Retry {
                    lookup: 0,
                    target: cand,
                    attempts: contact.attempts,
                });
            }
            if !contact.delivered {
                // A message timeout, not a stale entry: the node
                // is alive, so it must NOT be reported through
                // `timed_out` — repair-on-use evicting it would
                // let the fault layer mutate routing state.
                if self.record_events {
                    self.fx.events.push(Event::Timeout {
                        lookup: 0,
                        target: cand,
                        kind: TimeoutKind::Message,
                    });
                }
                scratch.unreachable_seen.push(cand);
                continue;
            }
            next = Some((phase, cand));
            break;
        }
        match next {
            Some((phase, cand)) => {
                net.on_hop(&mut self.state, self.cur, phase, cand, &scratch.step_dead);
                if !scratch.step_dead.is_empty() {
                    self.fx.repairs.push(HopRepair {
                        from: self.cur,
                        phase,
                        to: cand,
                        timed_out: scratch.step_dead.clone(),
                    });
                }
                if self.record_events {
                    self.fx.events.push(Event::Hop {
                        lookup: 0,
                        index: self.hops.len() as u32,
                        from: self.cur,
                        to: cand,
                        phase,
                    });
                }
                self.hops.push(phase);
                self.cur = cand;
                if self.count_loads {
                    self.fx.queried.push(self.cur);
                }
                None
            }
            None => {
                self.fx.exhausted = Some(self.cur);
                Some(net.on_exhausted(self.cur, &self.state))
            }
        }
    }

    /// Steps the walk to completion against one membership snapshot and
    /// finishes it: the inline (non-suspended) way to walk, read-only on
    /// the overlay. `scratch` may be reused across walks.
    pub fn run<T: SimOverlay<Walk = W> + ?Sized>(
        mut self,
        net: &T,
        scratch: &mut WalkScratch,
    ) -> (LookupTrace, WalkEffects) {
        while let CursorStep::Forwarded { .. } = self.step(net, scratch) {}
        self.finish()
    }

    /// Consumes the finished walk, emitting the `LookupEnd` event and
    /// returning the trace plus the deferred effects.
    ///
    /// # Panics
    /// Panics if the walk has not finished.
    #[must_use]
    pub fn finish(self) -> (LookupTrace, WalkEffects) {
        let Self {
            cur,
            hops,
            timeouts,
            costs,
            mut fx,
            outcome,
            record_events,
            bill_phase,
            ..
        } = self;
        let outcome = outcome.expect("finishing an unfinished walk");
        if record_events {
            fx.events.push(Event::LookupEnd {
                lookup: 0,
                outcome,
                terminal: cur,
                hops: hops.len() as u32,
                timeouts,
                latency_us: costs.latency_us,
            });
        }
        if bill_phase {
            // Message convention (see `crate::obs::phase`): one per hop
            // taken, one per extra send attempt, one per timed-out
            // contact (stale entry or exhausted retries).
            let retries = u64::from(costs.retries);
            let total_timeouts = u64::from(timeouts) + u64::from(costs.msg_timeouts);
            fx.bill = Some(PhaseCosts {
                calls: 1,
                msgs: hops.len() as u64 + retries + total_timeouts,
                retries,
                timeouts: total_timeouts,
                repair_entries: 0,
                time_us: costs.latency_us,
            });
        }
        (
            LookupTrace {
                hops,
                timeouts,
                outcome,
                terminal: cur,
                net: costs,
            },
            fx,
        )
    }
}

/// A suspended lookup with its overlay type erased — what
/// [`Overlay::lookup_begin`] hands to drivers that only hold a
/// `&mut dyn Overlay` (the continuous-time churn engine). Wraps a
/// [`WalkCursor`] plus its scratch buffers.
pub trait LookupCursor {
    /// The node currently holding the lookup.
    fn current(&self) -> NodeToken;
    /// `true` once the walk has terminated.
    fn is_finished(&self) -> bool;
    /// Advances the walk by one step against the overlay's *current*
    /// state (membership changes since the last step are observed,
    /// exactly as a real in-flight lookup would observe them).
    ///
    /// # Panics
    /// Panics if `net` is not the overlay that created this cursor, or
    /// if the walk already finished.
    fn step(&mut self, net: &dyn Overlay) -> CursorStep;
    /// Strands the walk (its current holder departed); see
    /// [`WalkCursor::strand`].
    fn strand(&mut self);
    /// Consumes the finished walk, returning the trace and the effects
    /// to replay via [`Overlay::apply_walk_effects`].
    fn finish(self: Box<Self>) -> (LookupTrace, WalkEffects);
}

/// The one [`LookupCursor`] implementation: a typed [`WalkCursor`]
/// that recovers its concrete overlay through [`Overlay::as_any`].
struct TypedCursor<T: SimOverlay> {
    cursor: WalkCursor<T::Walk>,
    scratch: WalkScratch,
}

impl<T: SimOverlay> LookupCursor for TypedCursor<T> {
    fn current(&self) -> NodeToken {
        self.cursor.current()
    }

    fn is_finished(&self) -> bool {
        self.cursor.is_finished()
    }

    fn step(&mut self, net: &dyn Overlay) -> CursorStep {
        let net = net
            .as_any()
            .downcast_ref::<T>()
            .expect("cursor stepped against a different overlay");
        self.cursor.step(net, &mut self.scratch)
    }

    fn strand(&mut self) {
        self.cursor.strand();
    }

    fn finish(self: Box<Self>) -> (LookupTrace, WalkEffects) {
        self.cursor.finish()
    }
}

/// Walks a worker keeps in flight at once (see [`ParallelExecutor`]).
/// A constant, not a knob: on a cache-resident network eight lanes cost
/// 4 % against one, on a 10⁶-node network they hide about half of a
/// hop's wait for memory (PROFILING.md, "Lookup hot path").
const LANES: usize = 8;

/// A routed request: what [`ParallelExecutor::run`] stores by request
/// position until the merge.
type Routed = Option<(LookupTrace, WalkEffects)>;

/// Deterministic sharded lookup executor: splits a batch of `(src,
/// raw_key)` requests into contiguous chunks, routes every chunk against
/// the *same* membership snapshot (`&T`) — on the calling thread when
/// there is one chunk, on scoped worker threads otherwise — then applies
/// the [`WalkEffects`] in canonical workload order.
///
/// Every worker runs the same loop: eight [`WalkCursor`]s in flight
/// (`LANES`), advanced round-robin one step each, every round preceded
/// by a pass of [`SimOverlay::warm`] over the nodes the lanes stand on.
/// The walks are independent, so the cache misses of one lane's next
/// step overlap the other lanes' instead of being waited out one after
/// another.
///
/// Determinism: fault draws are keyed by the lookup's reserved index
/// (`base + i`), finished walks are stored by request position, query
/// loads are commutative counter increments, and repairs / failure
/// accounting / trace events are applied strictly in request order
/// after all routing is done — so aggregates, load tables, and event
/// streams are bit-identical for any `jobs` value, including 1, and for
/// any order in which the lanes happen to finish.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    jobs: usize,
}

impl ParallelExecutor {
    /// An executor using up to `jobs` worker threads (at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// An executor sized to the machine's available parallelism.
    #[must_use]
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker cap.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Routes `reqs` (pairs of source token and raw key) and returns
    /// the traces in request order. All walks observe the membership as
    /// it is on entry; effects (query loads, repair-on-use, failure
    /// accounting, trace events) are applied in request order before
    /// returning.
    pub fn run<T: SimOverlay + ?Sized>(
        &self,
        net: &mut T,
        reqs: &[(NodeToken, u64)],
        count_loads: bool,
    ) -> Vec<LookupTrace> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let base = net
            .membership_mut()
            .net_conditions_mut()
            .reserve_lookup_indices(reqs.len() as u64);
        let workers = self.jobs.min(reqs.len());
        let chunk = reqs.len().div_ceil(workers);
        let mut routed: Vec<Routed> = Vec::new();
        routed.resize_with(reqs.len(), || None);
        let shared: &T = net;
        // One flat list of visited nodes per shard; a thread only when
        // there is more than one shard.
        let visited: Vec<Vec<NodeToken>> = if workers == 1 {
            vec![route_shard(shared, reqs, base, count_loads, &mut routed)]
        } else {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = reqs
                    .chunks(chunk)
                    .zip(routed.chunks_mut(chunk))
                    .enumerate()
                    .map(|(i, (slice, out))| {
                        let first = base + (i * chunk) as u64;
                        scope.spawn(move |_| route_shard(shared, slice, first, count_loads, out))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lookup worker panicked"))
                    .collect()
            })
            .expect("worker pool")
        };
        for node in visited.into_iter().flatten() {
            net.membership_mut().count_query(node);
        }
        // Canonical merge: `routed` is in request order whatever order
        // the lanes finished in.
        let mut traces = Vec::with_capacity(reqs.len());
        for slot in routed {
            let (trace, fx) = slot.expect("every request was routed");
            apply_effects(net, fx);
            traces.push(trace);
        }
        traces
    }
}

/// One worker of [`ParallelExecutor::run`]: routes `reqs` (fault-draw
/// indices `first_index..`) with [`LANES`] cursors in flight, stores
/// each finished walk at its request's position in `out`, and returns
/// the nodes the walks visited (their query-load increments), in no
/// particular order.
fn route_shard<T: SimOverlay + ?Sized>(
    net: &T,
    reqs: &[(NodeToken, u64)],
    first_index: u64,
    count_loads: bool,
    out: &mut [Routed],
) -> Vec<NodeToken> {
    let begin = |pos: usize| {
        let (src, raw_key) = reqs[pos];
        let state = net.begin_walk(src, raw_key);
        let index = first_index + pos as u64;
        let cursor = WalkCursor::begin(net, src, state, count_loads, index, Some(raw_key));
        (pos, cursor)
    };
    let mut waiting = 0..reqs.len();
    let mut lanes: Vec<(usize, WalkCursor<T::Walk>)> =
        waiting.by_ref().take(LANES).map(begin).collect();
    let mut scratch = WalkScratch::default();
    let mut visited = Vec::new();
    while !lanes.is_empty() {
        for (_, cursor) in &lanes {
            net.warm(cursor.current());
        }
        let mut lane = 0;
        while lane < lanes.len() {
            if let CursorStep::Forwarded { .. } = lanes[lane].1.step(net, &mut scratch) {
                lane += 1;
                continue;
            }
            // Refill the lane, or close it: the lane swapped in from the
            // back has not stepped this round, so `lane` stays put.
            let (pos, cursor) = match waiting.next() {
                Some(next) => {
                    let done = std::mem::replace(&mut lanes[lane], begin(next));
                    lane += 1;
                    done
                }
                None => lanes.swap_remove(lane),
            };
            let (trace, mut fx) = cursor.finish();
            visited.extend(std::mem::take(&mut fx.queried));
            out[pos] = Some((trace, fx));
        }
    }
    visited
}

impl<T: SimOverlay> Overlay for T {
    fn name(&self) -> String {
        self.label()
    }

    fn len(&self) -> usize {
        self.membership().len()
    }

    fn degree_bound(&self) -> Option<usize> {
        self.degree_limit()
    }

    fn node_tokens(&self) -> Vec<NodeToken> {
        self.membership().tokens()
    }

    fn random_node(&self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        let n = self.membership().len();
        if n == 0 {
            return None;
        }
        let i = (rng.next_u64() % n as u64) as usize;
        self.membership().token_at(i)
    }

    fn key_id(&self, raw_key: u64) -> u64 {
        self.map_key(raw_key)
    }

    fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
        self.owner_token(raw_key)
    }

    fn lookup(&mut self, src: NodeToken, raw_key: u64) -> LookupTrace {
        let state = self.begin_walk(src, raw_key);
        walk_from(self, src, state, Some(raw_key), true)
    }

    fn lookup_batch(&mut self, reqs: &[(NodeToken, u64)], jobs: usize) -> Vec<LookupTrace> {
        ParallelExecutor::new(jobs).run(self, reqs, true)
    }

    fn join(&mut self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        self.node_join(rng)
    }

    fn leave(&mut self, node: NodeToken) -> bool {
        self.node_leave(node)
    }

    fn fail(&mut self, node: NodeToken) -> bool {
        self.node_fail(node)
    }

    fn stabilize(&mut self) {
        self.stabilize_network();
    }

    fn stabilize_node(&mut self, node: NodeToken) {
        self.stabilize_one(node);
    }

    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        self.audit_network(scope)
    }

    fn corrupt_state(&mut self, plan: &CorruptionPlan) -> CorruptionReport {
        self.corrupt_network(plan)
    }

    fn repair_node(&mut self, node: NodeToken) -> u64 {
        self.repair_step(node)
    }

    fn query_loads(&self) -> Vec<u64> {
        self.membership().query_loads()
    }

    fn reset_query_loads(&mut self) {
        self.membership_mut().reset_query_loads();
    }

    fn state_bytes(&self) -> usize {
        let m = self.membership();
        let heap: usize = m.states().map(|s| self.state_heap_bytes(s)).sum();
        m.store_bytes() + heap + self.aux_bytes()
    }

    fn net_conditions(&self) -> NetConditions {
        *self.membership().net_conditions()
    }

    fn set_net_conditions(&mut self, net: NetConditions) {
        self.membership_mut().set_net_conditions(net);
    }

    fn trace_sink(&self) -> SinkHandle {
        self.membership().trace_sink().clone()
    }

    fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.membership_mut().set_trace_sink(sink);
    }

    fn phase_accountant(&self) -> PhaseAccountant {
        self.membership().phase_accountant().clone()
    }

    fn set_phase_accountant(&mut self, acct: PhaseAccountant) {
        self.membership_mut().set_phase_accountant(acct);
    }

    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        SimOverlay::maintenance_msgs(self, node)
    }

    fn contains(&self, node: NodeToken) -> bool {
        self.membership().contains(node)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn lookup_begin(&mut self, src: NodeToken, raw_key: u64) -> Box<dyn LookupCursor> {
        let index = self
            .membership_mut()
            .net_conditions_mut()
            .take_lookup_index();
        let state = self.begin_walk(src, raw_key);
        let cursor = WalkCursor::begin(&*self, src, state, true, index, Some(raw_key));
        Box::new(TypedCursor::<Self> {
            cursor,
            scratch: WalkScratch::default(),
        })
    }

    fn apply_walk_effects(&mut self, fx: WalkEffects) {
        apply_effects(self, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `begin_walk` + [`walk_from`]: one lookup for a raw key.
    fn walk_key<T: SimOverlay>(
        net: &mut T,
        src: NodeToken,
        raw_key: u64,
        count_loads: bool,
    ) -> LookupTrace {
        let state = net.begin_walk(src, raw_key);
        walk_from(net, src, state, Some(raw_key), count_loads)
    }

    /// Minimal substrate client: a ring where each node stores the
    /// successor pointer it had at insertion time and never repairs it,
    /// so departures produce stale entries (timeouts) with the global
    /// successor as fallback — enough to exercise every walk feature.
    struct StaleRing {
        members: Membership<u64>,
        space: u64,
        /// Every `repair_on_use` call, in call order (the ring itself
        /// never repairs).
        repair_log: Vec<HopRepair>,
    }

    impl StaleRing {
        fn with_tokens(tokens: &[u64], space: u64) -> Self {
            let mut members: Membership<u64> = Membership::new(0);
            for &t in tokens {
                members.insert(t, t);
            }
            let snapshot: Vec<u64> = members.tokens();
            for &t in &snapshot {
                let succ = members.successor_after(t).unwrap();
                *members.get_mut(t).unwrap() = succ;
            }
            Self {
                members,
                space,
                repair_log: Vec::new(),
            }
        }
    }

    impl SimOverlay for StaleRing {
        type State = u64;
        type Walk = u64;

        fn membership(&self) -> &Membership<u64> {
            &self.members
        }
        fn membership_mut(&mut self) -> &mut Membership<u64> {
            &mut self.members
        }
        fn label(&self) -> String {
            "stale-ring".into()
        }
        fn degree_limit(&self) -> Option<usize> {
            Some(1)
        }
        fn map_key(&self, raw_key: u64) -> u64 {
            raw_key % self.space
        }
        fn owner_token(&self, raw_key: u64) -> Option<NodeToken> {
            self.members.successor_of(self.map_key(raw_key))
        }
        fn hop_budget(&self) -> usize {
            2 * self.members.len() + 4
        }
        fn begin_walk(&self, _src: NodeToken, raw_key: u64) -> u64 {
            self.map_key(raw_key)
        }
        fn walk_owner(&self, walk: &u64) -> Option<NodeToken> {
            self.members.successor_of(*walk)
        }
        fn next_hop(
            &self,
            cur: NodeToken,
            walk: &mut u64,
            out: &mut Vec<(HopPhase, NodeToken)>,
        ) -> StepDecision {
            if self.members.successor_of(*walk) == Some(cur) {
                return StepDecision::Terminate;
            }
            // Prefer the (possibly stale) stored pointer, then the
            // true successor as the repair fallback.
            let stored = *self.members.get(cur).unwrap();
            let live = self.members.successor_after(cur).unwrap();
            out.extend([(HopPhase::Successor, stored), (HopPhase::Successor, live)]);
            StepDecision::Forward
        }
        fn repair_on_use(
            &mut self,
            from: NodeToken,
            phase: HopPhase,
            to: NodeToken,
            timed_out: &[NodeToken],
        ) {
            self.repair_log.push(HopRepair {
                from,
                phase,
                to,
                timed_out: timed_out.to_vec(),
            });
        }
        fn node_join(&mut self, _rng: &mut dyn RngCore) -> Option<NodeToken> {
            None
        }
        fn node_leave(&mut self, node: NodeToken) -> bool {
            self.members.remove(node).is_some()
        }
        fn stabilize_network(&mut self) {}
    }

    #[test]
    fn membership_tracks_loads_in_lockstep() {
        let mut m: Membership<()> = Membership::new(1);
        m.insert(5, ());
        m.insert(2, ());
        m.insert(9, ());
        assert_eq!(m.tokens(), vec![2, 5, 9]);
        assert_eq!(m.query_loads(), vec![0, 0, 0]);
        m.count_query(5);
        m.count_query(5);
        m.count_query(7); // untracked: no-op
        assert_eq!(m.query_loads(), vec![0, 2, 0]);
        assert!(m.remove(5).is_some());
        assert_eq!(m.query_loads(), vec![0, 0], "counter departs with node");
        m.insert(5, ());
        assert_eq!(m.load_of(5), 0, "rejoin starts at zero");
        m.reset_query_loads();
        assert_eq!(m.loads_total(), 0);
    }

    #[test]
    fn ring_searches_wrap() {
        let mut m: Membership<()> = Membership::new(2);
        for t in [10u64, 20, 30] {
            m.insert(t, ());
        }
        assert_eq!(m.successor_of(20), Some(20));
        assert_eq!(m.successor_of(31), Some(10), "wraps forward");
        assert_eq!(m.successor_after(30), Some(10));
        assert_eq!(m.successor_after(u64::MAX), Some(10));
        assert_eq!(m.predecessor_of(10), Some(30), "wraps backward");
        assert_eq!(m.at_or_before(20), Some(20));
        assert_eq!(m.at_or_before(5), Some(30));
    }

    #[test]
    fn ring_pointers_and_neighbours_on_small_and_wrapping_rings() {
        let ring = |tokens: &[u64]| {
            let mut m: Membership<()> = Membership::new(3);
            for &t in tokens {
                m.insert(t, ());
            }
            m
        };
        let empty = ring(&[]);
        assert_eq!(empty.ring_pointers::<4>(5, 3, 64), None);
        assert!(empty.ring_neighbours(5, 3, 64).is_empty());

        // One node is its own predecessor and every successor; as the
        // neighbourhood of its own position it is listed once.
        let one = ring(&[7]);
        assert_eq!(
            one.ring_pointers::<4>(7, 3, 64),
            Some((7, vec![7; 3].into()))
        );
        assert_eq!(one.ring_neighbours(7, 3, 64), vec![7]);

        // Two nodes: the successor list alternates, the neighbourhood
        // holds each node once.
        let two = ring(&[7, 40]);
        assert_eq!(
            two.ring_pointers::<4>(7, 3, 64),
            Some((40, vec![40, 7, 40].into()))
        );
        assert_eq!(two.ring_neighbours(7, 3, 64), vec![40, 7]);

        // Wrap-around at both ends of the space, for a live position and
        // for a departed one (63 is not live).
        let m = ring(&[0, 10, 20, 50, 60]);
        assert_eq!(
            m.ring_pointers::<4>(60, 3, 64),
            Some((50, vec![0, 10, 20].into()))
        );
        assert_eq!(
            m.ring_pointers::<4>(0, 2, 64),
            Some((60, vec![10, 20].into()))
        );
        assert_eq!(m.ring_neighbours(0, 3, 64), vec![10, 60, 50, 20]);
        assert_eq!(m.ring_neighbours(63, 2, 64), vec![0, 60, 50]);
    }

    #[test]
    fn walk_reaches_owner_and_counts_loads() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.terminal, 48);
        assert_eq!(t.timeouts, 0);
        assert_eq!(t.hops.len(), 3);
        // Every visited node (source included) counted once.
        assert_eq!(net.members.query_loads(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn stale_pointers_cost_one_timeout_each_step() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        assert!(net.node_leave(16));
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.terminal, 48);
        assert_eq!(t.timeouts, 1, "one stale hop through the departed 16");
    }

    #[test]
    fn quiet_walks_leave_loads_untouched() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let t = walk_key(&mut net, 0, 40, false);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(net.members.loads_total(), 0);
    }

    #[test]
    fn blanket_overlay_impl_drives_the_substrate() {
        let mut net: Box<dyn Overlay> = Box::new(StaleRing::with_tokens(&[3, 7, 11], 16));
        assert_eq!(net.name(), "stale-ring");
        assert_eq!(net.len(), 3);
        assert_eq!(net.degree_bound(), Some(1));
        assert_eq!(net.node_tokens(), vec![3, 7, 11]);
        let t = net.lookup(3, 9);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(Some(t.terminal), net.owner_of(9));
        assert_eq!(
            net.query_loads().iter().sum::<u64>() as usize,
            t.path_len() + 1
        );
        net.reset_query_loads();
        assert_eq!(net.query_loads(), vec![0, 0, 0]);
        assert!(net.leave(7));
        assert_eq!(net.len(), 2);
        let mut rng = crate::rng::stream(1, "sim-test");
        let pick = net.random_node(&mut rng).unwrap();
        assert!(net.node_tokens().contains(&pick));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A two-node ring whose key owner keeps moving is impossible,
        // so force exhaustion by shrinking the budget via a wrapper.
        struct Tiny(StaleRing);
        impl SimOverlay for Tiny {
            type State = u64;
            type Walk = u64;
            fn membership(&self) -> &Membership<u64> {
                self.0.membership()
            }
            fn membership_mut(&mut self) -> &mut Membership<u64> {
                self.0.membership_mut()
            }
            fn label(&self) -> String {
                "tiny".into()
            }
            fn degree_limit(&self) -> Option<usize> {
                None
            }
            fn map_key(&self, raw_key: u64) -> u64 {
                self.0.map_key(raw_key)
            }
            fn owner_token(&self, raw_key: u64) -> Option<NodeToken> {
                self.0.owner_token(raw_key)
            }
            fn hop_budget(&self) -> usize {
                1
            }
            fn begin_walk(&self, src: NodeToken, raw_key: u64) -> u64 {
                self.0.begin_walk(src, raw_key)
            }
            fn walk_owner(&self, walk: &u64) -> Option<NodeToken> {
                self.0.walk_owner(walk)
            }
            fn next_hop(
                &self,
                cur: NodeToken,
                walk: &mut u64,
                out: &mut Vec<(HopPhase, NodeToken)>,
            ) -> StepDecision {
                self.0.next_hop(cur, walk, out)
            }
            fn node_join(&mut self, _rng: &mut dyn RngCore) -> Option<NodeToken> {
                None
            }
            fn node_leave(&mut self, node: NodeToken) -> bool {
                self.0.node_leave(node)
            }
            fn stabilize_network(&mut self) {}
        }
        let mut net = Tiny(StaleRing::with_tokens(&[0, 16, 32, 48], 64));
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::HopBudgetExhausted);
        assert_eq!(t.path_len(), 1, "budget of one hop");
    }

    use crate::net::{DelayModel, FaultPlan, NetConditions, RetryPolicy};

    #[test]
    fn walk_emits_structured_events_matching_the_trace() {
        use crate::obs::RingBufferSink;
        use std::sync::{Arc, Mutex};
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        assert!(net.node_leave(16));
        let ring = Arc::new(Mutex::new(RingBufferSink::new(256)));
        net.membership_mut()
            .set_trace_sink(SinkHandle::new(Arc::clone(&ring)));
        let trace = walk_key(&mut net, 0, 40, true);
        let events = ring.lock().unwrap().snapshot();
        // Exactly one lookup: start, per-hop, one stale timeout, end.
        assert!(matches!(
            events.first(),
            Some(Event::LookupStart {
                src: 0,
                key: Some(40),
                ..
            })
        ));
        let hop_events: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Hop {
                    index, from, to, ..
                } => Some((*index, *from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(hop_events.len(), trace.path_len());
        for (i, window) in hop_events.windows(2).enumerate() {
            assert_eq!(window[0].0 as usize, i, "hop indices are sequential");
            assert_eq!(window[0].2, window[1].1, "hops chain from -> to");
        }
        let stale = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Timeout {
                        kind: TimeoutKind::Stale,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stale as u32, trace.timeouts);
        match events.last() {
            Some(Event::LookupEnd {
                outcome,
                terminal,
                hops,
                timeouts,
                ..
            }) => {
                assert_eq!(*outcome, trace.outcome);
                assert_eq!(*terminal, trace.terminal);
                assert_eq!(*hops as usize, trace.path_len());
                assert_eq!(*timeouts, trace.timeouts);
            }
            other => panic!("last event should be LookupEnd, got {other:?}"),
        }
    }

    #[test]
    fn tracing_does_not_change_routing() {
        use crate::obs::NullSink;
        let run = |sink: Option<SinkHandle>| {
            let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
            assert!(ring.node_leave(16));
            if let Some(s) = sink {
                ring.membership_mut().set_trace_sink(s);
            }
            (0..24u64)
                .map(|key| walk_key(&mut ring, 0, key, true))
                .collect::<Vec<_>>()
        };
        let silent = run(None);
        let traced = run(Some(SinkHandle::new(NullSink)));
        for (a, b) in silent.iter().zip(&traced) {
            assert_eq!(a.hops, b.hops);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.terminal, b.terminal);
            assert_eq!(a.timeouts, b.timeouts);
            assert_eq!(a.net, b.net);
        }
    }

    #[test]
    fn ideal_network_walk_has_zero_net_costs() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.net, NetCosts::default());
    }

    #[test]
    fn zero_loss_with_delay_keeps_hops_identical_but_bills_latency() {
        let mut ideal = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let baseline = walk_key(&mut ideal, 0, 40, true);

        let mut delayed = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let plan = FaultPlan {
            seed: 11,
            loss: 0.0,
            delay: DelayModel::Uniform(10_000, 30_000),
            duplicate: 0.0,
        };
        delayed
            .membership_mut()
            .set_net_conditions(NetConditions::new(plan, RetryPolicy::standard()));
        let t = walk_key(&mut delayed, 0, 40, true);
        assert_eq!(t.hops, baseline.hops, "delay must not change routing");
        assert_eq!(t.outcome, baseline.outcome);
        assert_eq!(t.net.retries, 0);
        assert_eq!(t.net.msg_timeouts, 0);
        let hops = t.path_len() as u64;
        assert!(
            t.net.latency_us >= hops * 10_000 && t.net.latency_us <= hops * 30_000,
            "one RTT draw per hop, within the delay bounds"
        );
    }

    #[test]
    fn lossy_walk_is_deterministic_and_counts_retries() {
        let run = || {
            let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
            let plan = FaultPlan {
                seed: 7,
                loss: 0.4,
                delay: DelayModel::Constant(1_000),
                duplicate: 0.1,
            };
            ring.membership_mut()
                .set_net_conditions(NetConditions::new(plan, RetryPolicy::standard()));
            let mut traces = Vec::new();
            for key in 0..32u64 {
                traces.push(walk_key(&mut ring, 0, key, false));
            }
            traces
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hops, y.hops);
            assert_eq!(x.net, y.net);
        }
        let retries: u32 = a.iter().map(|t| t.net.retries).sum();
        assert!(retries > 0, "40% loss over 32 walks must trigger retries");
    }

    #[test]
    fn total_loss_strands_the_source_without_mutating_state() {
        let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let before: Vec<u64> = ring.members.tokens();
        let plan = FaultPlan {
            seed: 3,
            loss: 1.0,
            delay: DelayModel::Constant(0),
            duplicate: 0.0,
        };
        let retry = RetryPolicy::standard();
        ring.membership_mut()
            .set_net_conditions(NetConditions::new(plan, retry));
        let t = walk_key(&mut ring, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::Stuck);
        assert_eq!(t.path_len(), 0, "no message ever delivered");
        assert_eq!(t.timeouts, 0, "live-node losses are not stale timeouts");
        // Each distinct candidate is tried exactly once per step, and each
        // failed contact burns exactly max_attempts sends.
        assert_eq!(t.net.retries, t.net.msg_timeouts * (retry.max_attempts - 1));
        assert!(t.net.msg_timeouts > 0);
        assert_eq!(
            ring.members.tokens(),
            before,
            "faults never touch membership"
        );
    }

    #[test]
    fn stale_entries_bill_a_full_retry_cycle_of_latency() {
        let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        assert!(ring.node_leave(16));
        let retry = RetryPolicy::standard();
        ring.membership_mut().set_net_conditions(NetConditions::new(
            FaultPlan {
                seed: 5,
                loss: 0.0,
                delay: DelayModel::Constant(0),
                duplicate: 0.0,
            },
            retry,
        ));
        let t = walk_key(&mut ring, 0, 40, true);
        assert_eq!(t.timeouts, 1);
        assert_eq!(t.net.retries, 0, "stale contacts are not message retries");
        assert_eq!(
            t.net.latency_us,
            retry.give_up_us(),
            "the one dead contact costs one exhausted retry cycle"
        );
    }

    #[test]
    fn token_at_tracks_sorted_order_through_churn() {
        // `random_node` draws an index and resolves it with `token_at`;
        // the O(1) dense mirror must agree with the sorted token list
        // (what the old `nth(i)` scan returned) after any interleaving
        // of joins and departures, so the draw sequence is unchanged.
        let mut m: Membership<u64> = Membership::new(9);
        let check = |m: &Membership<u64>| {
            let sorted = m.tokens();
            for (i, &t) in sorted.iter().enumerate() {
                assert_eq!(m.token_at(i), Some(t), "index {i}");
            }
            assert_eq!(m.token_at(sorted.len()), None, "out of range");
        };
        for t in [40u64, 10, 30, 20, 50] {
            m.insert(t, t);
            check(&m);
        }
        for t in [30u64, 50, 10] {
            assert!(m.remove(t).is_some());
            check(&m);
        }
        m.insert(25, 25);
        m.insert(5, 5);
        check(&m);
    }

    /// A 16-node lossy ring with three departures: stale entries,
    /// retries, and repairs all in play.
    fn contested_ring() -> StaleRing {
        let tokens: Vec<u64> = (0..16u64).map(|i| i * 16).collect();
        let mut ring = StaleRing::with_tokens(&tokens, 256);
        for t in [32u64, 96, 208] {
            assert!(ring.node_leave(t));
        }
        ring.membership_mut().set_net_conditions(NetConditions::new(
            FaultPlan {
                seed: 13,
                loss: 0.25,
                delay: DelayModel::Uniform(500, 1_500),
                duplicate: 0.05,
            },
            RetryPolicy::standard(),
        ));
        ring
    }

    /// Everything a batch leaves behind: traces and event stream
    /// (rendered), query loads, and the `repair_on_use` calls.
    type BatchRecord = (Vec<String>, Vec<String>, Vec<u64>, Vec<HopRepair>);

    /// Routes `reqs` on a fresh [`contested_ring`] with an event sink
    /// installed and records what the batch left behind.
    fn batch_record(
        reqs: &[(NodeToken, u64)],
        route: impl FnOnce(&mut StaleRing, &[(NodeToken, u64)]) -> Vec<LookupTrace>,
    ) -> BatchRecord {
        use crate::obs::RingBufferSink;
        use std::sync::{Arc, Mutex};
        let mut ring = contested_ring();
        let sink = Arc::new(Mutex::new(RingBufferSink::new(4096)));
        ring.membership_mut()
            .set_trace_sink(SinkHandle::new(Arc::clone(&sink)));
        let traces = route(&mut ring, reqs);
        let events = sink.lock().unwrap().snapshot();
        (
            traces.iter().map(|t| format!("{t:?}")).collect(),
            events.iter().map(|e| format!("{e:?}")).collect(),
            ring.members.query_loads(),
            ring.repair_log,
        )
    }

    /// The executor's contract spelled out without lanes, shards or
    /// threads: one [`WalkCursor::run`] per request against the entry
    /// snapshot, then the effects in request order.
    fn one_cursor_per_request(ring: &mut StaleRing, reqs: &[(NodeToken, u64)]) -> Vec<LookupTrace> {
        let base = ring
            .membership_mut()
            .net_conditions_mut()
            .reserve_lookup_indices(reqs.len() as u64);
        let walks: Vec<(LookupTrace, WalkEffects)> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(src, key))| {
                let state = ring.begin_walk(src, key);
                WalkCursor::begin(&*ring, src, state, true, base + i as u64, Some(key))
                    .run(&*ring, &mut WalkScratch::default())
            })
            .collect();
        walks
            .into_iter()
            .map(|(trace, fx)| {
                apply_effects(ring, fx);
                trace
            })
            .collect()
    }

    /// Long walks (a source far behind the key) at even positions, walks
    /// that start at the key's owner and stop at once at odd ones — so
    /// lanes finish out of request order and are refilled mid-round.
    fn mixed_requests(len: usize) -> Vec<(NodeToken, u64)> {
        let ring = contested_ring();
        (0..len as u64)
            .map(|k| {
                let key = k * 37 % 256;
                let owner = ring.members.successor_of(key).unwrap();
                if k % 2 == 1 {
                    return (owner, key);
                }
                let mut src = owner;
                for _ in 0..3 + k % 7 {
                    src = ring.members.successor_after(src).unwrap();
                }
                (src, key)
            })
            .collect()
    }

    #[test]
    fn lane_loop_matches_one_cursor_per_request() {
        for len in [0, 1, 7, 8, 9, 25] {
            let reqs = mixed_requests(len);
            let want = batch_record(&reqs, one_cursor_per_request);
            for jobs in [1, 3] {
                let got = batch_record(&reqs, |ring, reqs| {
                    ParallelExecutor::new(jobs).run(ring, reqs, true)
                });
                assert_eq!(want, got, "{len} requests at jobs={jobs}");
            }
            // Stale entries, retries and repairs are all in play.
            if len == 25 {
                assert!(!want.3.is_empty(), "no repair-on-use was exercised");
                assert!(want.1.iter().any(|e| e.starts_with("Retry")));
            }
        }
    }

    #[test]
    fn lanes_finish_out_of_request_order() {
        // What `lane_loop_matches_one_cursor_per_request` leans on: in
        // `mixed_requests` a later request of the same round of lanes
        // needs fewer steps than an earlier one, so its lane is
        // refilled while the earlier walk is still in flight.
        let reqs = mixed_requests(25);
        let traces = ParallelExecutor::new(1).run(&mut contested_ring(), &reqs, true);
        for pair in traces.chunks_exact(2) {
            assert!(pair[0].path_len() > pair[1].path_len() + 1);
        }
    }

    #[test]
    fn parallel_executor_matches_one_walk_at_a_time() {
        // A batch at any width must also agree with the pre-batch
        // behavior: the same lookups issued one walk at a time.
        let live: Vec<u64> = contested_ring().members.tokens();
        let reqs: Vec<(NodeToken, u64)> = (0..32u64)
            .map(|k| (live[k as usize % live.len()], k * 29))
            .collect();
        let mut loop_ring = contested_ring();
        let loop_traces: Vec<LookupTrace> = reqs
            .iter()
            .map(|&(src, key)| walk_key(&mut loop_ring, src, key, true))
            .collect();
        let mut batch_ring = contested_ring();
        let batch_traces = ParallelExecutor::new(4).run(&mut batch_ring, &reqs, true);
        for (a, b) in loop_traces.iter().zip(&batch_traces) {
            assert_eq!(a.hops, b.hops);
            assert_eq!(a.net, b.net);
        }
        assert_eq!(
            loop_ring.members.query_loads(),
            batch_ring.members.query_loads()
        );
    }
}
