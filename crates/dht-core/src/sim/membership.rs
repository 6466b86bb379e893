//! The node arena: [`Membership`] is a [`CompactStore`] plus the three
//! things every overlay keeps next to its nodes — the identifier
//! allocator, the network conditions and the observability handles.

use crate::hash::IdAllocator;
use crate::inline::InlineVec;
use crate::net::NetConditions;
use crate::obs::{PhaseAccountant, SinkHandle};
use crate::overlay::NodeToken;
use crate::store::CompactStore;

/// The node arena shared by every overlay simulator: live node states
/// keyed by [`NodeToken`], the query-load counters kept in lockstep,
/// and the deterministic identifier allocator used by joins.
///
/// Iteration is always in ascending token order, which makes every
/// derived quantity (load vectors, token lists, tie-breaks) independent
/// of insertion history.
#[derive(Debug, Clone)]
pub struct Membership<S> {
    store: CompactStore<S>,
    alloc: IdAllocator,
    net: NetConditions,
    sink: SinkHandle,
    accountant: PhaseAccountant,
}

impl<S> Membership<S> {
    /// Empty membership whose identifier allocator is seeded with
    /// `seed`. Network conditions start ideal (no message faults) and
    /// tracing starts disabled.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            store: CompactStore::new(),
            alloc: IdAllocator::new(seed),
            net: NetConditions::ideal(),
            sink: SinkHandle::disabled(),
            accountant: PhaseAccountant::disabled(),
        }
    }

    /// Heap bytes held by the node store itself (token order, state
    /// slab, query-load counters, token index), from `Vec` capacities.
    /// Per-state heap payloads (e.g. a finger table's `Vec`) are
    /// reported separately via `SimOverlay::state_heap_bytes`.
    #[must_use]
    pub fn store_bytes(&self) -> usize {
        self.store.heap_bytes()
    }

    /// Number of live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff no node is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// `true` iff `node` is live.
    #[must_use]
    pub fn contains(&self, node: NodeToken) -> bool {
        self.store.contains(node)
    }

    /// State of a live node.
    #[must_use]
    pub fn get(&self, node: NodeToken) -> Option<&S> {
        self.store.get(node)
    }

    /// Mutable state of a live node.
    pub fn get_mut(&mut self, node: NodeToken) -> Option<&mut S> {
        self.store.get_mut(node)
    }

    /// Inserts a new node and starts its query-load counter at zero.
    ///
    /// # Panics
    /// Panics if `node` is already live: token collisions are a caller
    /// bug (joins must re-draw identifiers instead).
    pub fn insert(&mut self, node: NodeToken, state: S) {
        self.store.insert(node, state);
    }

    /// Removes a node, dropping its query-load counter. Returns the
    /// state if the node was live.
    pub fn remove(&mut self, node: NodeToken) -> Option<S> {
        self.store.remove(node)
    }

    /// Lays the state slab out in token order, once a bulk build is
    /// done (see [`CompactStore::order_slab`]); no read changes.
    pub fn order_slab(&mut self) {
        self.store.order_slab();
    }

    /// Live tokens in ascending order.
    #[must_use]
    pub fn tokens(&self) -> Vec<NodeToken> {
        self.store.tokens()
    }

    /// The `i`-th smallest live token — the indexed draw behind
    /// [`crate::overlay::Overlay::random_node`]. O(#chunks) ≈ O(n/1024).
    #[must_use]
    pub fn token_at(&self, i: usize) -> Option<NodeToken> {
        self.store.token_at(i)
    }

    /// Iterates live tokens in ascending order without allocating.
    pub fn token_iter(&self) -> impl Iterator<Item = NodeToken> + '_ {
        self.store.token_iter()
    }

    /// Smallest live token.
    #[must_use]
    pub fn first_token(&self) -> Option<NodeToken> {
        self.store.first_token()
    }

    /// Iterates `(token, state)` pairs in ascending token order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeToken, &S)> {
        self.store.iter()
    }

    /// Iterates node states in ascending token order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.store.states()
    }

    /// Mutably iterates node states in ascending token order.
    pub fn states_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.store.states_mut()
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
        self.store.successor_of(point)
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
        self.store.predecessor_of(point)
    }

    /// Last live token `<= point`, wrapping to the largest.
    #[must_use]
    pub fn at_or_before(&self, point: u64) -> Option<NodeToken> {
        self.store.at_or_before(point)
    }

    /// Smallest live token in `[lo, hi]` (no wrapping); `None` when the
    /// range is inverted (`lo > hi`).
    #[must_use]
    pub fn first_in_range(&self, lo: u64, hi: u64) -> Option<NodeToken> {
        self.store.first_in_range(lo, hi)
    }

    /// Largest live token in `[lo, hi]` (no wrapping); `None` when the
    /// range is inverted (`lo > hi`).
    #[must_use]
    pub fn last_in_range(&self, lo: u64, hi: u64) -> Option<NodeToken> {
        self.store.last_in_range(lo, hi)
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
        self.store.add_load(node, k);
    }

    /// Per-node query loads in ascending token order; one entry per
    /// live node.
    #[must_use]
    pub fn query_loads(&self) -> Vec<u64> {
        self.store.loads_vec()
    }

    /// Zeroes all query-load counters.
    pub fn reset_query_loads(&mut self) {
        self.store.reset_loads();
    }

    /// Current query-load counter of `node` (zero if departed).
    #[must_use]
    pub fn load_of(&self, node: NodeToken) -> u64 {
        self.store.load_of(node)
    }

    /// Sum of all query-load counters.
    #[must_use]
    pub fn loads_total(&self) -> u64 {
        self.store.loads_total()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CHUNK_CAP;
    use proptest::prelude::*;
    use rand::RngCore;
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Unbounded};
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    /// One step of a membership script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Inserts the token; when it is already live the insert must
        /// panic and change nothing.
        Insert(u64),
        Remove(u64),
        /// Overwrites one state through `get_mut`.
        Set(u64),
        AddLoad(u64, u64),
        ResetLoads,
        /// Rewrites every state through `states_mut`, by position.
        Rewrite,
        /// Lays the slab out in token order; no read may change.
        OrderSlab,
    }

    /// The reference: token → (state, query load) in a plain `BTreeMap`.
    type Model = BTreeMap<u64, (u64, u64)>;

    /// Applies `op` to both sides and compares what the write returns.
    /// `step` is the state value an insert or overwrite stores.
    fn apply(m: &mut Membership<u64>, model: &mut Model, op: Op, step: u64) {
        match op {
            Op::Insert(t) if model.contains_key(&t) => {
                let dup = catch_unwind(AssertUnwindSafe(|| m.insert(t, step)));
                assert!(dup.is_err(), "duplicate insert of {t} did not panic");
            }
            Op::Insert(t) => {
                m.insert(t, step);
                model.insert(t, (step, 0));
            }
            Op::Remove(t) => {
                let want = model.remove(&t).map(|(state, _)| state);
                assert_eq!(m.remove(t), want, "remove({t})");
            }
            Op::Set(t) => {
                let ours = m.get_mut(t).map(|s| *s = step);
                let theirs = model.get_mut(&t).map(|(s, _)| *s = step);
                assert_eq!(ours, theirs, "get_mut({t})");
            }
            Op::AddLoad(t, k) => {
                m.add_queries(t, k);
                if let Some((_, load)) = model.get_mut(&t) {
                    *load += k;
                }
            }
            Op::ResetLoads => {
                m.reset_query_loads();
                model.values_mut().for_each(|(_, load)| *load = 0);
            }
            Op::Rewrite => {
                let rewrite = |i: usize, s: &mut u64| *s = s.wrapping_mul(31) + i as u64;
                m.states_mut().enumerate().for_each(|(i, s)| rewrite(i, s));
                let states = model.values_mut().map(|(s, _)| s);
                states.enumerate().for_each(|(i, s)| rewrite(i, s));
            }
            Op::OrderSlab => {
                m.order_slab();
                assert!(m.store.slab_is_ordered(), "slots do not ascend");
            }
        }
    }

    /// Compares every public read of `m` with the model. `points` are
    /// the positions the per-token reads and ordered searches are asked
    /// about, ascending; every pair of a quarter of them (and
    /// `u64::MAX`) bounds a range query, so inverted ranges, `lo == hi`
    /// and `hi == u64::MAX` are all among the cases.
    fn check_reads(m: &Membership<u64>, model: &Model, points: &[u64]) {
        m.store.check_invariants();
        let tokens: Vec<u64> = model.keys().copied().collect();
        assert_eq!(m.len(), model.len());
        assert_eq!(m.is_empty(), model.is_empty());
        assert_eq!(m.tokens(), tokens);
        assert_eq!(m.token_iter().collect::<Vec<_>>(), tokens);
        assert_eq!(m.first_token(), tokens.first().copied());
        for (i, &t) in tokens.iter().enumerate() {
            assert_eq!(m.token_at(i), Some(t), "token_at({i})");
        }
        assert_eq!(m.token_at(tokens.len()), None);
        let pairs: Vec<(u64, u64)> = model.iter().map(|(&t, &(s, _))| (t, s)).collect();
        assert_eq!(m.iter().map(|(t, &s)| (t, s)).collect::<Vec<_>>(), pairs);
        let states: Vec<u64> = model.values().map(|&(s, _)| s).collect();
        assert_eq!(m.states().copied().collect::<Vec<_>>(), states);
        let loads: Vec<u64> = model.values().map(|&(_, load)| load).collect();
        assert_eq!(m.query_loads(), loads);
        assert_eq!(m.loads_total(), loads.iter().sum::<u64>());

        let first = tokens.first().copied();
        let last = tokens.last().copied();
        let token = |(&t, _): (&u64, &(u64, u64))| t;
        for &p in points {
            assert_eq!(m.contains(p), model.contains_key(&p), "contains({p})");
            assert_eq!(m.get(p), model.get(&p).map(|(s, _)| s), "get({p})");
            let load = model.get(&p).map_or(0, |&(_, load)| load);
            assert_eq!(m.load_of(p), load, "load_of({p})");
            let succ = model.range(p..).next().map(token).or(first);
            assert_eq!(m.successor_of(p), succ, "successor_of({p})");
            let after = model.range((Excluded(p), Unbounded)).next();
            let after = after.map(token).or(first);
            assert_eq!(m.successor_after(p), after, "successor_after({p})");
            let pred = model.range(..p).next_back().map(token).or(last);
            assert_eq!(m.predecessor_of(p), pred, "predecessor_of({p})");
            let aob = model.range(..=p).next_back().map(token).or(last);
            assert_eq!(m.at_or_before(p), aob, "at_or_before({p})");
        }
        let ends: Vec<u64> = points
            .iter()
            .step_by(4)
            .copied()
            .chain([u64::MAX])
            .collect();
        for &lo in &ends {
            for &hi in &ends {
                // `BTreeMap::range` panics on an inverted range; ours
                // is documented to hold nothing.
                let (low, high) = if lo <= hi {
                    let mut inside = model.range(lo..=hi).map(token);
                    let low = inside.next();
                    (low, inside.next_back().or(low))
                } else {
                    (None, None)
                };
                assert_eq!(m.first_in_range(lo, hi), low, "first_in_range({lo}, {hi})");
                assert_eq!(m.last_in_range(lo, hi), high, "last_in_range({lo}, {hi})");
            }
        }
    }

    /// The tokens random scripts draw from: a dense low run, so that
    /// inserts collide and removals hit, and the top of the `u64` range.
    fn palette(i: u64) -> u64 {
        if i < 24 {
            3 * i
        } else {
            u64::MAX - 5 * (27 - i)
        }
    }

    /// `tokens` and both neighbours of each, ascending.
    fn around(tokens: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut points: Vec<u64> = tokens
            .flat_map(|t| [t.wrapping_sub(1), t, t.wrapping_add(1)])
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let token = || (0u64..28).prop_map(palette);
        prop_oneof![
            token().prop_map(Op::Insert),
            token().prop_map(Op::Insert),
            token().prop_map(Op::Remove),
            token().prop_map(Op::Remove),
            token().prop_map(Op::Set),
            (token(), 1u64..9).prop_map(|(t, k)| Op::AddLoad(t, k)),
            (token(), 1u64..9).prop_map(|(t, k)| Op::AddLoad(t, k)),
            Just(Op::ResetLoads),
            Just(Op::Rewrite),
            Just(Op::OrderSlab),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one reference for the store: an arbitrary script of
        /// inserts, removals, overwrites, load updates and slab
        /// re-orderings leaves `Membership` and a `BTreeMap` agreeing on
        /// every public read after every step.
        #[test]
        fn membership_matches_btreemap_model(
            script in proptest::collection::vec(op_strategy(), 0..80),
        ) {
            let points = around((0..28).map(palette));
            let mut m: Membership<u64> = Membership::new(1);
            let mut model = Model::new();
            check_reads(&m, &model, &points);
            for (step, &op) in script.iter().enumerate() {
                apply(&mut m, &mut model, op, step as u64);
                check_reads(&m, &model, &points);
            }
        }
    }

    /// The same comparison across chunk boundaries: a toggling script
    /// grows the store past two full chunks (so chunks split in the
    /// middle of the order), then removals from the front drain whole
    /// chunks until nothing is left.
    #[test]
    fn model_holds_across_chunk_splits_and_drains() {
        let mut rng = crate::rng::stream(42, "membership-model");
        let script: Vec<u64> = (0..9_000).map(|_| rng.next_u64() % 6_000).collect();
        let points = around(script.iter().step_by(150).copied());
        let mut m: Membership<u64> = Membership::new(1);
        let mut model = Model::new();
        let mut peak = 0;
        for (step, &t) in script.iter().enumerate() {
            let op = if model.contains_key(&t) {
                Op::Remove(t)
            } else {
                Op::Insert(t)
            };
            apply(&mut m, &mut model, op, step as u64);
            apply(&mut m, &mut model, Op::AddLoad(script[step / 2], 1), 0);
            peak = peak.max(m.len());
            if step % 500 == 0 {
                check_reads(&m, &model, &points);
            }
        }
        assert!(
            peak > 2 * CHUNK_CAP,
            "only {peak} nodes: no chunk ever split"
        );
        check_reads(&m, &model, &points);
        for (step, t) in m.tokens().into_iter().enumerate() {
            apply(&mut m, &mut model, Op::Remove(t), 0);
            if step % 500 == 0 {
                check_reads(&m, &model, &points);
            }
        }
        assert!(m.is_empty());
        check_reads(&m, &model, &points);
    }

    /// The layout is invisible and repeatable: a store ordered after its
    /// bulk build, churned until swap-removes have scattered the slab
    /// again, then ordered a second time, answers every read as the
    /// model does at each of the three points.
    #[test]
    fn ordering_the_slab_twice_around_churn_changes_no_read() {
        let mut rng = crate::rng::stream(43, "membership-order");
        let mut draw = |n: usize| -> Vec<u64> { (0..n).map(|_| rng.next_u64() % 8_000).collect() };
        let (build, churn) = (draw(3 * CHUNK_CAP), draw(2 * CHUNK_CAP));
        let points = around(build.iter().chain(&churn).step_by(50).copied());
        let mut m: Membership<u64> = Membership::new(1);
        let mut model = Model::new();
        let toggle = |m: &mut Membership<u64>, model: &mut Model, t: u64, step: usize| {
            let op = if model.contains_key(&t) {
                Op::Remove(t)
            } else {
                Op::Insert(t)
            };
            apply(m, model, op, step as u64);
            apply(m, model, Op::AddLoad(t, 1 + t % 5), 0);
        };
        for (step, &t) in build.iter().enumerate() {
            toggle(&mut m, &mut model, t, step);
        }
        assert!(m.len() > CHUNK_CAP && !m.store.slab_is_ordered());
        apply(&mut m, &mut model, Op::OrderSlab, 0);
        check_reads(&m, &model, &points);
        for (step, &t) in churn.iter().enumerate() {
            toggle(&mut m, &mut model, t, step);
        }
        assert!(!m.store.slab_is_ordered(), "churn left the slab ordered");
        check_reads(&m, &model, &points);
        apply(&mut m, &mut model, Op::OrderSlab, 0);
        check_reads(&m, &model, &points);
    }
}
