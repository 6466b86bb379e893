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
//! 2. **Query-load accounting** — the per-node lookup-message counters
//!    of the paper's §4.2 congestion measure are a column of the same
//!    arena, so a counter exists exactly for the live nodes.
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
//! repair-on-use evictions, the walk's bill, and trace events —
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
//! routing algorithm threads through hops), and implement three traits,
//! each operation once under its one name:
//! [`crate::audit::StateAudit`] (the invariant audit),
//! [`Protocol`] (name, key space, join/leave/fail, corruption, repair,
//! maintenance cost) and [`SimOverlay`] (membership access, the per-hop
//! routing decision, the per-node stabilizer). Everything else —
//! lookups, batches, full-round and run stabilization, loads, bytes —
//! is the blanket [`Overlay`] impl's. Ask the substrate each question by
//! its own name: liveness, states, token order and loads are
//! `membership().store`'s ([`crate::store::CompactStore`]). Add an
//! inherent method only where it converts an identifier or computes
//! something. Override a defaulted hook only where the protocol deviates;
//! each hook's doc says when. A stabilizer that recomputes a node's links
//! from the membership is a [`RefreshInto`] row in two halves, and the
//! ring kinds' whole node lifecycle follows from it ([`Refresh`]).

use std::any::Any;

use rand::RngCore;

use crate::lookup::{HopPhase, LookupTrace};
use crate::net::NetConditions;
use crate::obs::Telemetry;
use crate::overlay::{NodeToken, Overlay, Protocol};
use crate::store::{CompactStore, Hints, Pos};

mod executor;
mod membership;
mod walk;

pub use executor::ParallelExecutor;
pub use membership::Membership;
use walk::TypedCursor;
pub use walk::{
    apply_effects, walk_from, CursorStep, HopRepair, LookupCursor, StepDecision, WalkCursor,
    WalkEffects, WalkScratch,
};

/// An overlay expressed against the shared simulation substrate.
///
/// Implementors provide membership access, the pure per-hop routing
/// decision and the per-node stabilizer; the per-kind protocol comes
/// from the [`Protocol`] supertrait. The substrate's [`WalkCursor`] owns
/// the iterative lookup loop and the blanket [`Overlay`] impl provides
/// the harness-facing interface.
///
/// `Sync` is a supertrait because the substrate's [`ParallelExecutor`]
/// shards lookup batches across scoped threads that share `&self`;
/// node states are plain data in every overlay, so this costs nothing.
pub trait SimOverlay: Protocol + Sync + 'static {
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

    /// The most hops a walk may take and still arrive. Generous by
    /// design: only genuinely broken routing should exhaust it.
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
        std::hint::black_box(self.membership().store.contains(node));
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

    /// The stabilization routine of a single node: a full round is
    /// this over every live token ([`Overlay::stabilize`]), and a
    /// departed `node` is ignored. `hints` are where the last node of
    /// the same run left its searches (fresh for a run of one):
    /// starting points only, which a resolver may ignore.
    fn stabilize_one(&mut self, node: NodeToken, hints: &mut Hints);

    /// Heap bytes the overlay holds beyond its slab rows: buffers rows
    /// point at (Chord's fingers) and indexes outside the [`Membership`]
    /// arena (Viceroy's level sets). Default: 0, as for inline rows.
    fn heap_beyond_rows(&self) -> usize {
        0
    }
}

/// An overlay whose stabilizer is a *refresh*: a node's row is a pure
/// function of the sorted live membership, in two halves. The *notified
/// half* (ring pointers, successor lists, leaf sets) is what a join or
/// graceful leave mends; the *lazy half* only stabilization mends, and
/// `corrupt::audit_lazy_links` checks. The `Default` row is what a node
/// knows before its first refresh.
pub trait RefreshInto: SimOverlay<State: Default> {
    /// The values of a row's notified half.
    type Notified;

    /// The notified half of live node `id`'s row, searched from `hint`,
    /// which is left at `id`'s place.
    fn notified_half(&self, id: NodeToken, hint: &mut Pos) -> Self::Notified;

    /// Writes `links` over the notified half of `row`, and nothing else.
    fn store_notified(row: &mut Self::State, links: Self::Notified);

    /// Writes live node `id`'s lazy half into `out`, and nothing else,
    /// searching from `hints` past slot 0.
    fn refresh_lazy(&self, id: NodeToken, hints: &mut Hints, out: &mut Self::State);

    /// The halves' one composition: every field of live node `id`'s row,
    /// hint 0 at its place; `false`, with `out` untouched, if it departed.
    fn refresh_into(&self, id: NodeToken, hints: &mut Hints, out: &mut Self::State) -> bool {
        let store = &self.membership().store;
        let live = store.position_of(hints.slot(0), id).is_some();
        if live {
            Self::store_notified(out, self.notified_half(id, hints.slot(0)));
            self.refresh_lazy(id, hints, out);
        }
        live
    }
}

/// The one writer of [`RefreshInto::refresh_into`]: node `id`'s row moves
/// out of its slot, is recomputed in its own buffers and moves back, so
/// nothing is copied or reallocated. A departed `id` is ignored.
pub fn refresh_in_place<T: RefreshInto + ?Sized>(net: &mut T, id: NodeToken, hints: &mut Hints) {
    let store = &mut net.membership_mut().store;
    let Some(own) = store.position_of(hints.slot(0), id) else {
        return;
    };
    let mut row = std::mem::take(store.state_at_mut(own));
    net.refresh_into(id, hints, &mut row);
    *net.membership_mut().store.state_at_mut(own) = row;
}

/// The node lifecycle of an overlay whose stabilizer is a *refresh*: a
/// node's links are a pure function of the live membership, so joining,
/// leaving and stabilizing are all "recompute somebody's links". The
/// overlay supplies the two protocol pieces below plus its
/// [`RefreshInto`]; the lifecycle is written once here (the paper's §3.3
/// shape: a join or graceful leave notifies only the neighbourhood that
/// lists the node, everything else waits for stabilization).
pub trait Refresh: RefreshInto + Sized {
    /// Size of the identifier space joins draw from.
    fn id_space(&self) -> u64;

    /// How many live nodes before and after a changed position it notifies.
    fn notified_window(&self) -> (usize, usize);

    /// Fills an empty network with `count` uniformly drawn nodes and
    /// stabilizes it.
    fn populate(&mut self, count: usize) {
        let space = self.id_space();
        assert!(
            count as u64 <= space,
            "{count} nodes exceed the {space}-point identifier space"
        );
        assert!(
            self.membership().store.is_empty(),
            "populate fills an empty network"
        );
        let members = self.membership_mut();
        members.store =
            CompactStore::fill(count, || members.next_in(space), |_| Default::default());
        self.stabilize();
    }

    /// Protocol join at a chosen identifier: the newcomer builds its full
    /// state and its neighbourhood mends the notified links. `false` if
    /// `id` is already live.
    fn join_id(&mut self, id: NodeToken) -> bool {
        if self.membership().store.contains(id) {
            return false;
        }
        self.membership_mut().store.insert(id, Default::default());
        let mut hints = Hints::default();
        refresh_in_place(self, id, &mut hints);
        notify_window(self, id, *hints.slot(0));
        true
    }

    /// Join at a freshly drawn free identifier; `None` when the space is
    /// full.
    fn join_random(&mut self) -> Option<NodeToken> {
        let space = self.id_space();
        if self.membership().store.len() as u64 >= space {
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
        if self.membership_mut().store.remove(id).is_none() {
            return false;
        }
        if notify {
            notify_window(self, id, Pos::default());
        }
        true
    }
}

/// The fan-out of a join or graceful leave at `id`: one search from
/// `hint`, then steps through the [`Refresh::notified_window`] around it,
/// at most one lap and the joiner skipped, mending notified halves in place.
fn notify_window<T: Refresh>(net: &mut T, id: NodeToken, mut hint: Pos) {
    let (before, after) = net.notified_window();
    let store = &net.membership().store;
    let Some(mut pos) = store.successor_from(&mut hint, id) else {
        return;
    };
    let others = store.len() - usize::from(store.token_at(pos) == id);
    for _ in 0..before.min(others) {
        pos = store.prev(pos);
    }
    for _ in 0..(before + after).min(others) {
        let store = &net.membership().store;
        if store.token_at(pos) == id {
            pos = store.next(pos);
        }
        let links = net.notified_half(store.token_at(pos), &mut pos);
        T::store_notified(net.membership_mut().store.state_at_mut(pos), links);
        pos = net.membership().store.next(pos);
    }
}

impl<T: SimOverlay> Overlay for T {
    fn len(&self) -> usize {
        self.membership().store.len()
    }

    fn node_tokens(&self) -> Vec<NodeToken> {
        self.membership().store.tokens()
    }

    fn random_node(&self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        let n = self.membership().store.len();
        if n == 0 {
            return None;
        }
        let i = (rng.next_u64() % n as u64) as usize;
        self.membership().store.nth_token(i)
    }

    fn lookup(&mut self, src: NodeToken, raw_key: u64) -> LookupTrace {
        let state = self.begin_walk(src, raw_key);
        walk_from(self, src, state, Some(raw_key), true)
    }

    fn lookup_batch(&mut self, reqs: &[(NodeToken, u64)], jobs: usize) -> Vec<LookupTrace> {
        ParallelExecutor::new(jobs).run(self, reqs)
    }

    fn stabilize_nodes(&mut self, nodes: &[NodeToken]) -> u64 {
        let billed = self.membership().telemetry.is_enabled();
        let mut hints = Hints::default();
        let mut msgs = 0;
        for &node in nodes {
            if billed {
                msgs += self.maintenance_msgs(node);
            }
            self.stabilize_one(node, &mut hints);
        }
        msgs
    }

    fn query_loads(&self) -> Vec<u64> {
        self.membership().store.loads_vec()
    }

    fn reset_query_loads(&mut self) {
        self.membership_mut().store.reset_loads();
    }

    fn state_bytes(&self) -> usize {
        self.membership().store.heap_bytes() + self.heap_beyond_rows()
    }

    fn set_net_conditions(&mut self, net: NetConditions) {
        self.membership_mut().net = net;
    }

    fn telemetry(&self) -> Telemetry {
        self.membership().telemetry.clone()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.membership_mut().telemetry = telemetry;
    }

    fn contains(&self, node: NodeToken) -> bool {
        self.membership().store.contains(node)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn lookup_begin(&mut self, src: NodeToken, raw_key: u64) -> Box<dyn LookupCursor> {
        let index = self.membership_mut().net.take_lookup_index();
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
/// The one toy overlay of this crate's unit tests.
pub(crate) mod fixture {
    use super::*;
    use crate::audit::{AuditReport, AuditScope, StateAudit};
    use crate::corrupt::{CorruptionPlan, CorruptionReport};

    /// Minimal substrate client: a ring where each node stores the
    /// successor pointer it had at insertion time and never repairs it,
    /// so departures produce stale entries (timeouts) with the global
    /// successor as fallback — enough to exercise every walk feature.
    pub(crate) struct StaleRing {
        pub(crate) members: Membership<u64>,
        space: u64,
        /// Every `repair_on_use` call, in call order (the ring itself
        /// never repairs).
        pub(crate) repair_log: Vec<HopRepair>,
        /// Upper limit on the hop budget; lower it to exhaust a walk.
        pub(crate) budget_cap: usize,
        /// When set, `owner_of` names this token, live or not — the
        /// inconsistency `overlay::key_counts` must tolerate.
        pub(crate) ghost_owner: Option<NodeToken>,
        /// When set, no node terminates a walk, the owner included: a
        /// walk ends only on its budget or with no live candidate.
        pub(crate) never_terminates: bool,
    }

    impl StaleRing {
        pub(crate) fn with_tokens(tokens: &[u64], space: u64) -> Self {
            let mut members: Membership<u64> = Membership::new(0);
            for &t in tokens {
                members.store.insert(t, t);
            }
            let snapshot: Vec<u64> = members.store.tokens();
            for &t in &snapshot {
                let succ = members.successor_after(t).unwrap();
                *members.store.get_mut(t).unwrap() = succ;
            }
            Self {
                members,
                space,
                repair_log: Vec::new(),
                budget_cap: usize::MAX,
                ghost_owner: None,
                never_terminates: false,
            }
        }
    }

    /// The ring neither corrupts nor repairs anything.
    impl Protocol for StaleRing {
        fn name(&self) -> String {
            "stale-ring".into()
        }
        fn degree_bound(&self) -> Option<usize> {
            Some(1)
        }
        fn key_id(&self, raw_key: u64) -> u64 {
            raw_key % self.space
        }
        fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
            self.ghost_owner
                .or_else(|| self.members.store.successor_of(self.key_id(raw_key)))
        }
        fn join(&mut self, _rng: &mut dyn RngCore) -> Option<NodeToken> {
            None
        }
        fn leave(&mut self, node: NodeToken) -> bool {
            self.members.store.remove(node).is_some()
        }
        fn corrupt_state(&mut self, _plan: &CorruptionPlan) -> CorruptionReport {
            CorruptionReport::default()
        }
        fn repair_node(&mut self, _node: NodeToken) -> u64 {
            0
        }
        fn maintenance_msgs(&self, _node: NodeToken) -> u64 {
            1
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
        fn hop_budget(&self) -> usize {
            (2 * self.members.store.len() + 4).min(self.budget_cap)
        }
        fn begin_walk(&self, _src: NodeToken, raw_key: u64) -> u64 {
            self.key_id(raw_key)
        }
        fn walk_owner(&self, walk: &u64) -> Option<NodeToken> {
            self.members.store.successor_of(*walk)
        }
        fn next_hop(
            &self,
            cur: NodeToken,
            walk: &mut u64,
            out: &mut Vec<(HopPhase, NodeToken)>,
        ) -> StepDecision {
            if !self.never_terminates && self.members.store.successor_of(*walk) == Some(cur) {
                return StepDecision::Terminate;
            }
            // Prefer the (possibly stale) stored pointer, then the
            // true successor as the repair fallback.
            let stored = *self.members.store.get(cur).unwrap();
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
        fn stabilize_one(&mut self, _node: NodeToken, _hints: &mut Hints) {}
    }

    /// The ring keeps no invariant worth checking: every audit is clean.
    impl StateAudit for StaleRing {
        fn audit_state(&self, scope: AuditScope) -> AuditReport {
            AuditReport::new(self.name(), scope)
        }
    }

    /// `begin_walk` + [`walk_from`]: one lookup for a raw key.
    pub(crate) fn walk_key<T: SimOverlay>(
        net: &mut T,
        src: NodeToken,
        raw_key: u64,
        count_loads: bool,
    ) -> LookupTrace {
        let state = net.begin_walk(src, raw_key);
        walk_from(net, src, state, Some(raw_key), count_loads)
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::StaleRing;
    use super::*;
    use crate::lookup::LookupOutcome;

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
}
