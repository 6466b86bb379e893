//! The Cycloid lookup algorithm (§3.2, Fig. 3).
//!
//! Routing from `(k, a_{d-1}…a_0)` towards a key `(l, b_{d-1}…b_0)` runs in
//! three phases, with `MSDB` the most significant differing bit between the
//! current node's cubical index and the key's:
//!
//! 1. **Ascending** — while `k < MSDB`, forward along the outside leaf set
//!    (normally one hop, because the outside entry is its cycle's primary).
//! 2. **Descending** — when `k == MSDB`, take the cubical neighbour
//!    (correcting bit `k`, Pastry-style left-to-right prefix routing);
//!    when `k > MSDB`, take the cyclic neighbour or an inside-leaf node,
//!    whichever is closer to the target, to lower the cyclic index.
//! 3. **Traverse cycle** — once the target is within the leaf sets, greedy
//!    leaf-set hops until the closest node is the current node itself.
//!
//! If an entry is missing or points at a departed node ("a timeout"), "the
//! node that is numerically closer to the destination among the leaf sets
//! is chosen" — the leaf sets are the fault-tolerance backbone.

use std::cmp::Reverse;

use dht_core::inline::InlineVec;
use dht_core::lookup::{HopPhase, LookupOutcome, LookupTrace};
use dht_core::overlay::{NodeToken, Protocol};
use dht_core::ring::clockwise_dist;
use dht_core::sim::{refresh_in_place, walk_from, Membership, SimOverlay, StepDecision};
use dht_core::store::Hints;
use rand::RngCore;

use crate::id::{msdb, prefix_len, CycloidId, KeyDistance};
use crate::network::CycloidNetwork;
use crate::state::NodeState;

/// Walk state of one Cycloid lookup: the mapped key plus the
/// already-visited nodes in hop order (non-improving hops may not
/// revisit, which guarantees termination; see [`SimOverlay::admit`]).
/// A path is `O(d)` nodes, so the list is scanned linearly.
#[derive(Debug, Clone)]
pub struct CycloidWalk {
    /// The key identifier the lookup is routing towards.
    pub key: CycloidId,
    visited: Vec<u64>,
}

impl<const R: usize> CycloidNetwork<R> {
    /// Performs one lookup from `src` for `raw_key`, walking the overlay
    /// hop by hop using only each node's private routing state, and
    /// returns the full trace. Every visited node's query-load counter is
    /// incremented (the §4.2 congestion measure).
    pub fn route(&mut self, src: CycloidId, raw_key: u64) -> LookupTrace {
        let key = self.key_of(raw_key);
        self.route_to_id(src, key)
    }

    /// Like [`CycloidNetwork::route`], but takes a pre-mapped key
    /// identifier.
    pub fn route_to_id(&mut self, src: CycloidId, key: CycloidId) -> LookupTrace {
        let walk = self.walk_for(src, key);
        walk_from(self, src.linear(self.dim()), walk, None, true)
    }

    /// Routing used by control traffic (join messages): same walk, but
    /// without touching the per-node query-load counters the §4.2
    /// experiment measures (which count *lookup* queries only).
    pub(crate) fn route_quiet(&mut self, src: CycloidId, key: CycloidId) -> LookupTrace {
        let walk = self.walk_for(src, key);
        walk_from(self, src.linear(self.dim()), walk, None, false)
    }

    fn walk_for(&self, src: CycloidId, key: CycloidId) -> CycloidWalk {
        CycloidWalk {
            key,
            visited: vec![src.linear(self.dim())],
        }
    }

    /// Builds the forwarding plan for one step at `cur` (Fig. 3): an
    /// ordered preference list of candidates appended to `out`, each
    /// tagged with the phase it would be accounted to. The sorted lists
    /// behind it live on the stack, sized by the leaf-radius bound (four
    /// sides of up to four entries), and are filled by `push`: `collect`
    /// builds a list in a temporary and copies all of it out, ~50 ns a hop.
    fn plan_step(
        &self,
        cur: CycloidId,
        key: CycloidId,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        let dim = self.dim();
        let state = self.node(cur).expect("current node must be live");
        let cur_dist = KeyDistance::between(key, cur, dim);

        // Live leaf-set entries strictly closer to the key than the
        // current node, sorted closest-first. This is both the termination
        // test ("the closest node is the current node itself") and the
        // universal fallback. A closer entry is never `cur` itself, and
        // liveness is only asked of the closer ones.
        let mut closer_leafs = InlineVec::<(KeyDistance, CycloidId), 16>::new();
        for c in state.leaf_entries() {
            let d = KeyDistance::between(key, c, dim);
            if d < cur_dist && self.is_live(c) {
                closer_leafs.push((d, c));
            }
        }
        closer_leafs.sort_unstable();
        closer_leafs.dedup();
        if closer_leafs.is_empty() {
            return StepDecision::Terminate;
        }
        let mut emit = |phase: HopPhase, c: CycloidId| out.push((phase, c.linear(dim)));

        let phase = if self.target_within_leaf_span(cur, state, key) {
            // Phase 3: traverse cycle — the fallback is the whole plan.
            HopPhase::TraverseCycle
        } else {
            let m = msdb(cur.cubical, key.cubical)
                .expect("outside the leaf span implies differing cubical indices");
            let k = cur.cyclic;
            if k < m {
                // Phase 1: ascending — outside-leaf hop towards the target,
                // preferring the entry whose cubical index is closest to
                // the destination, then any closer leaf.
                let mut outside = InlineVec::<(KeyDistance, CycloidId), 8>::new();
                for &c in state.outside_left.iter().chain(&state.outside_right) {
                    outside.push((KeyDistance::between(key, c, dim), c));
                }
                outside.sort_unstable();
                outside.dedup();
                for &(_, c) in outside.iter() {
                    emit(HopPhase::Ascending, c);
                }
                HopPhase::Ascending
            } else {
                // Phase 2: descending.
                if k == m {
                    // Correct bit k through the cubical neighbour.
                    if let Some(cb) = state.cubical_neighbor.get() {
                        emit(HopPhase::Descending, cb);
                    }
                } else {
                    // k > m: lower the cyclic index towards MSDB through
                    // the cyclic neighbours or inside leaf set, "whichever
                    // is closer to the target": maximal shared cubical
                    // prefix with the key, then minimal key distance.
                    let mut cands = InlineVec::<(Reverse<u32>, KeyDistance, CycloidId), 10>::new();
                    let lower = state
                        .cyclic_smaller
                        .into_iter()
                        .chain(state.cyclic_larger)
                        .chain(state.inside_left.iter().copied())
                        .chain(state.inside_right.iter().copied());
                    for c in lower.filter(|c| c.cyclic >= m && c.cyclic < k) {
                        let prefix = prefix_len(c.cubical, key.cubical, dim);
                        cands.push((Reverse(prefix), KeyDistance::between(key, c, dim), c));
                    }
                    cands.sort_unstable();
                    cands.dedup();
                    for &(_, _, c) in cands.iter() {
                        emit(HopPhase::Descending, c);
                    }
                }
                HopPhase::Descending
            }
        };
        closer_leafs.iter().for_each(|&(_, c)| emit(phase, c));
        StepDecision::Forward
    }

    /// "The target ID is within the leaf sets": the key's cycle coincides
    /// with the current node's, or lies on the clockwise arc from the
    /// farthest preceding outside-leaf cycle to the farthest succeeding
    /// one (the arc through the current node).
    fn target_within_leaf_span(
        &self,
        cur: CycloidId,
        state: &NodeState<R>,
        key: CycloidId,
    ) -> bool {
        if key.cubical == cur.cubical {
            return true;
        }
        let left_outer = match state.outside_left.last() {
            Some(c) => c.cubical,
            None => return true, // no outside leafs: lone cycle
        };
        let right_outer = match state.outside_right.last() {
            Some(c) => c.cubical,
            None => return true,
        };
        if left_outer == cur.cubical && right_outer == cur.cubical {
            return true; // network has a single cycle
        }
        let m = self.dim().cubical_space();
        let from_left = |c: u32| clockwise_dist(u64::from(left_outer), u64::from(c), m);
        from_left(key.cubical) <= from_left(right_outer)
    }
}

impl<const R: usize> Protocol for CycloidNetwork<R> {
    fn name(&self) -> String {
        format!("Cycloid({})", 3 + 4 * R)
    }

    fn degree_bound(&self) -> Option<usize> {
        Some(3 + 4 * R)
    }

    fn key_id(&self, raw_key: u64) -> u64 {
        self.key_of(raw_key).linear(self.dim())
    }

    fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
        let key = self.key_of(raw_key);
        self.owner_of_key(key).map(|id| id.linear(self.dim()))
    }

    fn join(&mut self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        self.join_random(rng).map(|id| id.linear(self.dim()))
    }

    fn leave(&mut self, node: NodeToken) -> bool {
        let id = CycloidId::from_linear(node, self.dim());
        self.leave(id)
    }

    fn fail(&mut self, node: NodeToken) -> bool {
        let id = CycloidId::from_linear(node, self.dim());
        self.fail_node(id)
    }

    fn corrupt_state(
        &mut self,
        plan: &dht_core::corrupt::CorruptionPlan,
    ) -> dht_core::corrupt::CorruptionReport {
        let dim = self.dim();
        dht_core::corrupt::corrupt_links(self, plan, dim.id_space(), |t| {
            CycloidId::from_linear(t, dim)
        })
    }

    fn repair_node(&mut self, node: NodeToken) -> u64 {
        dht_core::corrupt::repair_links(self, node)
    }

    /// One message per routing-table/leaf-set entry the node actually
    /// holds (floored at one: even a lone node probes its cycle).
    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        let id = CycloidId::from_linear(node, self.dim());
        self.members
            .store
            .get(node)
            .map_or(1, |s| (s.degree(id) as u64).max(1))
    }
}

impl<const R: usize> SimOverlay for CycloidNetwork<R> {
    type State = NodeState<R>;
    type Walk = CycloidWalk;

    fn membership(&self) -> &Membership<NodeState<R>> {
        &self.members
    }

    fn membership_mut(&mut self) -> &mut Membership<NodeState<R>> {
        &mut self.members
    }

    /// Hop budget: a correct lookup needs `O(d)` hops; the budget leaves a
    /// wide margin so only genuinely broken routing trips it.
    fn hop_budget(&self) -> usize {
        16 * self.dim().get() as usize + 64
    }

    fn begin_walk(&self, src: NodeToken, raw_key: u64) -> CycloidWalk {
        let src = CycloidId::from_linear(src, self.dim());
        self.walk_for(src, self.key_of(raw_key))
    }

    fn walk_owner(&self, walk: &CycloidWalk) -> Option<NodeToken> {
        self.owner_of_key(walk.key).map(|id| id.linear(self.dim()))
    }

    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut CycloidWalk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        self.plan_step(CycloidId::from_linear(cur, self.dim()), walk.key, out)
    }

    /// The state row: every routing-table and leaf-slot entry, which is
    /// what `plan_step` reads and spreads over the row's cache lines.
    fn warm(&self, node: NodeToken) {
        if let Some(state) = self.members.store.get(node) {
            let row = state.routing_entries().chain(state.leaf_entries());
            std::hint::black_box(row.fold(0, |acc, c| acc ^ c.cubical));
        }
    }

    /// A hop that strictly reduces the key distance can never loop, so it
    /// may revisit; non-improving (phase) hops are blocked from revisiting
    /// to guarantee termination.
    fn admit(&self, walk: &CycloidWalk, cur: NodeToken, cand: NodeToken) -> bool {
        let dim = self.dim();
        let cur_dist = KeyDistance::between(walk.key, CycloidId::from_linear(cur, dim), dim);
        let improving =
            KeyDistance::between(walk.key, CycloidId::from_linear(cand, dim), dim) < cur_dist;
        improving || !walk.visited.contains(&cand)
    }

    fn on_hop(
        &self,
        walk: &mut CycloidWalk,
        _from: NodeToken,
        _phase: HopPhase,
        to: NodeToken,
        _timed_out: &[NodeToken],
    ) {
        walk.visited.push(to);
    }

    /// A walk whose candidates were all skipped stops where it stands and
    /// is judged like a deliberate terminal (preserving the `WrongOwner`
    /// distinction), exactly as a real querier would conclude.
    fn on_exhausted(&self, cur: NodeToken, walk: &CycloidWalk) -> LookupOutcome {
        dht_core::sim::classify_terminal(cur, self.walk_owner(walk))
    }

    fn stabilize_one(&mut self, node: NodeToken, hints: &mut Hints) {
        refresh_in_place(self, node, hints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CycloidConfig;
    use dht_core::overlay::Overlay;
    use dht_core::rng::stream;
    use rand::Rng;

    fn id(k: u32, a: u32) -> CycloidId {
        CycloidId::new(k, a)
    }

    /// Routes between explicit IDs in a complete network and checks
    /// success.
    fn route_ok<const R: usize>(
        net: &mut CycloidNetwork<R>,
        src: CycloidId,
        key: CycloidId,
    ) -> LookupTrace {
        let t = net.route_to_id(src, key);
        assert_eq!(
            t.outcome,
            LookupOutcome::Found,
            "lookup {src} -> {key} ended {:?} at {}",
            t.outcome,
            CycloidId::from_linear(t.terminal, net.dim())
        );
        t
    }

    #[test]
    fn complete_network_every_pair_resolves_d4() {
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(4));
        let ids: Vec<CycloidId> = net.ids().collect();
        for &src in &ids {
            for &dst in ids.iter().step_by(5) {
                let t = route_ok(&mut net, src, dst);
                assert_eq!(
                    CycloidId::from_linear(t.terminal, net.dim()),
                    dst,
                    "in a complete network the key's own node stores it"
                );
                assert_eq!(t.timeouts, 0);
            }
        }
    }

    #[test]
    fn paper_fig4_route_example() {
        // Fig. 4: routing from (0,0100) to (2,1111) in a 4-dimensional
        // complete Cycloid passes through ascending, descending and
        // traverse phases and takes O(d) hops.
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(4));
        let t = route_ok(&mut net, id(0, 0b0100), id(2, 0b1111));
        assert!(t.path_len() >= 3, "nontrivial route expected");
        assert!(
            t.path_len() <= 12,
            "route must stay O(d), got {}",
            t.path_len()
        );
        assert!(t.hops_in_phase(HopPhase::Ascending) >= 1);
        assert!(t.hops_in_phase(HopPhase::Descending) >= 1);
    }

    #[test]
    fn ascending_usually_one_hop_in_complete_network() {
        // §4.1: "the ascending phase in Cycloid usually takes only one
        // step because the outside leaf set entry node is the primary node
        // in its cycle".
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(6));
        let mut rng = stream(11, "asc");
        let mut total_asc = 0usize;
        let mut lookups = 0usize;
        for _ in 0..500 {
            let src_lin = rng.gen_range(0..net.dim().id_space());
            let dst_lin = rng.gen_range(0..net.dim().id_space());
            let src = CycloidId::from_linear(src_lin, net.dim());
            let dst = CycloidId::from_linear(dst_lin, net.dim());
            let t = route_ok(&mut net, src, dst);
            total_asc += t.hops_in_phase(HopPhase::Ascending);
            lookups += 1;
        }
        let mean_asc = total_asc as f64 / lookups as f64;
        assert!(
            mean_asc <= 1.5,
            "mean ascending hops {mean_asc} should be about one"
        );
    }

    #[test]
    fn sparse_network_lookups_all_resolve() {
        // 300 of 2048 slots occupied: every lookup still terminates at the
        // global owner with zero timeouts (tables are fresh).
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 300, 17);
        let ids: Vec<CycloidId> = net.ids().collect();
        let mut rng = stream(18, "sparse");
        for i in 0..2000 {
            let src = ids[i % ids.len()];
            let raw: u64 = rng.gen();
            let key = net.key_of(raw);
            let t = net.route_to_id(src, key);
            assert_eq!(t.outcome, LookupOutcome::Found, "lookup {i} failed");
            assert_eq!(t.timeouts, 0);
            assert_eq!(
                Some(t.terminal),
                net.owner_of_key(key).map(|o| o.linear(net.dim()))
            );
        }
    }

    #[test]
    fn eleven_entry_paths_not_longer_on_average() {
        // §3.2: "the 11-entry Cycloid DHT has better performance".
        let mut seven = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 500, 3);
        let mut eleven = CycloidNetwork::with_nodes(CycloidConfig::eleven_entry(7), 500, 3);
        let mut rng = stream(19, "cmp");
        let reqs: Vec<(usize, u64)> = (0..2000).map(|i| (i % 500, rng.gen())).collect();
        fn mean<const R: usize>(net: &mut CycloidNetwork<R>, reqs: &[(usize, u64)]) -> f64 {
            let ids: Vec<CycloidId> = net.ids().collect();
            let mut total = 0usize;
            for &(i, raw) in reqs {
                total += net.route(ids[i], raw).path_len();
            }
            total as f64 / reqs.len() as f64
        }
        let m7 = mean(&mut seven, &reqs);
        let m11 = mean(&mut eleven, &reqs);
        assert!(
            m11 <= m7 + 0.3,
            "11-entry mean {m11} should not exceed 7-entry mean {m7}"
        );
    }

    #[test]
    fn path_length_scales_linearly_with_dimension() {
        // O(d) claim: mean path length in the complete network stays below
        // 2.5 * d for every simulated dimension.
        for d in 3..=7u32 {
            let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
            let mut rng = stream(u64::from(d), "odim");
            let space = net.dim().id_space();
            let mut total = 0usize;
            let n_lookups = 400;
            for _ in 0..n_lookups {
                let src = CycloidId::from_linear(rng.gen_range(0..space), net.dim());
                let dst = CycloidId::from_linear(rng.gen_range(0..space), net.dim());
                total += route_ok(&mut net, src, dst).path_len();
            }
            let mean = total as f64 / f64::from(n_lookups);
            assert!(
                mean <= 2.5 * f64::from(d),
                "complete Cycloid({d}) mean path {mean} exceeds 2.5d"
            );
        }
    }

    #[test]
    fn lookup_after_mass_departures_still_resolves() {
        // §4.3's property: after massive graceful departures and NO
        // stabilization, all lookups still resolve (leaf sets carry the
        // routing), at the cost of timeouts.
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 1024, 23);
        let mut rng = stream(29, "fail");
        let ids: Vec<CycloidId> = net.ids().collect();
        for &node in &ids {
            if rng.gen_bool(0.4) {
                net.leave(node);
            }
        }
        let live: Vec<CycloidId> = net.ids().collect();
        assert!(!live.is_empty());
        let mut total_timeouts = 0u32;
        for i in 0..1000 {
            let src = live[i % live.len()];
            let raw: u64 = rng.gen();
            let t = net.route(src, raw);
            assert_eq!(
                t.outcome,
                LookupOutcome::Found,
                "lookup {i} failed after departures"
            );
            total_timeouts += t.timeouts;
        }
        assert!(
            total_timeouts > 0,
            "stale cubical/cyclic entries must produce timeouts"
        );
    }

    #[test]
    fn stabilization_removes_timeouts() {
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 1024, 31);
        let mut rng = stream(37, "stab");
        let ids: Vec<CycloidId> = net.ids().collect();
        for &node in &ids {
            if rng.gen_bool(0.3) {
                net.leave(node);
            }
        }
        net.stabilize();
        let live: Vec<CycloidId> = net.ids().collect();
        for i in 0..500 {
            let src = live[i % live.len()];
            let t = net.route(src, rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
            assert_eq!(t.timeouts, 0, "stabilized network must have no timeouts");
        }
    }

    #[test]
    fn query_loads_accumulate_over_lookups() {
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(6), 100, 41);
        let ids: Vec<CycloidId> = net.ids().collect();
        let mut rng = stream(43, "load");
        for i in 0..200 {
            let src = ids[i % ids.len()];
            let _ = net.route(src, rng.gen());
        }
        let loads = net.query_loads();
        let total: u64 = loads.iter().sum();
        assert!(total >= 200, "at least the source visit per lookup");
    }

    #[test]
    fn route_from_every_node_to_same_key_agrees() {
        // Determinism/consistency: the terminal node is the unique owner
        // regardless of the source.
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 300, 47);
        let ids: Vec<CycloidId> = net.ids().collect();
        let raw = 0xdead_beef_cafe_f00d;
        let owner = net.owner_of_key(net.key_of(raw)).unwrap();
        for &src in ids.iter().step_by(13) {
            let t = net.route(src, raw);
            assert_eq!(t.outcome, LookupOutcome::Found);
            assert_eq!(t.terminal, owner.linear(net.dim()));
        }
    }

    #[test]
    fn two_node_network_routes() {
        let mut net = CycloidNetwork::new(CycloidConfig::seven_entry(4), 51);
        net.join_id(id(1, 2));
        net.join_id(id(3, 11));
        net.stabilize();
        for raw in 0..50u64 {
            let t = net.route(id(1, 2), raw.wrapping_mul(0x1234_5678_9abc));
            assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let mut net = CycloidNetwork::new(CycloidConfig::seven_entry(4), 53);
        net.join_id(id(2, 7));
        let t = net.route(id(2, 7), 999);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.path_len(), 0);
    }
}
