//! The simulated Viceroy butterfly: membership, level assignment, link
//! resolution, and the three-phase lookup.

use std::collections::BTreeSet;

use dht_core::hash::{reduce, splitmix64};
use dht_core::lookup::HopPhase;
use dht_core::overlay::{NodeToken, Protocol};
use dht_core::ring::{in_interval_oc, ring_dist};
use dht_core::sim::{Membership, SimOverlay, StepDecision};
use dht_core::store::Hints;
use rand::{Rng, RngCore};

/// Configuration of a Viceroy deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViceroyConfig {
    /// Fixed-point precision of the `[0,1)` identifier circle: identifiers
    /// live on a `2^bits` ring. 48 bits makes collisions negligible at any
    /// simulated scale while leaving headroom for ring arithmetic.
    pub bits: u32,
}

impl ViceroyConfig {
    /// Default precision.
    #[must_use]
    pub fn new() -> Self {
        Self { bits: 48 }
    }

    /// Ring size `2^bits`.
    #[must_use]
    pub fn space(&self) -> u64 {
        1u64 << self.bits
    }
}

impl Default for ViceroyConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One Viceroy node's row: its butterfly level. Its identifier, a
/// fixed-point fraction of the circle fixed for the node's lifetime, is
/// the token the membership store keys the row by. The level was drawn
/// uniformly from `[1, max(1, ⌈log₂ n₀⌉)]` at join time, with `n₀` the
/// then-current network-size estimate (§2.4: "the level is randomly
/// selected from a range of [1, log n₀]").
#[derive(Debug, Clone)]
pub struct ViceroyNode {
    /// Butterfly level, 1-based.
    pub level: u32,
}

/// Which of the three lookup phases the walk is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkPhase {
    /// Phase 1: ascend to a level-1 node via up links.
    Up,
    /// Phase 2: descend the butterfly via down links.
    Down,
    /// Phase 3: traverse ring and level-ring pointers to the successor.
    Traverse,
}

/// The state an in-flight Viceroy lookup carries: the target ring key
/// and the current butterfly phase.
#[derive(Debug, Clone, Copy)]
pub struct ViceroyWalk {
    /// Target identifier on the ring.
    pub key: u64,
    phase: WalkPhase,
}

/// A simulated Viceroy network.
///
/// Links are resolved lazily from the live membership — equivalent to the
/// eager everyone-gets-repaired protocol the paper ascribes to Viceroy,
/// which is why Viceroy shows zero timeouts in every churn experiment.
#[derive(Debug, Clone)]
pub struct ViceroyNetwork {
    config: ViceroyConfig,
    pub(crate) members: Membership<ViceroyNode>,
    /// `by_level[l]` holds identifiers of the nodes at level `l+1`.
    by_level: Vec<BTreeSet<u64>>,
}

impl ViceroyNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new(config: ViceroyConfig, seed: u64) -> Self {
        Self {
            config,
            members: Membership::new(seed),
            by_level: Vec::new(),
        }
    }

    /// Builds a network of `count` nodes; levels are drawn uniformly from
    /// `[1, max(1, ⌈log₂ count⌉)]`.
    #[must_use]
    pub fn with_nodes(config: ViceroyConfig, count: usize, seed: u64) -> Self {
        let mut net = Self::new(config, seed);
        let mut rng = dht_core::rng::stream(seed, "viceroy-levels");
        let max_level = Self::level_range_for(count);
        while net.members.store.len() < count {
            let id = net.members.next_in(config.space());
            if !net.members.store.contains(id) {
                let level = rng.gen_range(1..=max_level);
                net.insert_raw(id, level);
            }
        }
        net
    }

    /// The level range `[1, max(1, ⌈log₂ n⌉)]` for a network-size estimate.
    #[must_use]
    pub fn level_range_for(n_estimate: usize) -> u32 {
        let n = n_estimate.max(2) as f64;
        (n.log2().ceil() as u32).max(1)
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> ViceroyConfig {
        self.config
    }

    /// The per-level identifier index (`level_sets()[l]` holds level
    /// `l+1`), for the audit's partition-consistency check.
    pub(crate) fn level_sets(&self) -> &[BTreeSet<u64>] {
        &self.by_level
    }

    /// Maps a raw key onto the identifier circle.
    #[must_use]
    pub fn key_of(&self, raw_key: u64) -> u64 {
        reduce(splitmix64(raw_key), self.config.space())
    }

    fn insert_raw(&mut self, id: u64, level: u32) {
        self.members.store.insert(id, ViceroyNode { level });
        if self.by_level.len() < level as usize {
            self.by_level.resize(level as usize, BTreeSet::new());
        }
        self.by_level[(level - 1) as usize].insert(id);
    }

    fn remove_raw(&mut self, id: u64) -> Option<ViceroyNode> {
        let node = self.members.store.remove(id)?;
        self.by_level[(node.level - 1) as usize].remove(&id);
        Some(node)
    }

    // ------------------------------------------------------------------
    // Link resolution (always-correct, see crate docs)
    // ------------------------------------------------------------------

    /// General-ring successor link of node `id`.
    #[must_use]
    pub fn succ_link(&self, id: u64) -> Option<u64> {
        if self.members.store.len() <= 1 {
            return None;
        }
        self.members.successor_after(id)
    }

    /// General-ring predecessor link of node `id`.
    #[must_use]
    pub fn pred_link(&self, id: u64) -> Option<u64> {
        if self.members.store.len() <= 1 {
            return None;
        }
        self.members.predecessor_of(id)
    }

    /// The node of `level` nearest (in ring distance, either direction) to
    /// ring point `x` — how Viceroy resolves its butterfly links, so that
    /// landing slack is centred rather than one-sided.
    fn nearest_at_level(&self, level: u32, x: u64) -> Option<u64> {
        let set = self.by_level.get((level - 1) as usize)?;
        if set.is_empty() {
            return None;
        }
        let space = self.config.space();
        let after = set
            .range(x..)
            .next()
            .or_else(|| set.range(..).next())
            .copied()?;
        let before = set
            .range(..x)
            .next_back()
            .or_else(|| set.range(..).next_back())
            .copied()?;
        if ring_dist(after, x, space) <= ring_dist(before, x, space) {
            Some(after)
        } else {
            Some(before)
        }
    }

    /// Level-ring "next" link: the next node of the same level clockwise.
    #[must_use]
    pub fn level_next_link(&self, id: u64) -> Option<u64> {
        let level = self.members.store.get(id)?.level;
        let set = &self.by_level[(level - 1) as usize];
        if set.len() <= 1 {
            return None;
        }
        set.range(id + 1..)
            .next()
            .or_else(|| set.range(..).next())
            .copied()
    }

    /// Level-ring "previous" link: the previous node of the same level.
    #[must_use]
    pub fn level_prev_link(&self, id: u64) -> Option<u64> {
        let level = self.members.store.get(id)?.level;
        let set = &self.by_level[(level - 1) as usize];
        if set.len() <= 1 {
            return None;
        }
        set.range(..id)
            .next_back()
            .or_else(|| set.range(..).next_back())
            .copied()
    }

    /// Down-left butterfly link: the level `l+1` node nearest, in either
    /// direction, to the node's own position.
    #[must_use]
    pub fn down_left_link(&self, id: u64) -> Option<u64> {
        let level = self.members.store.get(id)?.level;
        self.nearest_at_level(level + 1, id)
    }

    /// Down-right butterfly link: the level `l+1` node nearest, in either
    /// direction, to `id + 2^{-l}` (a jump of one butterfly span).
    #[must_use]
    pub fn down_right_link(&self, id: u64) -> Option<u64> {
        let level = self.members.store.get(id)?.level;
        let space = self.config.space();
        let jump = space >> level.min(self.config.bits);
        self.nearest_at_level(level + 1, (id + jump) % space)
    }

    /// Up butterfly link: the level `l-1` node nearest, in either
    /// direction, to the node's own position. `None` at level 1.
    #[must_use]
    pub fn up_link(&self, id: u64) -> Option<u64> {
        let level = self.members.store.get(id)?.level;
        if level <= 1 {
            return None;
        }
        self.nearest_at_level(level - 1, id)
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Local termination test: the key falls between this node's
    /// predecessor and itself (a lone node owns everything).
    fn key_lands_here(&self, cur: u64, key: u64) -> bool {
        match self.pred_link(cur) {
            Some(pred) => in_interval_oc(key, pred, cur, self.config.space()),
            None => true,
        }
    }
}

impl Protocol for ViceroyNetwork {
    fn name(&self) -> String {
        "Viceroy".to_string()
    }

    fn degree_bound(&self) -> Option<usize> {
        Some(7) // succ, pred, level next/prev, down-left, down-right, up
    }

    fn key_id(&self, raw_key: u64) -> u64 {
        self.key_of(raw_key)
    }

    fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
        self.members.store.successor_of(self.key_of(raw_key))
    }

    /// A node joins with a fresh identifier; its level is drawn from the
    /// current size estimate. All affected links are repaired immediately
    /// (Viceroy's expensive-but-thorough join).
    fn join(&mut self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        if self.members.store.len() as u64 >= self.config.space() {
            return None;
        }
        let max_level = Self::level_range_for(self.members.store.len() + 1);
        loop {
            let id = self.members.next_in(self.config.space());
            if !self.members.store.contains(id) {
                let level = 1 + (rng.next_u64() % u64::from(max_level)) as u32;
                self.insert_raw(id, level);
                return Some(id);
            }
        }
    }

    /// Graceful departure; every node that referenced the leaver is
    /// repaired before it goes (hence zero timeouts, §4.3).
    fn leave(&mut self, node: NodeToken) -> bool {
        self.remove_raw(node).is_some()
    }

    fn corrupt_state(
        &mut self,
        plan: &dht_core::corrupt::CorruptionPlan,
    ) -> dht_core::corrupt::CorruptionReport {
        self.corrupt(plan)
    }

    fn repair_node(&mut self, node: NodeToken) -> u64 {
        self.repair_one(node)
    }

    /// Links resolve lazily from live membership, so a maintenance pass
    /// probes the full constant link set — capped by the nodes that
    /// actually exist to answer.
    fn maintenance_msgs(&self, _node: NodeToken) -> u64 {
        (self.members.store.len().saturating_sub(1) as u64).clamp(1, 7)
    }
}

impl SimOverlay for ViceroyNetwork {
    type State = ViceroyNode;
    type Walk = ViceroyWalk;

    fn membership(&self) -> &Membership<ViceroyNode> {
        &self.members
    }

    fn membership_mut(&mut self) -> &mut Membership<ViceroyNode> {
        &mut self.members
    }

    fn hop_budget(&self) -> usize {
        8 * (usize::BITS - self.members.store.len().leading_zeros()) as usize + 256
    }

    fn begin_walk(&self, _src: NodeToken, raw_key: u64) -> ViceroyWalk {
        ViceroyWalk {
            key: self.key_of(raw_key),
            phase: WalkPhase::Up,
        }
    }

    fn walk_owner(&self, walk: &ViceroyWalk) -> Option<NodeToken> {
        self.members.store.successor_of(walk.key)
    }

    /// Ascend to level 1, descend the butterfly, then traverse ring and
    /// level-ring pointers to the key's successor.
    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut ViceroyWalk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        let space = self.config.space();
        let key = walk.key;
        if self.key_lands_here(cur, key) {
            return StepDecision::Terminate;
        }
        let next = loop {
            match walk.phase {
                // Phase 1: ascend to a level-1 node via up links.
                WalkPhase::Up => match self.up_link(cur) {
                    Some(up) => break Some((HopPhase::Ascending, up)),
                    None => walk.phase = WalkPhase::Down,
                },
                // Phase 2: descend along down links until a node with no
                // down links is reached, taking at each level the down
                // link whose landing point is ring-closest to the key
                // (the butterfly's choose-left-or-right step, robust to
                // sparse-level landing slack).
                WalkPhase::Down => {
                    let next = [self.down_left_link(cur), self.down_right_link(cur)]
                        .into_iter()
                        .flatten()
                        .filter(|&n| n != cur)
                        .min_by_key(|&n| ring_dist(n, key, space));
                    match next {
                        Some(n) => break Some((HopPhase::Descending, n)),
                        None => walk.phase = WalkPhase::Traverse,
                    }
                }
                // Phase 3: traverse the general ring and the level ring,
                // greedily reducing the ring distance to the key in either
                // direction, with a final successor fix-up to land on the
                // key's successor.
                WalkPhase::Traverse => {
                    let cur_dist = ring_dist(cur, key, space);
                    let greedy = [
                        self.succ_link(cur),
                        self.pred_link(cur),
                        self.level_next_link(cur),
                        self.level_prev_link(cur),
                    ]
                    .into_iter()
                    .flatten()
                    .filter(|&n| n != cur)
                    .min_by_key(|&n| ring_dist(n, key, space))
                    .filter(|&n| ring_dist(n, key, space) < cur_dist);
                    // No strict ring progress left: the key sits between
                    // this node and its successor — the successor is the
                    // storing node.
                    let fixup = || {
                        self.succ_link(cur)
                            .filter(|&s| in_interval_oc(key, cur, s, space))
                    };
                    break greedy.or_else(fixup).map(|n| (HopPhase::TraverseCycle, n));
                }
            }
        };
        out.extend(next);
        StepDecision::Forward
    }

    fn stabilize_one(&mut self, _node: NodeToken, _hints: &mut Hints) {}

    fn heap_beyond_rows(&self) -> usize {
        // The per-level membership index outside the node arena.
        self.by_level
            .iter()
            .map(|s| dht_core::store::approx_btree_bytes(s.len(), std::mem::size_of::<u64>()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::lookup::LookupOutcome;
    use dht_core::overlay::{Overlay, Protocol};
    use dht_core::rng::stream;

    #[test]
    fn with_nodes_levels_in_range() {
        let net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 1000, 1);
        assert_eq!(net.len(), 1000);
        let max = ViceroyNetwork::level_range_for(1000);
        assert_eq!(max, 10);
        for id in net.members.store.token_iter() {
            let l = net.members.store.get(id).unwrap().level;
            assert!(l >= 1 && l <= max, "level {l} out of [1, {max}]");
        }
    }

    #[test]
    fn all_lookups_resolve() {
        let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 500, 2);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(3, "vic");
        for i in 0..2000 {
            let src = ids[i % ids.len()];
            let raw: u64 = rng.gen();
            let key = net.key_of(raw);
            let t = net.lookup(src, raw);
            assert_eq!(t.outcome, LookupOutcome::Found, "lookup {i}");
            assert_eq!(t.timeouts, 0);
            assert_eq!(Some(t.terminal), net.members.store.successor_of(key));
        }
    }

    #[test]
    fn paths_are_logarithmic_but_longer_than_constant_dht() {
        let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 1024, 4);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(5, "viclen");
        let mut total = 0usize;
        let trials = 1500;
        for i in 0..trials {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
            total += t.path_len();
        }
        let mean = total as f64 / trials as f64;
        // log2(1024) = 10: Viceroy takes a multiple of that, but must stay
        // O(log n).
        assert!(mean > 8.0, "Viceroy paths should be long: {mean}");
        assert!(mean < 50.0, "Viceroy paths must stay O(log n): {mean}");
    }

    #[test]
    fn three_phases_all_appear() {
        let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 800, 6);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(7, "vicphase");
        let mut asc = 0usize;
        let mut desc = 0usize;
        let mut trav = 0usize;
        for i in 0..500 {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            asc += t.hops_in_phase(HopPhase::Ascending);
            desc += t.hops_in_phase(HopPhase::Descending);
            trav += t.hops_in_phase(HopPhase::TraverseCycle);
        }
        assert!(asc > 0, "ascending hops expected");
        assert!(desc > 0, "descending hops expected");
        assert!(trav > 0, "traverse hops expected");
        // §4.1: more than half of Viceroy's cost is the traverse phase.
        let total = asc + desc + trav;
        assert!(
            trav * 10 >= total * 3,
            "traverse share should be large: {trav}/{total}"
        );
    }

    #[test]
    fn churn_never_times_out() {
        let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 256, 8);
        let mut rng = stream(9, "vicchurn");
        for round in 0..50 {
            let _ = net.join(&mut rng);
            let ids: Vec<u64> = net.members.store.token_iter().collect();
            let victim = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
            net.leave(victim);
            let ids: Vec<u64> = net.members.store.token_iter().collect();
            let src = ids[round % ids.len()];
            let t = net.lookup(src, rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found, "round {round}");
            assert_eq!(t.timeouts, 0);
        }
    }

    #[test]
    fn shrinking_network_shortens_paths() {
        // §4.3: with p = 0.5 departures, Viceroy's path length approaches
        // that of a half-size network.
        let mean_path = |count: usize, seed: u64| -> f64 {
            let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), count, seed);
            let ids: Vec<u64> = net.members.store.token_iter().collect();
            let mut rng = stream(seed, "vicshrink");
            let mut total = 0usize;
            for i in 0..800 {
                total += net.lookup(ids[i % ids.len()], rng.gen()).path_len();
            }
            total as f64 / 800.0
        };
        let big = mean_path(2048, 10);
        let small = mean_path(512, 11);
        assert!(
            small < big,
            "smaller network must have shorter paths: {small} vs {big}"
        );
    }

    #[test]
    fn lone_node_owns_everything() {
        let mut net = ViceroyNetwork::new(ViceroyConfig::new(), 12);
        let mut rng = stream(13, "lone");
        let id = net.join(&mut rng).unwrap();
        let t = net.lookup(id, 12345);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.path_len(), 0);
    }

    #[test]
    fn link_resolution_sanity() {
        let mut net = ViceroyNetwork::new(ViceroyConfig { bits: 8 }, 14);
        net.insert_raw(10, 1);
        net.insert_raw(50, 2);
        net.insert_raw(100, 2);
        net.insert_raw(200, 3);
        assert_eq!(net.succ_link(10), Some(50));
        assert_eq!(net.pred_link(10), Some(200), "wraps");
        assert_eq!(net.level_next_link(50), Some(100));
        assert_eq!(net.level_next_link(100), Some(50), "level ring wraps");
        assert_eq!(net.down_left_link(10), Some(50), "nearest level-2 to 10");
        assert_eq!(net.up_link(200), Some(100), "nearest level-2 to 200");
        assert_eq!(net.up_link(10), None, "level 1 has no up link");
        assert_eq!(net.down_left_link(200), None, "no level-4 nodes");
    }

    #[test]
    fn trait_roundtrip() {
        let mut net: Box<dyn Overlay> =
            Box::new(ViceroyNetwork::with_nodes(ViceroyConfig::new(), 200, 1));
        assert_eq!(net.name(), "Viceroy");
        assert_eq!(net.degree_bound(), Some(7));
        let tokens = net.node_tokens();
        let t = net.lookup(tokens[7], 4242);
        assert!(t.outcome.is_success());
        assert_eq!(Some(t.terminal), net.owner_of(4242));
    }

    #[test]
    fn key_counts_sum_matches() {
        use dht_core::overlay::key_counts;
        use dht_core::workload;
        let net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 150, 2);
        let keys = workload::key_population(4_000, &mut stream(3, "vk"));
        let counts = key_counts(&net, &keys);
        assert_eq!(counts.iter().sum::<u64>(), 4_000);
    }

    #[test]
    fn churn_through_trait() {
        let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 64, 4);
        let mut rng = stream(5, "vt");
        let n = Protocol::join(&mut net, &mut rng).unwrap();
        assert!(Protocol::leave(&mut net, n));
        assert_eq!(net.len(), 64);
    }
}
