//! The simulated Chord ring: membership, pointer resolution, greedy
//! finger routing, join/leave protocols, and stabilization.
//!
//! Built on the shared [`dht_core::sim`] substrate: the
//! [`Membership`] arena owns node states, identifier allocation and
//! query-load counters, and the [`SimOverlay`] impl at the bottom of
//! this file expresses Chord's routing as a per-hop decision the
//! substrate's walk driver executes.
//!
//! The node lifecycle — `populate`, `join_id`, `join_random`,
//! `depart(id, notify)` — is not written here: it is the provided half
//! of [`dht_core::sim::Refresh`] (bring the trait into scope to call
//! it), driven by the Chord pieces in the `impl Refresh` below and the
//! row's two halves in `impl RefreshInto`.

use dht_core::hash::{reduce, splitmix64};
use dht_core::lookup::HopPhase;
use dht_core::overlay::{NodeToken, Protocol};
use dht_core::ring::{clockwise_dist, in_interval_oc, in_interval_oo};
use dht_core::sim::{refresh_in_place, Membership, Refresh, RefreshInto, SimOverlay, StepDecision};
use dht_core::store::{Hints, Pos};
use rand::RngCore;

use crate::node::{ChordNode, SuccessorList};

/// Configuration of a Chord deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChordConfig {
    /// Identifier bits: the ring has `2^bits` positions and `bits` fingers
    /// per node.
    pub bits: u32,
    /// Successor-list length (the paper's fault-tolerance backup; 3 keeps
    /// parity with Koorde's three successors).
    pub successor_list: usize,
}

impl ChordConfig {
    /// Standard configuration: `bits`-bit ring, successor list of 3.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=63).contains(&bits), "Chord bits must be in [1, 63]");
        Self {
            bits,
            successor_list: 3,
        }
    }

    /// The ring size `2^bits`.
    #[must_use]
    pub fn space(&self) -> u64 {
        1u64 << self.bits
    }
}

/// A simulated Chord network.
#[derive(Debug, Clone)]
pub struct ChordNetwork {
    config: ChordConfig,
    /// Live nodes keyed by ring identifier.
    members: Membership<ChordNode>,
}

impl ChordNetwork {
    /// Creates an empty ring. Panics if `config.successor_list` does not
    /// fit the nodes' inline [`SuccessorList`].
    #[must_use]
    pub fn new(config: ChordConfig, seed: u64) -> Self {
        let cap = SuccessorList::new().capacity();
        assert!(
            (1..=cap).contains(&config.successor_list),
            "Chord successor_list must be in [1, {cap}]"
        );
        Self {
            config,
            members: Membership::new(seed),
        }
    }

    /// Builds a stabilized ring of `count` uniformly placed nodes.
    #[must_use]
    pub fn with_nodes(config: ChordConfig, count: usize, seed: u64) -> Self {
        let mut net = Self::new(config, seed);
        net.populate(count);
        net
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> ChordConfig {
        self.config
    }

    /// Maps a raw key onto the ring.
    #[must_use]
    pub fn key_of(&self, raw_key: u64) -> u64 {
        reduce(splitmix64(raw_key), self.config.space())
    }
}

/// Per-lookup walk state: the ring point being routed towards.
#[derive(Debug, Clone, Copy)]
pub struct ChordWalk {
    /// The mapped key.
    pub key: u64,
}

/// Chord's row: the ring pointers are its notified half, the fingers its
/// lazy half.
impl RefreshInto for ChordNetwork {
    /// Predecessor and successor list.
    type Notified = (u64, SuccessorList);

    fn notified_half(&self, id: u64, hint: &mut Pos) -> (u64, SuccessorList) {
        let r = self.config.successor_list;
        self.members
            .ring_pointers(id, r, hint)
            .expect("own ring is not empty")
    }

    fn store_notified(row: &mut ChordNode, (pred, succs): (u64, SuccessorList)) {
        row.predecessor = pred;
        row.successors = succs;
    }

    /// Hint `1 + i` is finger `i`'s: `id + 2^i` ascends with `id`, up to
    /// one wrap per finger. The fingers are refilled in the buffer `out`
    /// has.
    fn refresh_lazy(&self, id: u64, hints: &mut Hints, out: &mut ChordNode) {
        let order = &self.members.store;
        let space = self.config.space();
        out.fingers.clear();
        out.fingers.extend((0..self.config.bits as usize).map(|i| {
            let at = order.successor_from(hints.slot(1 + i), (id + (1u64 << i)) % space);
            order.token_at(at.expect("own ring is not empty"))
        }));
    }
}

/// Chord's protocol pieces for the shared [`Refresh`] lifecycle.
/// Join/leave notifications mend predecessor and successor list only;
/// **fingers elsewhere are not notified** and stay stale until
/// stabilization (the timeouts of §4.3).
impl Refresh for ChordNetwork {
    fn id_space(&self) -> u64 {
        self.config.space()
    }

    /// The `r` predecessors hold `id` in their successor lists, the
    /// successor as its predecessor.
    fn notified_window(&self) -> (usize, usize) {
        (self.config.successor_list, 1)
    }
}

impl Protocol for ChordNetwork {
    fn name(&self) -> String {
        "Chord".to_string()
    }

    fn degree_bound(&self) -> Option<usize> {
        None // O(log n) fingers: not constant-degree
    }

    fn key_id(&self, raw_key: u64) -> u64 {
        self.key_of(raw_key)
    }

    fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
        self.members.store.successor_of(self.key_of(raw_key))
    }

    fn join(&mut self, _rng: &mut dyn RngCore) -> Option<NodeToken> {
        self.join_random()
    }

    fn leave(&mut self, node: NodeToken) -> bool {
        self.depart(node, true)
    }

    fn fail(&mut self, node: NodeToken) -> bool {
        self.depart(node, false)
    }

    fn corrupt_state(
        &mut self,
        plan: &dht_core::corrupt::CorruptionPlan,
    ) -> dht_core::corrupt::CorruptionReport {
        let space = self.config.space();
        dht_core::corrupt::corrupt_links(self, plan, space, |t| t)
    }

    fn repair_node(&mut self, node: NodeToken) -> u64 {
        dht_core::corrupt::repair_links(self, node)
    }

    /// One message per distinct finger/successor/predecessor entry.
    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        self.members
            .store
            .get(node)
            .map_or(1, |s| (s.degree(node) as u64).max(1))
    }
}

impl SimOverlay for ChordNetwork {
    type State = ChordNode;
    type Walk = ChordWalk;

    fn membership(&self) -> &Membership<ChordNode> {
        &self.members
    }

    fn membership_mut(&mut self) -> &mut Membership<ChordNode> {
        &mut self.members
    }

    fn hop_budget(&self) -> usize {
        8 * self.config.bits as usize + 64
    }

    fn begin_walk(&self, _src: NodeToken, raw_key: u64) -> ChordWalk {
        ChordWalk {
            key: self.key_of(raw_key),
        }
    }

    fn walk_owner(&self, walk: &ChordWalk) -> Option<NodeToken> {
        self.members.store.successor_of(walk.key)
    }

    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut ChordWalk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        let space = self.config.space();
        let key = walk.key;
        let node = self.members.store.get(cur).expect("current node is live");
        // Terminal test: cur owns (pred, cur].
        if in_interval_oc(key, node.predecessor, cur, space) {
            return StepDecision::Terminate;
        }
        // Candidate order: if the key is between cur and its successor,
        // go to the successor (it is the owner); otherwise the closest
        // preceding finger, falling back through lower fingers and the
        // successor list on timeouts.
        if !in_interval_oc(key, cur, node.successor(), space) {
            out.extend(
                node.fingers
                    .iter()
                    .filter(|&&f| f != cur && in_interval_oo(f, cur, key, space))
                    .map(|&f| (HopPhase::Finger, f)),
            );
            // Closest preceding first: maximal clockwise distance from
            // cur (i.e. nearest to the key without passing it).
            out.sort_unstable_by_key(|&(_, f)| std::cmp::Reverse(clockwise_dist(cur, f, space)));
            out.dedup();
        }
        out.extend(node.successors.iter().map(|&s| (HopPhase::Successor, s)));
        StepDecision::Forward
    }

    /// The state row, and one finger per cache line of the finger block
    /// behind it (`next_hop` scans them all).
    fn warm(&self, node: NodeToken) {
        if let Some(n) = self.members.store.get(node) {
            let lines = n.fingers.iter().step_by(8);
            std::hint::black_box(lines.fold(n.predecessor, |acc, f| acc ^ f));
        }
    }

    fn stabilize_one(&mut self, node: NodeToken, hints: &mut Hints) {
        refresh_in_place(self, node, hints);
    }

    fn heap_beyond_rows(&self) -> usize {
        // Successor list is inline; only the O(log n) finger tables
        // live on the heap.
        let fingers = self.members.store.states().map(|s| s.fingers.capacity());
        fingers.sum::<usize>() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::lookup::LookupOutcome;
    use dht_core::overlay::{Overlay, Protocol};
    use dht_core::rng::stream;
    use dht_core::sim::walk_from;
    use rand::Rng;

    #[test]
    #[should_panic(expected = "Chord successor_list must be in [1, 4]")]
    fn successor_list_over_the_inline_capacity_is_rejected_by_name() {
        let config = ChordConfig {
            successor_list: 5,
            ..ChordConfig::new(11)
        };
        let _ = ChordNetwork::with_nodes(config, 8, 1);
    }

    #[test]
    fn with_nodes_builds_and_stabilizes() {
        let net = ChordNetwork::with_nodes(ChordConfig::new(11), 500, 1);
        assert_eq!(net.len(), 500);
        for id in net.members.store.token_iter() {
            let n = net.members.store.get(id).unwrap();
            assert_eq!(n.fingers.len(), 11);
            assert!(net.contains(n.successor()));
            assert!(net.contains(n.predecessor));
        }
    }

    #[test]
    fn refresh_refills_the_finger_buffer_in_place() {
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(11), 300, 1);
        let buffers = |net: &ChordNetwork| -> Vec<(usize, *const u64)> {
            let fingers = net.members.store.states().map(|n| &n.fingers);
            fingers.map(|f| (f.capacity(), f.as_ptr())).collect()
        };
        let before = buffers(&net);
        assert!(before.iter().all(|&(capacity, _)| capacity == 11));
        net.stabilize();
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        net.stabilize_node(ids[17]);
        assert_eq!(net.repair_node(ids[18]), 0);
        assert_eq!(buffers(&net), before, "a refresh reallocated fingers");
    }

    #[test]
    fn successor_predecessor_ground_truth() {
        let mut net = ChordNetwork::new(ChordConfig::new(6), 2);
        for id in [5u64, 20, 40, 60] {
            net.join_id(id);
        }
        assert_eq!(net.members.store.successor_of(5), Some(5));
        assert_eq!(net.members.store.successor_of(6), Some(20));
        assert_eq!(net.members.store.successor_of(61), Some(5), "wraps");
        assert_eq!(net.members.predecessor_of(5), Some(60), "wraps back");
        assert_eq!(net.members.predecessor_of(21), Some(20));
    }

    #[test]
    fn all_lookups_resolve_in_stable_ring() {
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(11), 300, 3);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(4, "chord");
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
    fn path_length_is_logarithmic() {
        // Mean path must be around (log2 n)/2 and well below log2 n + slack.
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(16), 1024, 5);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(6, "chordlen");
        let mut total = 0usize;
        let trials = 2000;
        for i in 0..trials {
            let src = ids[i % ids.len()];
            total += net.lookup(src, rng.gen()).path_len();
        }
        let mean = total as f64 / trials as f64;
        assert!(mean > 2.0 && mean < 11.0, "mean path {mean} not O(log n)");
    }

    #[test]
    fn graceful_leave_keeps_lookups_correct_with_timeouts() {
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(11), 1024, 7);
        let mut rng = stream(8, "chordfail");
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        for &id in &ids {
            if rng.gen_bool(0.3) {
                net.depart(id, true);
            }
        }
        let live: Vec<u64> = net.members.store.token_iter().collect();
        let mut timeouts = 0u32;
        for i in 0..1000 {
            let t = net.lookup(live[i % live.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found, "lookup {i}");
            timeouts += t.timeouts;
        }
        assert!(timeouts > 0, "stale fingers must time out");
        net.stabilize();
        for i in 0..200 {
            let t = net.lookup(live[i % live.len()], rng.gen());
            assert_eq!(t.timeouts, 0, "stabilization removes timeouts");
        }
    }

    #[test]
    fn join_makes_new_node_reachable() {
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(10), 100, 9);
        let newcomer = net.join_random().unwrap();
        // A key just below the newcomer maps to it.
        let probe = newcomer; // key == node id -> successor is the node
        let src = net.node_tokens()[0];
        let t = walk_from(&mut net, src, ChordWalk { key: probe }, None, true);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.terminal, newcomer);
    }

    #[test]
    fn leave_mends_ring_pointers() {
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(8), 50, 10);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let victim = ids[10];
        let before_pred = net.members.predecessor_of(victim).unwrap();
        let after_succ = net.members.store.successor_of((victim + 1) % 256).unwrap();
        net.depart(victim, true);
        let p = net.members.store.get(before_pred).unwrap();
        assert_eq!(p.successor(), after_succ, "ring mended around leaver");
        let s = net.members.store.get(after_succ).unwrap();
        assert_eq!(s.predecessor, before_pred);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let mut net = ChordNetwork::new(ChordConfig::new(8), 11);
        net.join_id(42);
        let t = net.lookup(42, 7);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.path_len(), 0);
    }

    #[test]
    fn degree_grows_with_network_size() {
        // Chord is the O(log n) baseline: mean degree in a 512-node ring
        // must exceed any constant-degree DHT's 7 entries.
        let net = ChordNetwork::with_nodes(ChordConfig::new(12), 512, 12);
        let mean: f64 = net
            .members
            .store
            .iter()
            .map(|(id, n)| n.degree(id) as f64)
            .sum::<f64>()
            / net.len() as f64;
        assert!(mean > 7.0, "Chord mean degree {mean} should exceed 7");
    }

    #[test]
    fn trait_roundtrip() {
        let mut net: Box<dyn Overlay> =
            Box::new(ChordNetwork::with_nodes(ChordConfig::new(11), 200, 1));
        assert_eq!(net.name(), "Chord");
        assert_eq!(net.degree_bound(), None);
        let tokens = net.node_tokens();
        let t = net.lookup(tokens[0], 777);
        assert!(t.outcome.is_success());
        assert_eq!(Some(t.terminal), net.owner_of(777));
    }

    #[test]
    fn key_counts_sum_matches() {
        let net = ChordNetwork::with_nodes(ChordConfig::new(11), 100, 2);
        let keys = dht_core::workload::key_population(2_000, &mut stream(3, "ck"));
        let counts = dht_core::overlay::key_counts(&net, &keys);
        assert_eq!(counts.iter().sum::<u64>(), 2_000);
    }

    #[test]
    fn churn_through_trait() {
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(11), 64, 4);
        let mut rng = stream(5, "cj");
        let n = Protocol::join(&mut net, &mut rng).unwrap();
        assert_eq!(net.len(), 65);
        assert!(Protocol::leave(&mut net, n));
        assert_eq!(net.len(), 64);
    }
}
