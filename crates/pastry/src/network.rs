//! The simulated Pastry network: digit arithmetic, routing-table and
//! leaf-set resolution, prefix routing, join/leave, and stabilization.
//!
//! The node lifecycle — `populate`, `join_id`, `join_random`,
//! `depart(id, notify)` — is not written here: it is the provided half
//! of [`dht_core::sim::Refresh`] (bring the trait into scope to call
//! it), driven by the Pastry pieces in the `impl Refresh` below and the
//! row's two halves in `impl RefreshInto`.

use dht_core::hash::{reduce, splitmix64};
use dht_core::inline::InlineVec;
use dht_core::lookup::HopPhase;
use dht_core::overlay::{NodeToken, Protocol};
use dht_core::ring::{clockwise_dist, ring_dist};
use dht_core::sim::{refresh_in_place, Membership, Refresh, RefreshInto, SimOverlay, StepDecision};
use dht_core::store::{Hints, Pos};
use rand::RngCore;

/// Configuration of a Pastry deployment: base-4 digits (`b = 2`) and a
/// leaf set of `|L| = 8`, over a ring of `2^bits` identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PastryConfig {
    /// Total identifier bits; the ring has `2^bits` positions.
    pub bits: u32,
}

impl PastryConfig {
    /// Bits per digit (`b`; base `2^b` digits). Pastry's default is 4;
    /// the simulations use 2 to keep tables reasonable at small scales.
    pub const DIGIT_BITS: u32 = 2;
    /// Leaf-set size `|L|` (half numerically smaller, half larger).
    pub const LEAF_SET: usize = 8;

    /// A ring of `2^bits` identifiers.
    ///
    /// # Panics
    /// Panics unless [`PastryConfig::DIGIT_BITS`] divides `bits`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        let config = Self { bits };
        config.validate();
        config
    }

    fn validate(&self) {
        assert!(self.bits >= 1 && self.bits <= 63, "bits must be in [1, 63]");
        assert!(
            self.bits.is_multiple_of(Self::DIGIT_BITS),
            "bits must be whole base-4 digits"
        );
    }

    /// Ring size `2^bits`.
    #[must_use]
    pub fn space(&self) -> u64 {
        1u64 << self.bits
    }

    /// Number of digits per identifier.
    #[must_use]
    pub fn digits(&self) -> u32 {
        self.bits / Self::DIGIT_BITS
    }

    /// Digit alphabet size `2^b`.
    #[must_use]
    pub fn base(&self) -> u32 {
        1 << Self::DIGIT_BITS
    }

    /// Extracts digit `row` (0 = most significant) of `id`.
    #[must_use]
    pub fn digit(&self, id: u64, row: u32) -> u32 {
        debug_assert!(row < self.digits());
        let shift = self.bits - (row + 1) * Self::DIGIT_BITS;
        ((id >> shift) & u64::from(self.base() - 1)) as u32
    }

    /// Length of the common digit prefix of two identifiers.
    #[must_use]
    pub fn shared_prefix(&self, a: u64, b: u64) -> u32 {
        (0..self.digits())
            .take_while(|&row| self.digit(a, row) == self.digit(b, row))
            .count() as u32
    }
}

/// Fixed-capacity half of a Pastry leaf set. `|L|` is 8 (four per side);
/// eight inline slots per side keep the leaf set inside the membership
/// slab.
pub type LeafHalf = InlineVec<u64, 8>;

/// Routing state of one Pastry node: its links, not its own identifier,
/// which is the token the membership store keys the row by.
#[derive(Debug, PartialEq, Default)]
pub struct PastryNode {
    /// `table[row * base + col]`: a node sharing the first `row` digits
    /// with this node and having digit `col` at position `row`. `None`
    /// where no such node is live (or where `col` is the node's own
    /// digit).
    pub table: Vec<Option<u64>>,
    /// Numerically smaller leaf-set half, nearest first.
    pub leaf_smaller: LeafHalf,
    /// Numerically larger leaf-set half, nearest first.
    pub leaf_larger: LeafHalf,
}

/// Written out so that `clone_from` refills the table buffer it has.
impl Clone for PastryNode {
    fn clone(&self) -> Self {
        let table = self.table.clone();
        Self { table, ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut table = std::mem::take(&mut self.table);
        table.clone_from(&source.table);
        *self = Self { table, ..*source };
    }
}

impl PastryNode {
    /// All leaf-set entries.
    pub fn leafs(&self) -> impl Iterator<Item = u64> + '_ {
        self.leaf_smaller.iter().chain(&self.leaf_larger).copied()
    }

    /// Distinct contacts other than node `id` itself currently held,
    /// counted on the stack: at most 124 table cells (31 base-4 digits)
    /// and two leaf halves.
    #[must_use]
    pub fn degree(&self, id: u64) -> usize {
        let table = self.table.iter().flatten().copied();
        let mut all: InlineVec<u64, { 124 + 2 * 8 }> =
            table.chain(self.leafs()).filter(|&x| x != id).collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// The state an in-flight Pastry lookup carries: the target ring key.
#[derive(Debug, Clone, Copy)]
pub struct PastryWalk {
    /// Target identifier on the ring.
    pub key: u64,
}

/// A simulated Pastry network.
#[derive(Debug, Clone)]
pub struct PastryNetwork {
    config: PastryConfig,
    members: Membership<PastryNode>,
}

impl PastryNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new(config: PastryConfig, seed: u64) -> Self {
        config.validate();
        Self {
            config,
            members: Membership::new(seed),
        }
    }

    /// Builds a stabilized network of `count` uniformly placed nodes.
    #[must_use]
    pub fn with_nodes(config: PastryConfig, count: usize, seed: u64) -> Self {
        let mut net = Self::new(config, seed);
        net.populate(count);
        net
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> PastryConfig {
        self.config
    }

    /// Maps a raw key onto the ring.
    #[must_use]
    pub fn key_of(&self, raw_key: u64) -> u64 {
        reduce(splitmix64(raw_key), self.config.space())
    }

    /// The "closer to the key" metric shared by ownership and routing:
    /// twice the ring distance, with a counter-clockwise tie-break so the
    /// successor side wins at equal distance.
    fn key_metric(&self, key: u64, node: u64) -> u64 {
        let space = self.config.space();
        let d = ring_dist(key, node, space);
        let ccw = u64::from(d != 0 && clockwise_dist(key, node, space) != d);
        2 * d + ccw
    }

    /// Pastry key assignment: the node *numerically closest* to the key
    /// (ties towards the successor side, matching the Cycloid/leaf-set
    /// convention).
    #[must_use]
    pub fn owner_of_point(&self, key: u64) -> Option<u64> {
        // Only the two ring neighbours of the key can be closest.
        let above = self.members.store.successor_of(key);
        let below = self.members.predecessor_of(key);
        [above, below]
            .into_iter()
            .flatten()
            .min_by_key(|&id| self.key_metric(key, id))
    }

    /// Resolves one routing-table entry: a live node sharing `row` digits
    /// of prefix with `id` and having digit `col` at position `row`,
    /// choosing the numerically closest such node to `id` (a locality
    /// metric would pick by proximity; hop counts are unaffected). One
    /// search, from `hint`: every `id` with the same `row`-digit prefix
    /// asks about the same block, so along a sorted run the hint is exact.
    pub fn resolve_entry(&self, id: u64, row: u32, col: u32, hint: &mut Pos) -> Option<u64> {
        let c = self.config;
        if self.config.digit(id, row) == col {
            return None; // own digit: the row "points at" the node itself
        }
        let digit_shift = c.bits - (row + 1) * PastryConfig::DIGIT_BITS;
        let prefix_mask = if row == 0 {
            0
        } else {
            !((1u64 << (c.bits - row * PastryConfig::DIGIT_BITS)) - 1)
        };
        let base = (id & prefix_mask) | (u64::from(col) << digit_shift);
        let top = base | ((1u64 << digit_shift) - 1);
        // Nearest to id within [base, top]; since id is outside the block,
        // that is the block's first node from below and its last from
        // above. Either search wraps past an empty block.
        let order = &self.members.store;
        let at = if id < base {
            order.successor_from(hint, base)
        } else {
            order.predecessor_from(hint, top + 1)
        };
        let nearest = order.token_at(at?);
        (base..=top).contains(&nearest).then_some(nearest)
    }

    /// Resolves the leaf set of `id`: the `|L|/2` nearest live smaller and
    /// larger identifiers on the ring, by stepping out from `id`'s own
    /// place in the order (searched from `hint`).
    pub fn resolve_leafs(&self, id: u64, hint: &mut Pos) -> (LeafHalf, LeafHalf) {
        let order = &self.members.store;
        let half = (PastryConfig::LEAF_SET / 2).min(self.members.store.len().saturating_sub(1));
        let mut smaller = LeafHalf::new();
        let mut larger = LeafHalf::new();
        let Some(at) = order.successor_from(hint, id) else {
            return (smaller, larger);
        };
        let mut cursor = order.prev(at);
        while smaller.len() < half && order.token_at(cursor) != id {
            smaller.push(order.token_at(cursor));
            cursor = order.prev(cursor);
        }
        // A live `id` is not its own nearest larger neighbour.
        let mut cursor = at;
        if order.token_at(at) == id {
            cursor = order.next(at);
        }
        while larger.len() < half && order.token_at(cursor) != id {
            larger.push(order.token_at(cursor));
            cursor = order.next(cursor);
        }
        (smaller, larger)
    }
}

/// Pastry's row: the leaf set is its notified half, the prefix table its
/// lazy half.
impl RefreshInto for PastryNetwork {
    /// The smaller and the larger leaf half.
    type Notified = (LeafHalf, LeafHalf);

    fn notified_half(&self, id: u64, hint: &mut Pos) -> (LeafHalf, LeafHalf) {
        self.resolve_leafs(id, hint)
    }

    fn store_notified(row: &mut PastryNode, (smaller, larger): (LeafHalf, LeafHalf)) {
        row.leaf_smaller = smaller;
        row.leaf_larger = larger;
    }

    /// Hint `1 + cell` is the table cell's. The table is refilled in the
    /// buffer `out` has.
    fn refresh_lazy(&self, id: u64, hints: &mut Hints, out: &mut PastryNode) {
        let c = self.config;
        out.table.clear();
        out.table.extend((0..c.digits() * c.base()).map(|cell| {
            let hint = hints.slot(1 + cell as usize);
            self.resolve_entry(id, cell / c.base(), cell % c.base(), hint)
        }));
    }
}

/// Pastry's protocol pieces for the shared [`Refresh`] lifecycle.
/// A join or graceful leave is learnt by the leaf-set neighbourhood
/// only; routing tables elsewhere stay stale until stabilization.
impl Refresh for PastryNetwork {
    fn id_space(&self) -> u64 {
        self.config.space()
    }

    /// The `|L|/2` nodes either side hold `id` in their leaf sets.
    fn notified_window(&self) -> (usize, usize) {
        let half = PastryConfig::LEAF_SET / 2;
        (half, half)
    }
}

impl Protocol for PastryNetwork {
    fn name(&self) -> String {
        "Pastry".to_string()
    }

    fn degree_bound(&self) -> Option<usize> {
        None // O(log n) routing table
    }

    fn key_id(&self, raw_key: u64) -> u64 {
        self.key_of(raw_key)
    }

    fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
        self.owner_of_point(self.key_of(raw_key))
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

    /// One message per distinct routing-table/leaf-set entry.
    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        self.members
            .store
            .get(node)
            .map_or(1, |s| (s.degree(node) as u64).max(1))
    }
}

impl SimOverlay for PastryNetwork {
    type State = PastryNode;
    type Walk = PastryWalk;

    fn membership(&self) -> &Membership<PastryNode> {
        &self.members
    }

    fn membership_mut(&mut self) -> &mut Membership<PastryNode> {
        &mut self.members
    }

    fn hop_budget(&self) -> usize {
        8 * self.config.digits() as usize + 64
    }

    fn begin_walk(&self, _src: NodeToken, raw_key: u64) -> PastryWalk {
        PastryWalk {
            key: self.key_of(raw_key),
        }
    }

    fn walk_owner(&self, walk: &PastryWalk) -> Option<NodeToken> {
        self.owner_of_point(walk.key)
    }

    /// Prefix routing with leaf-set fallback: digit-correcting hops are
    /// tagged [`HopPhase::Finger`], leaf-set hops [`HopPhase::Successor`].
    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut PastryWalk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        let c = self.config;
        let key = walk.key;
        let node = self.members.store.get(cur).expect("current node is live");
        let cur_metric = self.key_metric(key, cur);

        // Leaf-set candidates strictly closer to the key. Dead leaf
        // entries are dropped here (the leaf set is the termination
        // test's ground, not a contact attempt), so they cost no timeout.
        let mut leafs = InlineVec::<(u64, u64), 16>::new();
        for l in node.leafs() {
            let m = self.key_metric(key, l);
            if m < cur_metric && self.members.store.contains(l) {
                leafs.push((m, l));
            }
        }
        leafs.sort_unstable();
        leafs.dedup();

        // Termination: no live leaf is closer — this node is the
        // numerically closest.
        if leafs.is_empty() {
            return StepDecision::Terminate;
        }

        // Preferred hop: the routing-table entry for the first differing
        // digit ("forwards the query to a node which matches one more
        // digit"); a stale entry costs a timeout.
        let row = c.shared_prefix(cur, key);
        if row < c.digits() {
            let col = c.digit(key, row);
            if let Some(entry) = node.table[(row * c.base() + col) as usize] {
                out.push((HopPhase::Finger, entry));
            }
        }
        // Fallback ("the rare case"): any leaf numerically closer.
        out.extend(leafs.iter().map(|&(_, l)| (HopPhase::Successor, l)));
        StepDecision::Forward
    }

    fn stabilize_one(&mut self, node: NodeToken, hints: &mut Hints) {
        refresh_in_place(self, node, hints);
    }

    fn heap_beyond_rows(&self) -> usize {
        // Leaf-set halves are inline; the prefix table is the per-node
        // heap payload.
        let tables = self.members.store.states().map(|s| s.table.capacity());
        tables.sum::<usize>() * std::mem::size_of::<Option<u64>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::lookup::LookupOutcome;
    use dht_core::overlay::{Overlay, Protocol};
    use dht_core::rng::stream;
    use rand::Rng;

    #[test]
    fn refresh_refills_the_table_buffer_in_place() {
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), 300, 1);
        let buffers = |net: &PastryNetwork| -> Vec<(usize, *const Option<u64>)> {
            let tables = net.members.store.states().map(|n| &n.table);
            tables.map(|t| (t.capacity(), t.as_ptr())).collect()
        };
        let before = buffers(&net);
        assert!(before.iter().all(|&(capacity, _)| capacity == 24));
        net.stabilize();
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        net.stabilize_node(ids[17]);
        assert_eq!(buffers(&net), before, "a refresh reallocated a table");
    }

    #[test]
    fn digit_arithmetic() {
        let c = PastryConfig::new(8); // four base-4 digits
        assert_eq!(c.digits(), 4);
        assert_eq!(c.base(), 4);
        // 0b10_11_01_00: digits 2, 3, 1, 0.
        let id = 0b1011_0100;
        assert_eq!(c.digit(id, 0), 2);
        assert_eq!(c.digit(id, 1), 3);
        assert_eq!(c.digit(id, 2), 1);
        assert_eq!(c.digit(id, 3), 0);
        assert_eq!(c.shared_prefix(id, id), 4);
        assert_eq!(c.shared_prefix(0b1011_0100, 0b1011_1100), 2);
        assert_eq!(c.shared_prefix(0b0011_0100, 0b1011_0100), 0);
    }

    #[test]
    fn routing_table_entries_share_prefix_and_differ_next_digit() {
        let net = PastryNetwork::with_nodes(PastryConfig::new(12), 500, 1);
        let c = net.config();
        for id in net.members.store.token_iter().take(50) {
            let node = net.members.store.get(id).unwrap();
            for row in 0..c.digits() {
                for col in 0..c.base() {
                    if let Some(entry) = node.table[(row * c.base() + col) as usize] {
                        assert!(net.contains(entry));
                        assert_eq!(c.shared_prefix(id, entry), row, "row {row} col {col}");
                        assert_eq!(c.digit(entry, row), col);
                    }
                }
            }
        }
    }

    #[test]
    fn all_lookups_resolve() {
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), 400, 2);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(3, "pastry");
        for i in 0..2000 {
            let src = ids[i % ids.len()];
            let raw: u64 = rng.gen();
            let key = net.key_of(raw);
            let t = net.lookup(src, raw);
            assert_eq!(t.outcome, LookupOutcome::Found, "lookup {i}");
            assert_eq!(t.timeouts, 0);
            assert_eq!(Some(t.terminal), net.owner_of_point(key));
        }
    }

    #[test]
    fn paths_are_logarithmic() {
        // O(log_{2^b} n) = log4(1024) = 5 digits to correct.
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(16), 1024, 4);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(5, "plen");
        let mut total = 0usize;
        for i in 0..2000 {
            total += net.lookup(ids[i % ids.len()], rng.gen()).path_len();
        }
        let mean = total as f64 / 2000.0;
        assert!(mean > 2.0 && mean < 9.0, "mean {mean} should be ~log4(n)");
    }

    #[test]
    fn graceful_departures_timeout_but_resolve() {
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), 1024, 6);
        let mut rng = stream(7, "pfail");
        for id in net.members.store.token_iter().collect::<Vec<_>>() {
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
        assert!(timeouts > 0, "stale table entries must time out");
        net.stabilize();
        for i in 0..300 {
            let t = net.lookup(live[i % live.len()], rng.gen());
            assert_eq!(t.timeouts, 0);
        }
    }

    #[test]
    fn leaf_sets_are_ring_neighbors() {
        let net = PastryNetwork::with_nodes(PastryConfig::new(10), 100, 8);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        for (i, &id) in ids.iter().enumerate() {
            let node = net.members.store.get(id).unwrap();
            let succ = ids[(i + 1) % ids.len()];
            let pred = ids[(i + ids.len() - 1) % ids.len()];
            assert_eq!(node.leaf_larger.first(), Some(&succ), "node {id}");
            assert_eq!(node.leaf_smaller.first(), Some(&pred), "node {id}");
        }
    }

    #[test]
    fn degree_is_logarithmic_not_constant() {
        let net = PastryNetwork::with_nodes(PastryConfig::new(16), 1024, 9);
        let mean: f64 = net
            .membership()
            .store
            .token_iter()
            .map(|id| net.members.store.get(id).unwrap().degree(id) as f64)
            .sum::<f64>()
            / net.len() as f64;
        assert!(
            mean > 10.0,
            "Pastry keeps O(log n) state; mean degree {mean} too small"
        );
    }

    #[test]
    fn join_and_leave_keep_correctness() {
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), 100, 10);
        let mut rng = stream(11, "pjoin");
        let mut joined = Vec::new();
        for _ in 0..20 {
            joined.push(net.join_random().unwrap());
        }
        for &j in &joined[..10] {
            assert!(net.depart(j, true));
        }
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        for i in 0..500 {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found, "lookup {i}");
        }
    }

    #[test]
    fn trait_roundtrip() {
        let mut net: Box<dyn Overlay> =
            Box::new(PastryNetwork::with_nodes(PastryConfig::new(12), 150, 1));
        assert_eq!(net.name(), "Pastry");
        assert_eq!(net.degree_bound(), None);
        let tokens = net.node_tokens();
        let t = net.lookup(tokens[5], 909);
        assert!(t.outcome.is_success());
        assert_eq!(Some(t.terminal), net.owner_of(909));
    }

    #[test]
    fn key_counts_sum_matches() {
        use dht_core::overlay::key_counts;
        use dht_core::workload;
        let net = PastryNetwork::with_nodes(PastryConfig::new(12), 120, 2);
        let keys = workload::key_population(3_000, &mut stream(3, "pk"));
        let counts = key_counts(&net, &keys);
        assert_eq!(counts.iter().sum::<u64>(), 3_000);
    }

    #[test]
    fn churn_through_trait() {
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), 64, 4);
        let mut rng = stream(5, "pt");
        let n = Protocol::join(&mut net, &mut rng).unwrap();
        assert!(Protocol::leave(&mut net, n));
        assert_eq!(net.len(), 64);
    }
}
