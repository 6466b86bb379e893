//! The simulated Koorde ring: membership, de Bruijn pointer resolution,
//! the imaginary-node routing walk, join/leave, and stabilization.
//!
//! The node lifecycle — `populate`, `join_id`, `join_random`,
//! `depart(id, notify)` — is not written here: it is the provided half
//! of [`dht_core::sim::Refresh`] (bring the trait into scope to call
//! it), driven by the Koorde pieces in the `impl Refresh` below and the
//! row's two halves in `impl RefreshInto`.

use dht_core::hash::{reduce, splitmix64};
use dht_core::lookup::HopPhase;
use dht_core::overlay::{NodeToken, Protocol};
use dht_core::ring::{in_interval_co, in_interval_oc};
use dht_core::sim::{refresh_in_place, Membership, Refresh, RefreshInto, SimOverlay, StepDecision};
use dht_core::store::{Hints, Pos};
use rand::RngCore;

use crate::node::{KoordeNode, RingList};

/// How a lookup picks its starting imaginary node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImaginaryStart {
    /// `i = m`, `kshift = k`: the textbook walk, which always performs
    /// `bits` de Bruijn hops. The Cycloid paper's Koorde paths are "close
    /// to d" (= `bits`), matching this variant.
    Basic,
    /// The Koorde paper's optimization: start at the imaginary node in
    /// `(m, successor]` whose low bits already match the key's high bits,
    /// skipping the matched de Bruijn hops (`O(log n)` hops in sparse
    /// rings). Used by the ablation bench.
    BestFit,
}

/// Configuration of a Koorde deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KoordeConfig {
    /// Identifier bits: the ring has `2^bits` positions and the complete
    /// de Bruijn graph has degree 2.
    pub bits: u32,
    /// Successor-list length (3 in the paper's setup).
    pub successor_list: usize,
    /// Number of de Bruijn-predecessor backups (3 in the paper's setup).
    pub debruijn_backups: usize,
    /// Imaginary-node start strategy.
    pub start: ImaginaryStart,
}

impl KoordeConfig {
    /// The paper's seven-entry setup on a `2^bits` ring.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=63).contains(&bits), "Koorde bits must be in [1, 63]");
        Self {
            bits,
            successor_list: 3,
            debruijn_backups: 3,
            start: ImaginaryStart::Basic,
        }
    }

    /// Same, with the best-fit imaginary start.
    #[must_use]
    pub fn with_best_fit(bits: u32) -> Self {
        Self {
            start: ImaginaryStart::BestFit,
            ..Self::new(bits)
        }
    }

    /// Ring size `2^bits`.
    #[must_use]
    pub fn space(&self) -> u64 {
        1u64 << self.bits
    }
}

/// The state an in-flight Koorde lookup threads from hop to hop: the
/// target ring key plus the Kaashoek–Karger imaginary-node cursor.
#[derive(Debug, Clone, Copy)]
pub struct KoordeWalk {
    /// Target identifier on the ring.
    pub key: u64,
    /// Current imaginary node.
    pub i: u64,
    /// Key bits still to be shifted into `i`, pre-shifted so the next
    /// bit to consume is the top bit.
    pub kshift: u64,
}

/// A simulated Koorde network.
#[derive(Debug, Clone)]
pub struct KoordeNetwork {
    config: KoordeConfig,
    members: Membership<KoordeNode>,
}

impl KoordeNetwork {
    /// Creates an empty ring. Panics if a list length of `config` does
    /// not fit the nodes' inline [`RingList`]s.
    #[must_use]
    pub fn new(config: KoordeConfig, seed: u64) -> Self {
        let cap = RingList::new().capacity();
        assert!(
            (1..=cap).contains(&config.successor_list),
            "Koorde successor_list must be in [1, {cap}]"
        );
        assert!(
            (1..=cap).contains(&config.debruijn_backups),
            "Koorde debruijn_backups must be in [1, {cap}]"
        );
        Self {
            config,
            members: Membership::new(seed),
        }
    }

    /// Builds a stabilized ring of `count` uniformly placed nodes.
    #[must_use]
    pub fn with_nodes(config: KoordeConfig, count: usize, seed: u64) -> Self {
        let mut net = Self::new(config, seed);
        net.populate(count);
        net
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> KoordeConfig {
        self.config
    }

    /// Maps a raw key onto the ring.
    #[must_use]
    pub fn key_of(&self, raw_key: u64) -> u64 {
        reduce(splitmix64(raw_key), self.config.space())
    }

    /// Picks the starting imaginary node and pre-shifted key for a lookup
    /// from `m` (whose live successor is `succ`) towards `key`.
    fn imaginary_start(&self, m: u64, succ: u64, key: u64) -> (u64, u64) {
        let bits = self.config.bits;
        let space = self.config.space();
        match self.config.start {
            ImaginaryStart::Basic => (m, key),
            ImaginaryStart::BestFit => {
                // Largest s such that some i0 in (m, succ] has its low s
                // bits equal to the key's top s bits; the walk then needs
                // only bits - s de Bruijn hops.
                for s in (1..=bits).rev() {
                    let p = key >> (bits - s);
                    let modulus = 1u64 << s;
                    let base = (m + 1) % space;
                    let offset = (p + modulus - (base % modulus)) % modulus;
                    let cand = (base + offset) % space;
                    if in_interval_co(cand, m, succ, space) {
                        let kshift = (key << s) % space;
                        return (cand, kshift);
                    }
                }
                (m, key)
            }
        }
    }
}

/// Koorde's row: the ring pointers are its notified half, the de Bruijn
/// pointer and its backups its lazy half.
impl RefreshInto for KoordeNetwork {
    /// Predecessor and successor list.
    type Notified = (u64, RingList);

    fn notified_half(&self, id: u64, hint: &mut Pos) -> (u64, RingList) {
        let r = self.config.successor_list;
        self.members
            .ring_pointers(id, r, hint)
            .expect("own ring is not empty")
    }

    fn store_notified(row: &mut KoordeNode, (pred, succs): (u64, RingList)) {
        row.predecessor = pred;
        row.successors = succs;
    }

    /// Hint 1 is the de Bruijn point's: `2 * id` ascends with `id`,
    /// wrapping once per round. The backups are steps back from the
    /// pointer.
    fn refresh_lazy(&self, id: u64, hints: &mut Hints, out: &mut KoordeNode) {
        let order = &self.members.store;
        let mut cursor = order
            .at_or_before_from(hints.slot(1), (2 * id) % self.config.space())
            .expect("own ring is not empty");
        out.debruijn = order.token_at(cursor);
        out.debruijn_preds.clear();
        for _ in 0..self.config.debruijn_backups {
            cursor = order.prev(cursor);
            out.debruijn_preds.push(order.token_at(cursor));
        }
    }
}

/// Koorde's protocol pieces for the shared [`Refresh`] lifecycle.
/// §4.3: "when a node leaves, it notifies its successors and
/// predecessor... The nodes who take the leaving node as their first de
/// Bruijn node or their first de Bruijn node's predecessor will not be
/// notified" — those go stale until stabilization, which "updates the
/// first de Bruijn node of each node and the de Bruijn node's
/// predecessors in time" (§4.4).
impl Refresh for KoordeNetwork {
    fn id_space(&self) -> u64 {
        self.config.space()
    }

    /// The `r` predecessors hold `id` in their successor lists, the
    /// successor as its predecessor.
    fn notified_window(&self) -> (usize, usize) {
        (self.config.successor_list, 1)
    }
}

impl Protocol for KoordeNetwork {
    fn name(&self) -> String {
        "Koorde".to_string()
    }

    fn degree_bound(&self) -> Option<usize> {
        Some(self.config.successor_list + self.config.debruijn_backups + 1)
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

    /// One message per distinct successor/de-Bruijn entry actually held.
    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        self.members
            .store
            .get(node)
            .map_or(1, |s| (s.degree(node) as u64).max(1))
    }
}

impl SimOverlay for KoordeNetwork {
    type State = KoordeNode;
    type Walk = KoordeWalk;

    fn membership(&self) -> &Membership<KoordeNode> {
        &self.members
    }

    fn membership_mut(&mut self) -> &mut Membership<KoordeNode> {
        &mut self.members
    }

    fn hop_budget(&self) -> usize {
        8 * self.config.bits as usize + 128
    }

    fn begin_walk(&self, src: NodeToken, raw_key: u64) -> KoordeWalk {
        let key = self.key_of(raw_key);
        let succ = self
            .members
            .store
            .get(src)
            .expect("source is live")
            .successor();
        let (i, kshift) = self.imaginary_start(src, succ, key);
        KoordeWalk { key, i, kshift }
    }

    fn walk_owner(&self, walk: &KoordeWalk) -> Option<NodeToken> {
        self.members.store.successor_of(walk.key)
    }

    /// One step of the Kaashoek–Karger imaginary-node walk. De Bruijn
    /// hops are tagged [`HopPhase::DeBruijn`], ring fix-ups
    /// [`HopPhase::Successor`] (Fig. 7(c), Fig. 14's breakdown); a dead
    /// contact costs a timeout, and a de Bruijn pointer whose backups are
    /// all dead fails the lookup.
    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut KoordeWalk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        let space = self.config.space();
        let node = self.members.store.get(cur).expect("current node is live");
        if in_interval_oc(walk.key, node.predecessor, cur, space) {
            return StepDecision::Terminate;
        }
        let take_debruijn = !in_interval_oc(walk.key, cur, node.successor(), space)
            && in_interval_co(walk.i, cur, node.successor(), space);
        if take_debruijn {
            // Walk down the de Bruijn edge (backups after the pointer);
            // the bit shift into the imaginary node happens in `on_hop`.
            out.extend(
                std::iter::once(node.debruijn)
                    .chain(node.debruijn_preds.iter().copied())
                    .map(|cand| (HopPhase::DeBruijn, cand)),
            );
        } else {
            // Ring fix-up (or final approach) through the successor list.
            out.extend(
                node.successors
                    .iter()
                    .map(|&cand| (HopPhase::Successor, cand)),
            );
        }
        StepDecision::Forward
    }

    /// The state row, first field to last.
    fn warm(&self, node: NodeToken) {
        if let Some(n) = self.members.store.get(node) {
            std::hint::black_box((n.predecessor, n.debruijn_preds.last().copied()));
        }
    }

    fn on_hop(
        &self,
        walk: &mut KoordeWalk,
        _from: NodeToken,
        phase: HopPhase,
        _to: NodeToken,
        _timed_out: &[NodeToken],
    ) {
        if phase != HopPhase::DeBruijn {
            return;
        }
        // Shift one key bit into the imaginary node.
        let space = self.config.space();
        let top = (walk.kshift >> (self.config.bits - 1)) & 1;
        walk.i = ((walk.i << 1) | top) % space;
        walk.kshift = (walk.kshift << 1) % space;
    }

    fn repair_on_use(
        &mut self,
        from: NodeToken,
        phase: HopPhase,
        to: NodeToken,
        timed_out: &[NodeToken],
    ) {
        // Repair-on-use: once a backup answered for a dead de Bruijn
        // pointer, adopt it as the new pointer so each stale pointer
        // times out at most once (the accounting the paper's Koorde
        // timeout counts reflect; see EXPERIMENTS.md). Applied at
        // effect-apply time, after the walk (or the whole batch, under
        // the parallel executor) has routed.
        if phase == HopPhase::DeBruijn && !timed_out.is_empty() {
            if let Some(n) = self.members.store.get_mut(from) {
                n.debruijn = to;
            }
        }
    }

    fn stabilize_one(&mut self, node: NodeToken, hints: &mut Hints) {
        refresh_in_place(self, node, hints);
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
    #[should_panic(expected = "Koorde debruijn_backups must be in [1, 4]")]
    fn list_lengths_over_the_inline_capacity_are_rejected_by_name() {
        let config = KoordeConfig {
            debruijn_backups: 5,
            ..KoordeConfig::new(11)
        };
        let _ = KoordeNetwork::with_nodes(config, 8, 1);
    }

    #[test]
    fn debruijn_pointer_is_pred_of_double() {
        let net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 500, 1);
        let live = net.node_tokens();
        for (id, n) in net.members.store.iter() {
            // The last live id at or before 2·id: a node exactly there is
            // its own image.
            let below = live.partition_point(|&t| t <= (2 * id) % 2048);
            assert_eq!(
                n.debruijn,
                live[below.checked_sub(1).unwrap_or(live.len() - 1)]
            );
        }
    }

    #[test]
    fn all_lookups_resolve_in_stable_ring() {
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 300, 2);
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(3, "koorde");
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
    fn dense_ring_path_close_to_bits() {
        // §4.1: in a dense network Koorde's path length is "close to d"
        // (the ring bit-width), with successor hops around 30% of it.
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 2048, 4);
        assert_eq!(net.len(), 2048, "dense: every slot occupied");
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        let mut rng = stream(5, "dense");
        let mut total = 0usize;
        let mut db = 0usize;
        let trials = 2000;
        for i in 0..trials {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
            total += t.path_len();
            db += t.hops_in_phase(HopPhase::DeBruijn);
        }
        let mean = total as f64 / trials as f64;
        assert!(
            (8.0..=18.0).contains(&mean),
            "dense Koorde(2^11) mean path {mean} should be near 11"
        );
        let succ_share = 1.0 - db as f64 / total as f64;
        assert!(
            succ_share < 0.5,
            "successor share {succ_share} should be a minority when dense"
        );
    }

    #[test]
    fn sparse_ring_takes_more_successor_hops() {
        // Fig. 13/14: Koorde's lookup efficiency degrades with sparsity —
        // the successor share of the path grows.
        let share = |count: usize| -> f64 {
            let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), count, 6);
            let ids: Vec<u64> = net.members.store.token_iter().collect();
            let mut rng = stream(7, "sparse");
            let mut total = 0usize;
            let mut succ = 0usize;
            for i in 0..1500 {
                let t = net.lookup(ids[i % ids.len()], rng.gen());
                assert_eq!(t.outcome, LookupOutcome::Found);
                total += t.path_len();
                succ += t.hops_in_phase(HopPhase::Successor);
            }
            succ as f64 / total as f64
        };
        let dense = share(2048);
        let sparse = share(409); // 80% sparsity
        assert!(
            sparse > dense,
            "successor share must grow with sparsity: dense {dense}, sparse {sparse}"
        );
    }

    #[test]
    fn best_fit_start_shortens_paths() {
        let mean_path = |config: KoordeConfig| -> f64 {
            let mut net = KoordeNetwork::with_nodes(config, 512, 8);
            let ids: Vec<u64> = net.members.store.token_iter().collect();
            let mut rng = stream(9, "fit");
            let mut total = 0usize;
            for i in 0..1500 {
                let t = net.lookup(ids[i % ids.len()], rng.gen());
                assert_eq!(t.outcome, LookupOutcome::Found);
                total += t.path_len();
            }
            total as f64 / 1500.0
        };
        let basic = mean_path(KoordeConfig::new(14));
        let fitted = mean_path(KoordeConfig::with_best_fit(14));
        assert!(
            fitted < basic,
            "best-fit start {fitted} must beat basic {basic}"
        );
    }

    #[test]
    fn moderate_departures_keep_lookups_correct() {
        // §4.3: "when the failed node percentage is as low as 0.2, all the
        // queries can be solved successfully".
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 2048, 10);
        let mut rng = stream(11, "kfail");
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        for &id in &ids {
            if rng.gen_bool(0.2) {
                net.depart(id, true);
            }
        }
        let live: Vec<u64> = net.members.store.token_iter().collect();
        let mut failures = 0usize;
        for i in 0..1000 {
            let t = net.lookup(live[i % live.len()], rng.gen());
            if !t.outcome.is_success() {
                failures += 1;
            }
        }
        // All-four-backups-dead events are possible but must stay rare at
        // p = 0.2 (the paper observed none in its run).
        assert!(failures <= 30, "too many failures at p=0.2: {failures}");
    }

    #[test]
    fn heavy_departures_cause_failures() {
        // §4.3: failures appear when p >= 0.3-0.5 (de Bruijn pointer and
        // all backups dead).
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 2048, 12);
        let mut rng = stream(13, "kheavy");
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        for &id in &ids {
            if rng.gen_bool(0.5) {
                net.depart(id, true);
            }
        }
        let live: Vec<u64> = net.members.store.token_iter().collect();
        let mut failures = 0usize;
        for i in 0..2000 {
            let t = net.lookup(live[i % live.len()], rng.gen());
            if !t.outcome.is_success() {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "p=0.5 must produce some lookup failures (got none)"
        );
    }

    #[test]
    fn stabilization_restores_correctness() {
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 2048, 14);
        let mut rng = stream(15, "kstab");
        let ids: Vec<u64> = net.members.store.token_iter().collect();
        for &id in &ids {
            if rng.gen_bool(0.5) {
                net.depart(id, true);
            }
        }
        net.stabilize();
        let live: Vec<u64> = net.members.store.token_iter().collect();
        for i in 0..500 {
            let t = net.lookup(live[i % live.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
            assert_eq!(t.timeouts, 0);
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let mut net = KoordeNetwork::new(KoordeConfig::new(8), 16);
        net.join_id(99);
        let t = net.lookup(99, 5);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.path_len(), 0);
    }

    #[test]
    fn degree_bounded_by_seven() {
        let net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 700, 17);
        for id in net.members.store.token_iter() {
            let deg = net.members.store.get(id).unwrap().degree(id);
            assert!(deg <= 7, "node {id} degree {deg} > 7");
        }
    }

    #[test]
    fn trait_roundtrip() {
        let mut net: Box<dyn Overlay> =
            Box::new(KoordeNetwork::with_nodes(KoordeConfig::new(11), 150, 1));
        assert_eq!(net.name(), "Koorde");
        assert_eq!(net.degree_bound(), Some(7));
        let tokens = net.node_tokens();
        let t = net.lookup(tokens[3], 888);
        assert!(t.outcome.is_success());
        assert_eq!(Some(t.terminal), net.owner_of(888));
    }

    #[test]
    fn key_counts_sum_matches() {
        use dht_core::overlay::key_counts;
        use dht_core::workload;
        let net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 120, 2);
        let keys = workload::key_population(3_000, &mut stream(3, "kk"));
        let counts = key_counts(&net, &keys);
        assert_eq!(counts.iter().sum::<u64>(), 3_000);
    }

    #[test]
    fn churn_through_trait() {
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 64, 4);
        let mut rng = stream(5, "kt");
        let n = Protocol::join(&mut net, &mut rng).unwrap();
        assert!(Protocol::leave(&mut net, n));
        assert_eq!(net.len(), 64);
    }
}
