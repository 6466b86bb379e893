//! The simulated CAN: membership, zone splitting/takeover, greedy torus
//! routing, and stabilization.

use crate::index::ZoneIndex;
use crate::zone::{Point, Zone};
use dht_core::hash::{reduce, splitmix64};
use dht_core::lookup::{HopPhase, LookupTrace};
use dht_core::overlay::NodeToken;
use dht_core::sim::{walk_from, Membership, SimOverlay, StepDecision};
use dht_core::store::Hints;
use rand::RngCore;

/// Configuration of a CAN deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanConfig {
    /// Number of torus dimensions `d` (CAN's original evaluation uses 2
    /// by default).
    pub dims: usize,
    /// Bits per coordinate: each dimension has side `2^bits_per_dim`.
    pub bits_per_dim: u32,
}

impl CanConfig {
    /// A `d`-dimensional torus with 16-bit coordinates.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!((1..=8).contains(&dims), "dims must be in [1, 8]");
        Self {
            dims,
            bits_per_dim: 16,
        }
    }

    /// Side length of each dimension.
    #[must_use]
    pub fn side(&self) -> u64 {
        1u64 << self.bits_per_dim
    }
}

/// One CAN node: a token plus the zones it currently owns (one after a
/// plain join; several after takeovers).
#[derive(Debug, Clone)]
pub struct CanNode {
    /// Opaque node token.
    pub token: u64,
    /// Owned zones (disjoint boxes).
    pub zones: Vec<Zone>,
}

impl CanNode {
    /// Total owned volume.
    #[must_use]
    pub fn volume(&self) -> u128 {
        self.zones.iter().map(Zone::volume).sum()
    }
}

/// The walk state of one CAN lookup: the target point on the torus.
#[derive(Debug, Clone)]
pub struct CanWalk {
    /// Torus point the lookup is routing towards.
    pub point: Point,
}

/// A simulated CAN network.
#[derive(Debug, Clone)]
pub struct CanNetwork {
    config: CanConfig,
    pub(crate) members: Membership<CanNode>,
    /// Zones whose owner crashed, awaiting takeover by the stabilizer.
    pub(crate) orphans: Vec<Zone>,
    /// Dyadic index of the current tiling: point location and neighbour
    /// sweeps in `O(depth)` instead of a full membership scan. Mirrors
    /// the zone lists exactly on every protocol transition; the
    /// `index_matches_membership_scans_under_churn` test pins the
    /// equivalence against the original scan formulations.
    pub(crate) index: ZoneIndex,
}

impl CanNetwork {
    /// Creates a network with a single founding node owning the whole
    /// torus.
    #[must_use]
    pub fn bootstrap(config: CanConfig, seed: u64) -> Self {
        let mut members = Membership::new(seed);
        let token = members.next_raw();
        let founder = CanNode {
            token,
            zones: vec![Zone::full(config.dims, config.side())],
        };
        members.insert(token, founder);
        let mut index = ZoneIndex::new(config.dims, config.bits_per_dim);
        index.insert_root(token);
        Self {
            config,
            members,
            orphans: Vec::new(),
            index,
        }
    }

    /// Builds a network of `count` nodes by repeated protocol joins.
    #[must_use]
    pub fn with_nodes(config: CanConfig, count: usize, seed: u64) -> Self {
        assert!(count >= 1);
        let mut net = Self::bootstrap(config, seed);
        while net.node_count() < count {
            net.join_random_point()
                .expect("space has room for another split");
        }
        net
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> CanConfig {
        self.config
    }

    /// Number of live nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.members.len()
    }

    /// `true` iff `token` is live.
    #[must_use]
    pub fn is_live(&self, token: u64) -> bool {
        self.members.contains(token)
    }

    /// Live node tokens in ascending token order.
    #[must_use]
    pub fn tokens(&self) -> Vec<u64> {
        self.members.tokens()
    }

    /// Read access to one node.
    #[must_use]
    pub fn node(&self, token: u64) -> Option<&CanNode> {
        self.members.get(token)
    }

    /// Exclusive access to one node — for the audit tests, which inject
    /// corruptions the protocol itself never produces.
    #[cfg(test)]
    pub(crate) fn node_mut(&mut self, token: u64) -> Option<&mut CanNode> {
        self.members.get_mut(token)
    }

    /// Zones orphaned by crashes, awaiting takeover.
    pub(crate) fn orphan_zones(&self) -> &[Zone] {
        &self.orphans
    }

    /// Maps a raw key to its point on the torus (one derived coordinate
    /// per dimension).
    #[must_use]
    pub fn point_of(&self, raw_key: u64) -> Point {
        (0..self.config.dims)
            .map(|k| {
                reduce(
                    splitmix64(raw_key ^ (0xC0FFEEu64 + k as u64)),
                    self.config.side(),
                )
            })
            .collect()
    }

    /// The live owner of `point`, if its zone is not orphaned.
    #[must_use]
    pub fn owner_of_point(&self, point: &[u64]) -> Option<u64> {
        // Point location through the dyadic index; the tiling invariant
        // makes the covering zone unique, so this agrees with the
        // original scan over every live node's zone list.
        self.index.locate(point).1
    }

    /// Tokens of the nodes whose zones abut any of `token`'s zones, in
    /// ascending token order.
    #[must_use]
    pub fn neighbors_of(&self, token: u64) -> Vec<u64> {
        let me = match self.members.get(token) {
            Some(n) => n,
            None => return Vec::new(),
        };
        let mut slots = Vec::new();
        for zone in &me.zones {
            self.index.face_owners(zone, &mut slots);
        }
        // Orphaned zones (owner `None`) and the node's own zones drop
        // out, exactly like the membership scan they replace.
        let mut nbrs: Vec<u64> = slots
            .into_iter()
            .flatten()
            .filter(|&t| t != token)
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        nbrs
    }

    /// Protocol join: a random point is drawn, the zone containing it is
    /// split, and the newcomer takes the half containing the point.
    /// Returns `None` when every zone has unit volume.
    pub fn join_random_point(&mut self) -> Option<u64> {
        let raw = self.members.next_raw();
        let point = self.point_of(raw);
        self.join_at(&point)
    }

    /// Protocol join at an explicit point.
    pub fn join_at(&mut self, point: &[u64]) -> Option<u64> {
        let owner = self.owner_of_point(point)?;
        let owner_node = self.members.get_mut(owner).expect("owner is live");
        let zone_idx = owner_node
            .zones
            .iter()
            .position(|z| z.contains(point))
            .expect("owner contains the point");
        let parent = owner_node.zones[zone_idx].clone();
        let (lower, upper) = parent.split()?;
        let newcomer_zone = if lower.contains(point) {
            lower.clone()
        } else {
            upper.clone()
        };
        let keeper_zone = if lower.contains(point) { upper } else { lower };
        owner_node.zones[zone_idx] = keeper_zone.clone();
        let token = self.members.next_raw();
        self.members.insert(
            token,
            CanNode {
                token,
                zones: vec![newcomer_zone.clone()],
            },
        );
        self.index
            .split(&parent, (&keeper_zone, owner), (&newcomer_zone, token));
        Some(token)
    }

    /// Graceful departure: the leaver hands all its zones to its
    /// smallest-volume neighbour (real CAN's takeover, without the later
    /// defragmentation — the successor may own several boxes).
    pub fn leave(&mut self, token: u64) -> bool {
        if !self.is_live(token) || self.members.len() == 1 {
            return false;
        }
        let heirs = self.neighbors_of(token);
        let node = self.members.remove(token).expect("checked live");
        let heir = heirs
            .into_iter()
            .filter(|t| self.is_live(*t))
            .min_by_key(|&t| (self.members.get(t).expect("live").volume(), t));
        match heir {
            Some(h) => {
                for zone in &node.zones {
                    self.index.set_owner(zone, Some(h));
                }
                self.members
                    .get_mut(h)
                    .expect("heir is live")
                    .zones
                    .extend(node.zones);
            }
            None => {
                for zone in &node.zones {
                    self.index.set_owner(zone, None);
                }
                self.orphans.extend(node.zones);
            }
        }
        true
    }

    /// Ungraceful failure: the zones are orphaned until [`CanNetwork::stabilize_takeover`].
    pub fn fail_node(&mut self, token: u64) -> bool {
        if !self.is_live(token) || self.members.len() == 1 {
            return false;
        }
        let node = self.members.remove(token).expect("checked live");
        for zone in &node.zones {
            self.index.set_owner(zone, None);
        }
        self.orphans.extend(node.zones);
        true
    }

    /// The takeover protocol: each orphaned zone is adopted by the live
    /// node with the smallest volume among those abutting it.
    pub fn stabilize_takeover(&mut self) {
        let orphans = std::mem::take(&mut self.orphans);
        let mut slots = Vec::new();
        for zone in orphans {
            // Candidates via the face sweep: the live owners of every
            // zone abutting the orphan, including zones adopted earlier
            // in this same pass (their index owner is already updated).
            // The scan's `contains(zone.lo)` clause is unreachable on an
            // exact tiling — only the orphan itself covers its corner.
            slots.clear();
            self.index.face_owners(&zone, &mut slots);
            let adopter = slots
                .iter()
                .copied()
                .flatten()
                .min_by_key(|&t| (self.members.get(t).expect("live").volume(), t))
                .or_else(|| self.members.first_token());
            match adopter {
                Some(t) => {
                    self.index.set_owner(&zone, Some(t));
                    self.members.get_mut(t).expect("live").zones.push(zone);
                }
                None => self.orphans.push(zone), // empty network
            }
        }
    }

    /// Minimum torus distance from any of `token`'s zones to `point`.
    fn zone_dist(&self, token: u64, point: &[u64]) -> u64 {
        let side = self.config.side();
        self.members
            .get(token)
            .map(|n| {
                n.zones
                    .iter()
                    .map(|z| z.torus_distance(point, side))
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .unwrap_or(u64::MAX)
    }

    /// One lookup from `src` towards the point of `raw_key`: greedy
    /// forwarding to the neighbour whose zone is torus-closest to the
    /// target. All hops are tagged [`HopPhase::Finger`] (geometric
    /// forwarding has a single phase). Zone handover repairs adjacency
    /// eagerly, so lookups never time out.
    pub fn route(&mut self, src: u64, raw_key: u64) -> LookupTrace {
        let point = self.point_of(raw_key);
        walk_from(self, src, CanWalk { point }, None, true)
    }

    /// Validates the tiling invariant: every point belongs to exactly one
    /// zone (live or orphaned). Checks a probe grid rather than the whole
    /// space.
    #[must_use]
    pub fn tiling_holes(&self, probes: usize) -> usize {
        let side = self.config.side();
        let mut holes = 0;
        for i in 0..probes {
            let point: Point = (0..self.config.dims)
                .map(|k| reduce(splitmix64((i as u64) << 8 | k as u64), side))
                .collect();
            let owners = self
                .members
                .states()
                .flat_map(|n| &n.zones)
                .chain(&self.orphans)
                .filter(|z| z.contains(&point))
                .count();
            if owners != 1 {
                holes += 1;
            }
        }
        holes
    }
}

impl SimOverlay for CanNetwork {
    type State = CanNode;
    type Walk = CanWalk;

    fn membership(&self) -> &Membership<CanNode> {
        &self.members
    }

    fn membership_mut(&mut self) -> &mut Membership<CanNode> {
        &mut self.members
    }

    fn label(&self) -> String {
        format!("CAN(d={})", self.config.dims)
    }

    fn degree_limit(&self) -> Option<usize> {
        // O(d) on average, but irregular tilings have no hard per-node
        // bound; report unbounded like the other non-constant systems.
        None
    }

    /// One message per zone-abutting neighbour of the node's zones.
    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        (self.neighbors_of(node).len() as u64).max(1)
    }

    fn map_key(&self, raw_key: u64) -> u64 {
        // No scalar identifier space; report the first coordinate.
        self.point_of(raw_key)[0]
    }

    fn owner_token(&self, raw_key: u64) -> Option<NodeToken> {
        self.owner_of_point(&self.point_of(raw_key))
    }

    fn hop_budget(&self) -> usize {
        let n = self.members.len().max(2) as f64;
        let d = self.config.dims as f64;
        (8.0 * d * n.powf(1.0 / d)) as usize + 64
    }

    fn begin_walk(&self, _src: NodeToken, raw_key: u64) -> CanWalk {
        CanWalk {
            point: self.point_of(raw_key),
        }
    }

    fn walk_owner(&self, walk: &CanWalk) -> Option<NodeToken> {
        self.owner_of_point(&walk.point)
    }

    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut CanWalk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        let cur_dist = self.zone_dist(cur, &walk.point);
        if cur_dist == 0 {
            return StepDecision::Terminate;
        }
        let next = self
            .neighbors_of(cur)
            .into_iter()
            .map(|t| (self.zone_dist(t, &walk.point), t))
            .filter(|&(d, _)| d < cur_dist)
            .min();
        // No closer neighbour is a local minimum: the target zone is
        // orphaned (or the greedy frontier is blocked by a hole) —
        // Stuck via `on_exhausted`.
        out.extend(next.map(|(_, t)| (HopPhase::Finger, t)));
        StepDecision::Forward
    }

    fn budget_before_terminal(&self) -> bool {
        // Landing in the target zone ends the walk even on the last
        // budgeted hop (the original loop tested the zone first).
        false
    }

    fn node_join(&mut self, _rng: &mut dyn RngCore) -> Option<NodeToken> {
        // Joins draw their point from the network's own deterministic
        // allocator, not the caller's churn stream.
        self.join_random_point()
    }

    fn node_leave(&mut self, node: NodeToken) -> bool {
        self.leave(node)
    }

    fn node_fail(&mut self, node: NodeToken) -> bool {
        self.fail_node(node)
    }

    fn stabilize_network(&mut self) {
        self.stabilize_takeover();
    }

    fn stabilize_one(&mut self, _node: NodeToken, _hints: &mut Hints) {
        // Takeover is a zone-level (not per-node) repair.
        self.stabilize_takeover();
    }

    fn state_heap_bytes(&self, state: &CanNode) -> usize {
        // Zone list plus each zone's coordinate vectors.
        state.zones.capacity() * std::mem::size_of::<Zone>()
            + state
                .zones
                .iter()
                .map(|z| (z.lo.capacity() + z.hi.capacity()) * std::mem::size_of::<u64>())
                .sum::<usize>()
    }

    fn aux_bytes(&self) -> usize {
        // The dyadic zone index plus the orphan list.
        self.index.heap_bytes()
            + self.orphans.capacity() * std::mem::size_of::<Zone>()
            + self
                .orphans
                .iter()
                .map(|z| (z.lo.capacity() + z.hi.capacity()) * std::mem::size_of::<u64>())
                .sum::<usize>()
    }

    fn audit_network(&self, scope: dht_core::audit::AuditScope) -> dht_core::audit::AuditReport {
        dht_core::audit::StateAudit::audit(self, scope)
    }

    fn corrupt_network(
        &mut self,
        plan: &dht_core::corrupt::CorruptionPlan,
    ) -> dht_core::corrupt::CorruptionReport {
        self.corrupt(plan)
    }

    fn repair_step(&mut self, node: NodeToken) -> u64 {
        self.repair_one(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::lookup::LookupOutcome;
    use dht_core::rng::stream;
    use rand::Rng;

    #[test]
    fn with_nodes_tiles_the_torus() {
        let net = CanNetwork::with_nodes(CanConfig::new(2), 100, 1);
        assert_eq!(net.node_count(), 100);
        assert_eq!(net.tiling_holes(500), 0, "zones must tile exactly");
        let total: u128 = net
            .tokens()
            .iter()
            .map(|&t| net.node(t).unwrap().volume())
            .sum();
        assert_eq!(total, u128::from(net.config().side()).pow(2));
    }

    #[test]
    fn all_lookups_resolve() {
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 128, 2);
        let toks = net.tokens();
        let mut rng = stream(3, "can");
        for i in 0..500 {
            let raw: u64 = rng.gen();
            let t = net.route(toks[i % toks.len()], raw);
            assert_eq!(t.outcome, LookupOutcome::Found, "lookup {i}");
            assert_eq!(Some(t.terminal), net.owner_of_point(&net.point_of(raw)));
            assert_eq!(t.timeouts, 0, "zone handover repairs adjacency eagerly");
        }
    }

    #[test]
    fn path_length_scales_as_n_to_1_over_d() {
        // O(d n^{1/d}): quadrupling n in 2-d should roughly double paths.
        let mean = |n: usize| {
            let mut net = CanNetwork::with_nodes(CanConfig::new(2), n, 4);
            let toks = net.tokens();
            let mut rng = stream(5, "canlen");
            let mut total = 0usize;
            for i in 0..400 {
                total += net.route(toks[i % toks.len()], rng.gen()).path_len();
            }
            total as f64 / 400.0
        };
        let small = mean(64);
        let large = mean(256);
        assert!(
            large > small * 1.4 && large < small * 3.0,
            "scaling off: {small} -> {large}"
        );
    }

    #[test]
    fn graceful_leave_hands_zones_over() {
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 50, 6);
        let toks = net.tokens();
        assert!(net.leave(toks[10]));
        assert_eq!(net.node_count(), 49);
        assert_eq!(net.tiling_holes(300), 0, "no holes after graceful leave");
        let mut rng = stream(7, "canleave");
        let toks = net.tokens();
        for i in 0..200 {
            let t = net.route(toks[i % toks.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    #[test]
    fn crash_orphans_zone_until_takeover() {
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 60, 8);
        let toks = net.tokens();
        let victim = toks[30];
        assert!(net.fail_node(victim));
        // Lookups towards the orphaned zone get stuck...
        let mut rng = stream(9, "cancrash");
        let mut stuck = 0;
        for _ in 0..400 {
            let t = net.route(net.tokens()[0], rng.gen());
            if !t.outcome.is_success() {
                stuck += 1;
            }
        }
        assert!(stuck > 0, "orphaned zone must break some lookups");
        // ... until takeover adopts it.
        net.stabilize_takeover();
        assert_eq!(net.tiling_holes(300), 0);
        let mut rng = stream(9, "cancrash");
        for i in 0..400 {
            let t = net.route(net.tokens()[i % net.node_count()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    /// The original O(n) membership-scan formulation of
    /// [`CanNetwork::owner_of_point`], kept as the reference the zone
    /// index must reproduce.
    fn scan_owner_of_point(net: &CanNetwork, point: &[u64]) -> Option<u64> {
        net.members
            .states()
            .find(|n| n.zones.iter().any(|z| z.contains(point)))
            .map(|n| n.token)
    }

    /// The original O(n²)-ish membership-scan formulation of
    /// [`CanNetwork::neighbors_of`], sorted for comparison.
    fn scan_neighbors(net: &CanNetwork, token: u64) -> Vec<u64> {
        let side = net.config.side();
        let me = match net.members.get(token) {
            Some(n) => n,
            None => return Vec::new(),
        };
        let mut nbrs: Vec<u64> = net
            .members
            .iter()
            .filter(|&(other, _)| other != token)
            .filter(|(_, on)| {
                me.zones
                    .iter()
                    .any(|a| on.zones.iter().any(|b| a.abuts(b, side)))
            })
            .map(|(other, _)| other)
            .collect();
        nbrs.sort_unstable();
        nbrs
    }

    #[test]
    fn index_matches_membership_scans_under_churn() {
        for dims in [1usize, 2, 3] {
            let mut net = CanNetwork::with_nodes(CanConfig::new(dims), 40, 21 + dims as u64);
            let mut rng = stream(22, "canidx");
            for step in 0..60 {
                match step % 4 {
                    0 => {
                        net.join_random_point();
                    }
                    1 if net.node_count() > 2 => {
                        let toks = net.tokens();
                        net.leave(toks[rng.gen::<usize>() % toks.len()]);
                    }
                    2 if net.node_count() > 2 => {
                        let toks = net.tokens();
                        net.fail_node(toks[rng.gen::<usize>() % toks.len()]);
                    }
                    _ => net.stabilize_takeover(),
                }
                for &t in &net.tokens() {
                    assert_eq!(
                        net.neighbors_of(t),
                        scan_neighbors(&net, t),
                        "dims {dims} step {step} token {t}"
                    );
                }
                for probe in 0..16u64 {
                    let p = net.point_of(rng.gen::<u64>() ^ probe);
                    assert_eq!(
                        net.owner_of_point(&p),
                        scan_owner_of_point(&net, &p),
                        "dims {dims} step {step} point {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let net = CanNetwork::with_nodes(CanConfig::new(2), 40, 10);
        for &t in &net.tokens() {
            for nb in net.neighbors_of(t) {
                assert!(
                    net.neighbors_of(nb).contains(&t),
                    "adjacency must be symmetric"
                );
            }
        }
    }

    #[test]
    fn mean_degree_is_order_2d() {
        let net = CanNetwork::with_nodes(CanConfig::new(2), 200, 11);
        let mean: f64 = net
            .tokens()
            .iter()
            .map(|&t| net.neighbors_of(t).len() as f64)
            .sum::<f64>()
            / net.node_count() as f64;
        // 2-d CAN: ~2d = 4 neighbours on average (more for irregular
        // tilings, but bounded well below log n scales).
        assert!((3.0..=9.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn three_dimensional_torus_works() {
        let mut net = CanNetwork::with_nodes(CanConfig::new(3), 64, 12);
        assert_eq!(net.tiling_holes(300), 0);
        let toks = net.tokens();
        let mut rng = stream(13, "can3");
        for i in 0..300 {
            let t = net.route(toks[i % toks.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    #[test]
    fn trait_roundtrip() {
        use dht_core::overlay::Overlay;
        let mut net: Box<dyn Overlay> = Box::new(CanNetwork::with_nodes(CanConfig::new(2), 80, 1));
        assert_eq!(net.name(), "CAN(d=2)");
        let tokens = net.node_tokens();
        let t = net.lookup(tokens[3], 777);
        assert!(t.outcome.is_success());
        assert_eq!(Some(t.terminal), net.owner_of(777));
    }

    #[test]
    fn key_counts_sum_matches() {
        use dht_core::overlay::key_counts;
        use dht_core::workload;
        let net = CanNetwork::with_nodes(CanConfig::new(2), 60, 2);
        let keys = workload::key_population(2_000, &mut stream(3, "cank"));
        let counts = key_counts(&net, &keys);
        assert_eq!(counts.iter().sum::<u64>(), 2_000);
    }

    #[test]
    fn churn_through_trait() {
        use dht_core::overlay::Overlay;
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 32, 4);
        let mut rng = stream(5, "canj");
        let n = Overlay::join(&mut net, &mut rng).unwrap();
        assert_eq!(net.len(), 33);
        assert!(Overlay::leave(&mut net, n));
        assert_eq!(net.len(), 32);
    }
}
