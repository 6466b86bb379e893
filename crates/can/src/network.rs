//! The simulated CAN: membership, zone splitting/takeover, greedy torus
//! routing, and stabilization.

use crate::index::{Slot, ZoneIndex};
use crate::zone::{Point, Zone};
use dht_core::corrupt::{CorruptionPlan, CorruptionReport};
use dht_core::hash::{reduce, splitmix64};
use dht_core::lookup::HopPhase;
use dht_core::overlay::{NodeToken, Protocol};
use dht_core::sim::{Membership, SimOverlay, StepDecision};
use dht_core::store::Hints;
use rand::RngCore;

/// Configuration of a CAN deployment: a `d`-dimensional torus with
/// 16-bit coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanConfig {
    /// Number of torus dimensions `d` (CAN's original evaluation uses 2
    /// by default).
    pub dims: usize,
}

impl CanConfig {
    /// Bits per coordinate: each dimension has side `2^BITS_PER_DIM`.
    pub const BITS_PER_DIM: u32 = 16;

    /// A `d`-dimensional torus with 16-bit coordinates.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!((1..=8).contains(&dims), "dims must be in [1, 8]");
        Self { dims }
    }

    /// Side length of each dimension.
    #[must_use]
    pub fn side(&self) -> u64 {
        1u64 << Self::BITS_PER_DIM
    }
}

/// One CAN node's row: the zones it currently owns (one after a plain
/// join; several after takeovers) and its neighbour table. Its token is
/// the key the membership store holds the row under.
#[derive(Debug, Clone)]
pub struct CanNode {
    /// Owned zones (disjoint boxes), without spare capacity.
    pub zones: Box<[Zone]>,
    /// The routing table Table 1 charges CAN for: the live nodes owning
    /// a zone that abuts one of `zones`, ascending, without repeats or
    /// spare capacity. Kept equal to the tiling's adjacency at every
    /// zone handover, so routing never re-derives it.
    pub(crate) neighbors: Box<[u64]>,
}

impl CanNode {
    /// Total owned volume.
    #[must_use]
    pub fn volume(&self) -> u128 {
        self.zones.iter().map(Zone::volume).sum()
    }

    /// Replaces the table with `table`, sorted and deduplicated.
    fn set_table(&mut self, mut table: Vec<u64>) {
        table.sort_unstable();
        table.dedup();
        self.neighbors = table.into_boxed_slice();
    }

    /// Drops `gone` from the table and adds `new`, each only if that
    /// changes the table. A swap is made in place; a change of length
    /// rebuilds the table at its exact size.
    pub(crate) fn relink(&mut self, gone: Option<u64>, new: Option<u64>) {
        let n = &self.neighbors;
        let gone = gone.and_then(|t| n.binary_search(&t).ok());
        let new = new.and_then(|t| n.binary_search(&t).err().map(|i| (i, t)));
        self.neighbors = match (gone, new) {
            (None, None) => return,
            (Some(i), Some((_, t))) => {
                self.neighbors[i] = t;
                self.neighbors.sort_unstable();
                return;
            }
            (Some(i), None) => [&n[..i], &n[i + 1..]].concat(),
            (None, Some((i, t))) => [&n[..i], &[t], &n[i..]].concat(),
        }
        .into_boxed_slice();
    }
}

/// `true` iff some zone of `a` abuts some zone of `b`.
pub(crate) fn abut(a: &[Zone], b: &[Zone]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.abuts(y)))
}

/// Minimum torus distance from any of `zones` to `point` (`u64::MAX`
/// for none).
fn zone_dist(zones: &[Zone], point: &[u64]) -> u64 {
    zones
        .iter()
        .map(|z| z.torus_distance(point))
        .min()
        .unwrap_or(u64::MAX)
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
    /// Dyadic index of the current tiling: point location, and the face
    /// sweeps that find an orphan zone's neighbours, in `O(depth)`
    /// instead of a full membership scan. Mirrors the zone lists exactly
    /// on every protocol transition; the
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
            zones: Box::new([Zone::full(config.dims, CanConfig::BITS_PER_DIM)]),
            neighbors: Box::default(),
        };
        members.store.insert(token, founder);
        let mut index = ZoneIndex::new(config.dims, CanConfig::BITS_PER_DIM);
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
        while net.members.store.len() < count {
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
    /// ascending token order: the node's stored table (empty for a
    /// departed token).
    #[must_use]
    pub fn neighbors_of(&self, token: u64) -> &[u64] {
        self.members.store.get(token).map_or(&[], |n| &n.neighbors)
    }

    /// The same set recomputed from the tiling by face sweeps of the
    /// zone index — the independent side of the `Full` audit's
    /// `can/neighbor-sweep` check — written into `out`, with the face
    /// owners gathered in `slots`: both are the caller's to reuse.
    pub(crate) fn sweep_neighbors(&self, token: u64, slots: &mut Vec<Slot>, out: &mut Vec<u64>) {
        slots.clear();
        out.clear();
        let Some(me) = self.members.store.get(token) else {
            return;
        };
        for zone in &me.zones {
            self.index.face_owners(zone, slots);
        }
        // Orphaned zones (owner `None`) and the node's own zones drop
        // out, exactly like the membership scan they replace.
        out.extend(slots.iter().flatten().filter(|&&t| t != token));
        out.sort_unstable();
        out.dedup();
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
    ///
    /// Only the splitting owner's table changes shape: the newcomer's
    /// half lies inside the parent zone, so every zone abutting it
    /// abutted the parent, and its owner is already in the owner's
    /// table. Each of those neighbours is checked against both halves.
    pub fn join_at(&mut self, point: &[u64]) -> Option<u64> {
        let (parent, owner) = self.index.locate(point);
        let owner = owner?;
        let (lower, upper) = parent.split()?;
        let (newcomer_zone, keeper_zone) = if lower.contains(point) {
            (lower, upper)
        } else {
            (upper, lower)
        };
        let token = self.members.next_raw();
        let owner_node = self.members.store.get_mut(owner).expect("owner is live");
        let zone_idx = owner_node
            .zones
            .iter()
            .position(|z| *z == parent)
            .expect("owner holds the located zone");
        owner_node.zones[zone_idx] = keeper_zone;
        let old = std::mem::take(&mut owner_node.neighbors);
        let mut owner_table = Vec::with_capacity(old.len() + 1);
        let mut newcomer_table = Vec::with_capacity(old.len() + 1);
        owner_table.push(token);
        newcomer_table.push(owner);
        for &y in old.iter() {
            let y_zones = &self
                .members
                .store
                .get(y)
                .expect("neighbours are live")
                .zones;
            let to_newcomer = y_zones.iter().any(|z| z.abuts(&newcomer_zone));
            let to_owner = abut(y_zones, &self.members.store.get(owner).expect("live").zones);
            if to_newcomer {
                newcomer_table.push(y);
            }
            if to_owner {
                owner_table.push(y);
            }
            self.members
                .store
                .get_mut(y)
                .expect("live")
                .relink((!to_owner).then_some(owner), to_newcomer.then_some(token));
        }
        self.members
            .store
            .get_mut(owner)
            .expect("live")
            .set_table(owner_table);
        let mut newcomer = CanNode {
            zones: Box::new([newcomer_zone]),
            neighbors: Box::default(),
        };
        newcomer.set_table(newcomer_table);
        self.members.store.insert(token, newcomer);
        self.index
            .split(parent, (keeper_zone, owner), (newcomer_zone, token));
        Some(token)
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
                .min_by_key(|&t| (self.members.store.get(t).expect("live").volume(), t))
                .or_else(|| self.members.store.first_token());
            match adopter {
                Some(t) => self.adopt(t, zone, &slots),
                None => self.orphans.push(zone), // empty network
            }
        }
    }

    /// `token` adopts the orphan `zone`, whose abutting zones' owners are
    /// `owners` (a face sweep of it): the index, the zone list, and both
    /// ends of every new adjacency.
    pub(crate) fn adopt(&mut self, token: u64, zone: Zone, owners: &[Slot]) {
        self.index.set_owner(zone, Some(token));
        let mut table = self.neighbors_of(token).to_vec();
        for &y in owners.iter().flatten().filter(|&&y| y != token) {
            table.push(y);
            self.members
                .store
                .get_mut(y)
                .expect("owners are live")
                .relink(None, Some(token));
        }
        let node = self.members.store.get_mut(token).expect("adopter is live");
        node.set_table(table);
        node.zones = [&node.zones[..], &[zone]].concat().into();
    }
}

impl Protocol for CanNetwork {
    fn name(&self) -> String {
        format!("CAN(d={})", self.config.dims)
    }

    fn degree_bound(&self) -> Option<usize> {
        // O(d) on average, but irregular tilings have no hard per-node
        // bound; report unbounded like the other non-constant systems.
        None
    }

    fn key_id(&self, raw_key: u64) -> u64 {
        // No scalar identifier space; report the first coordinate.
        self.point_of(raw_key)[0]
    }

    fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
        self.owner_of_point(&self.point_of(raw_key))
    }

    fn join(&mut self, _rng: &mut dyn RngCore) -> Option<NodeToken> {
        // Joins draw their point from the network's own deterministic
        // allocator, not the caller's churn stream.
        self.join_random_point()
    }

    /// Graceful departure: the leaver hands all its zones to its
    /// smallest-volume neighbour (real CAN's takeover, without the later
    /// defragmentation — the successor may own several boxes), and the
    /// heir takes the leaver's place in every neighbour's table.
    fn leave(&mut self, token: NodeToken) -> bool {
        if !self.members.store.contains(token) || self.members.store.len() == 1 {
            return false;
        }
        let heir = self
            .neighbors_of(token)
            .iter()
            .copied()
            .min_by_key(|&t| (self.members.store.get(t).expect("live").volume(), t));
        let node = self.members.store.remove(token).expect("checked live");
        for &y in node.neighbors.iter().filter(|&&y| Some(y) != heir) {
            self.members
                .store
                .get_mut(y)
                .expect("neighbours are live")
                .relink(Some(token), heir);
        }
        match heir {
            Some(h) => {
                for &zone in &node.zones {
                    self.index.set_owner(zone, Some(h));
                }
                let heir = self.members.store.get_mut(h).expect("heir is live");
                let table = heir
                    .neighbors
                    .iter()
                    .chain(node.neighbors.iter())
                    .copied()
                    .filter(|&t| t != token && t != h)
                    .collect();
                heir.set_table(table);
                heir.zones = [&heir.zones[..], &node.zones[..]].concat().into();
            }
            None => {
                for &zone in &node.zones {
                    self.index.set_owner(zone, None);
                }
                self.orphans.extend(node.zones);
            }
        }
        true
    }

    /// Ungraceful failure: the zones are orphaned until [`CanNetwork::stabilize_takeover`].
    fn fail(&mut self, token: NodeToken) -> bool {
        if !self.members.store.contains(token) || self.members.store.len() == 1 {
            return false;
        }
        let node = self.members.store.remove(token).expect("checked live");
        for &zone in &node.zones {
            self.index.set_owner(zone, None);
        }
        for &y in node.neighbors.iter() {
            self.members
                .store
                .get_mut(y)
                .expect("neighbours are live")
                .relink(Some(token), None);
        }
        self.orphans.extend(node.zones);
        true
    }

    /// Every victim's zones are orphaned while the victim stays live, and
    /// it leaves its neighbours' tables along with its own (`repair.rs`).
    /// Mutated entries count the zones torn from their owners.
    fn corrupt_state(&mut self, plan: &CorruptionPlan) -> CorruptionReport {
        let live = self.members.store.tokens();
        let victims = plan.victims(&live);
        let mut report = CorruptionReport::default();
        for &token in &victims {
            let node = self.members.store.get_mut(token).expect("victim is live");
            let zones = std::mem::take(&mut node.zones);
            let table = std::mem::take(&mut node.neighbors);
            for &zone in &zones {
                self.index.set_owner(zone, None);
            }
            for &y in table.iter() {
                self.members
                    .store
                    .get_mut(y)
                    .expect("neighbours are live")
                    .relink(Some(token), None);
            }
            report.note(zones.len() as u64);
            self.orphans.extend(zones);
        }
        report
    }

    /// Reclaims a zone if this node has none, then adopts orphans
    /// abutting its zones, chaining through the newly adopted faces
    /// (`repair.rs`). Adoption **reserves one orphan per still-zoneless
    /// live node** — without the reservation, whichever nodes repair
    /// first would swallow the whole orphan pool and leave late-firing
    /// zoneless nodes unrepairable forever (corruption guarantees the
    /// pool starts at least as large as the zoneless population, and
    /// both repair moves preserve that inequality). Returns the number
    /// of zones adopted (0 on a healthy network, which costs one
    /// membership probe); ignores dead tokens.
    fn repair_node(&mut self, token: NodeToken) -> u64 {
        let Some(node) = self.members.store.get(token) else {
            return 0;
        };
        let mut adopted = 0u64;
        let mut slots = Vec::new();
        if node.zones.is_empty() {
            if let Some(zone) = self.orphans.pop() {
                self.index.face_owners(&zone, &mut slots);
                self.adopt(token, zone, &slots);
                adopted += 1;
            }
        }
        if self.orphans.is_empty() {
            return adopted;
        }
        let reserved = self
            .members
            .store
            .states()
            .filter(|n| n.zones.is_empty())
            .count();
        let mut i = 0;
        while self.orphans.len() > reserved && i < self.orphans.len() {
            let zone = self.orphans[i];
            slots.clear();
            self.index.face_owners(&zone, &mut slots);
            if slots.contains(&Some(token)) {
                self.orphans.swap_remove(i);
                self.adopt(token, zone, &slots);
                adopted += 1;
                i = 0; // new faces: earlier orphans may now abut us
            } else {
                i += 1;
            }
        }
        adopted
    }

    /// One message per zone-abutting neighbour of the node's zones.
    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        (self.neighbors_of(node).len() as u64).max(1)
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

    fn hop_budget(&self) -> usize {
        let n = self.members.store.len().max(2) as f64;
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

    /// Greedy forwarding to the neighbour whose zone is torus-closest to
    /// the target. Every hop is a [`HopPhase::Finger`] (geometric
    /// forwarding has a single phase), and zone handover repairs the
    /// tables eagerly, so lookups never time out.
    fn next_hop(
        &self,
        cur: NodeToken,
        walk: &mut CanWalk,
        out: &mut Vec<(HopPhase, NodeToken)>,
    ) -> StepDecision {
        let Some(node) = self.members.store.get(cur) else {
            return StepDecision::Forward;
        };
        let cur_dist = zone_dist(&node.zones, &walk.point);
        if cur_dist == 0 {
            return StepDecision::Terminate;
        }
        let next = node
            .neighbors
            .iter()
            .map(|&t| {
                let zones = self.members.store.get(t).map_or(&[][..], |n| &n.zones);
                (zone_dist(zones, &walk.point), t)
            })
            .filter(|&(d, _)| d < cur_dist)
            .min();
        // No closer neighbour is a local minimum: the target zone is
        // orphaned (or the greedy frontier is blocked by a hole), and
        // the walk ends here with no candidate: `Stuck`.
        out.extend(next.map(|(_, t)| (HopPhase::Finger, t)));
        StepDecision::Forward
    }

    fn stabilize_one(&mut self, _node: NodeToken, _hints: &mut Hints) {
        // Takeover is a zone-level (not per-node) repair.
        self.stabilize_takeover();
    }

    fn heap_beyond_rows(&self) -> usize {
        // Each row's zone list and neighbour table, the dyadic zone
        // index and the orphan list.
        use std::mem::{size_of, size_of_val};
        let rows = self.members.store.states();
        let rows: usize = rows
            .map(|s| size_of_val(&*s.zones) + size_of_val(&*s.neighbors))
            .sum();
        rows + self.index.heap_bytes() + self.orphans.capacity() * size_of::<Zone>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::audit::{AuditScope, StateAudit};
    use dht_core::lookup::LookupOutcome;
    use dht_core::overlay::{Overlay, Protocol};
    use dht_core::rng::stream;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn with_nodes_tiles_the_torus() {
        let net = CanNetwork::with_nodes(CanConfig::new(2), 100, 1);
        assert_eq!(net.members.store.len(), 100);
        assert_tiles(&net);
        let total: u128 = net
            .members
            .store
            .tokens()
            .iter()
            .map(|&t| net.members.store.get(t).unwrap().volume())
            .sum();
        assert_eq!(total, u128::from(net.config().side()).pow(2));
    }

    #[test]
    fn all_lookups_resolve() {
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 128, 2);
        let toks = net.members.store.tokens();
        let mut rng = stream(3, "can");
        for i in 0..500 {
            let raw: u64 = rng.gen();
            let t = net.lookup(toks[i % toks.len()], raw);
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
            let toks = net.members.store.tokens();
            let mut rng = stream(5, "canlen");
            let mut total = 0usize;
            for i in 0..400 {
                total += net.lookup(toks[i % toks.len()], rng.gen()).path_len();
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
        let toks = net.members.store.tokens();
        assert!(net.leave(toks[10]));
        assert_eq!(net.members.store.len(), 49);
        assert_tiles(&net);
        let mut rng = stream(7, "canleave");
        let toks = net.members.store.tokens();
        for i in 0..200 {
            let t = net.lookup(toks[i % toks.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    #[test]
    fn crash_orphans_zone_until_takeover() {
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 60, 8);
        let toks = net.members.store.tokens();
        let victim = toks[30];
        assert!(net.fail(victim));
        // Lookups towards the orphaned zone get stuck...
        let mut rng = stream(9, "cancrash");
        let mut stuck = 0;
        for _ in 0..400 {
            let t = net.lookup(net.members.store.tokens()[0], rng.gen());
            if !t.outcome.is_success() {
                stuck += 1;
            }
        }
        assert!(stuck > 0, "orphaned zone must break some lookups");
        // ... until takeover adopts it.
        net.stabilize_takeover();
        assert_tiles(&net);
        let mut rng = stream(9, "cancrash");
        for i in 0..400 {
            let t = net.lookup(
                net.members.store.tokens()[i % net.members.store.len()],
                rng.gen(),
            );
            assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    /// The probe-grid formulation of the `Full` audit's `can/zone-tiling`,
    /// kept as the reference its partition check is held to: how many of
    /// `points` are not covered by exactly one live or orphan zone, each
    /// point tested against every zone.
    fn probe_holes(net: &CanNetwork, points: &[Point]) -> usize {
        points
            .iter()
            .filter(|p| {
                net.members
                    .store
                    .states()
                    .flat_map(|n| n.zones.iter())
                    .chain(&net.orphans)
                    .filter(|z| z.contains(p))
                    .count()
                    != 1
            })
            .count()
    }

    /// The probe's original sample: `probes` hashed points.
    fn probe_grid(net: &CanNetwork, probes: usize) -> Vec<Point> {
        let side = net.config.side();
        (0..probes as u64)
            .map(|i| {
                (0..net.config.dims as u64)
                    .map(|k| reduce(splitmix64(i << 8 | k), side))
                    .collect()
            })
            .collect()
    }

    /// The lower corner of every live and orphan zone. A zone inside
    /// another shares its corner with it, so the probe finds every
    /// overlap of the partition's boxes on these points.
    fn zone_corners(net: &CanNetwork) -> Vec<Point> {
        net.members
            .store
            .states()
            .flat_map(|n| n.zones.iter())
            .chain(&net.orphans)
            .map(|z| (0..z.dims()).map(|k| z.lo(k)).collect())
            .collect()
    }

    /// The zones tile the torus by the `Full` audit and by the probe.
    fn assert_tiles(net: &CanNetwork) {
        let report = net.audit_state(AuditScope::Full);
        assert!(report.is_clean(), "{report}");
        assert_eq!(probe_holes(net, &probe_grid(net, 500)), 0);
    }

    /// The original O(n) membership-scan formulation of
    /// [`CanNetwork::owner_of_point`], kept as the reference the zone
    /// index must reproduce.
    fn scan_owner_of_point(net: &CanNetwork, point: &[u64]) -> Option<u64> {
        net.members
            .store
            .iter()
            .find(|(_, n)| n.zones.iter().any(|z| z.contains(point)))
            .map(|(token, _)| token)
    }

    /// The original O(n²)-ish membership-scan formulation of
    /// [`CanNetwork::neighbors_of`], sorted for comparison.
    fn scan_neighbors(net: &CanNetwork, token: u64) -> Vec<u64> {
        let me = match net.members.store.get(token) {
            Some(n) => n,
            None => return Vec::new(),
        };
        let mut nbrs: Vec<u64> = net
            .members
            .store
            .iter()
            .filter(|&(other, on)| other != token && abut(&me.zones, &on.zones))
            .map(|(other, _)| other)
            .collect();
        nbrs.sort_unstable();
        nbrs
    }

    /// One protocol transition of a churn script; indices pick a live
    /// node modulo the population.
    #[derive(Debug, Clone)]
    enum Step {
        Join,
        Leave(usize),
        Fail(usize),
        Takeover,
        Corrupt(u64),
        Repair(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..11, any::<u64>()).prop_map(|(op, x)| match op {
            0..=2 => Step::Join,
            3 | 4 => Step::Leave(x as usize),
            5 | 6 => Step::Fail(x as usize),
            7 => Step::Takeover,
            8 => Step::Corrupt(x),
            _ => Step::Repair(x as usize),
        })
    }

    fn apply(net: &mut CanNetwork, step: &Step) {
        use dht_core::corrupt::CorruptionStrategy;
        let toks = net.members.store.tokens();
        let pick = |i: usize| toks[i % toks.len()];
        match *step {
            Step::Join => {
                net.join_random_point();
            }
            Step::Leave(i) => {
                net.leave(pick(i));
            }
            Step::Fail(i) => {
                net.fail(pick(i));
            }
            Step::Takeover => net.stabilize_takeover(),
            Step::Corrupt(seed) => {
                let all = CorruptionStrategy::ALL;
                let strategy = all[(seed % all.len() as u64) as usize];
                net.corrupt_state(&CorruptionPlan::new(strategy, 0.15, seed));
            }
            Step::Repair(i) => {
                net.repair_node(pick(i));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// After every step of a join / leave / fail / takeover /
        /// corrupt / repair script, each live node's stored table equals
        /// both the face sweep and the membership scan, the `Online`
        /// audit's table invariants are clean exactly when they do, and
        /// the index locates points like the scan.
        #[test]
        fn index_matches_membership_scans_under_churn(
            dims in 1usize..=3,
            seed in any::<u64>(),
            script in proptest::collection::vec(step(), 1..40),
        ) {
            let mut net = CanNetwork::with_nodes(CanConfig::new(dims), 24, seed);
            let mut rng = stream(seed, "canidx");
            for (i, step) in script.iter().enumerate() {
                apply(&mut net, step);
                let disagree: Vec<u64> = net
                    .members.store.tokens()
                    .into_iter()
                    .filter(|&t| {
                        let table = net.neighbors_of(t);
                        let mut swept = Vec::new();
                        net.sweep_neighbors(t, &mut Vec::new(), &mut swept);
                        table != swept || table != scan_neighbors(&net, t)
                    })
                    .collect();
                let report = net.audit_state(AuditScope::Online);
                let flagged: Vec<_> = report
                    .violations()
                    .iter()
                    .filter(|v| matches!(v.invariant, "can/neighbor-table" | "can/neighbor-complete"))
                    .collect();
                prop_assert_eq!(
                    disagree.is_empty(),
                    flagged.is_empty(),
                    "step {} {:?}: tables disagree at {:?}; Online audit flags {:?}",
                    i, step, disagree, flagged
                );
                prop_assert!(disagree.is_empty(), "step {} {:?}: tables disagree at {:?}", i, step, disagree);
                for _ in 0..8 {
                    let p = net.point_of(rng.gen());
                    prop_assert_eq!(net.owner_of_point(&p), scan_owner_of_point(&net, &p));
                }
            }
        }

        /// After a join / leave / fail / takeover / corrupt / repair
        /// script, and again with a box of the partition planted among the
        /// orphans, `can/zone-tiling` fires exactly when the probe finds a
        /// zone corner covered twice, and whenever the hashed grid finds
        /// a point not covered once. Every planted box overlaps the tiling.
        #[test]
        fn zone_tiling_matches_the_probe(
            dims in 1usize..=3,
            seed in any::<u64>(),
            script in proptest::collection::vec(step(), 1..30),
            raw in any::<u64>(),
            depth in 0u32..=48,
        ) {
            let mut net = CanNetwork::with_nodes(CanConfig::new(dims), 24, seed);
            for step in &script {
                apply(&mut net, step);
            }
            let point = net.point_of(raw);
            let mut planted = Zone::full(dims, CanConfig::BITS_PER_DIM);
            for _ in 0..depth.min(dims as u32 * CanConfig::BITS_PER_DIM) {
                let (a, b) = planted.split().unwrap();
                planted = if a.contains(&point) { a } else { b };
            }
            for plant in [false, true] {
                if plant {
                    net.orphans.push(planted);
                }
                let report = net.audit_state(AuditScope::Full);
                let flagged = report.violated_invariants().contains(&"can/zone-tiling");
                prop_assert_eq!(flagged, plant, "{}", report);
                prop_assert_eq!(probe_holes(&net, &zone_corners(&net)) > 0, flagged);
                prop_assert!(flagged || probe_holes(&net, &probe_grid(&net, 256)) == 0);
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let net = CanNetwork::with_nodes(CanConfig::new(2), 40, 10);
        for &t in &net.members.store.tokens() {
            for &nb in net.neighbors_of(t) {
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
            .members
            .store
            .tokens()
            .iter()
            .map(|&t| net.neighbors_of(t).len() as f64)
            .sum::<f64>()
            / net.members.store.len() as f64;
        // 2-d CAN: ~2d = 4 neighbours on average (more for irregular
        // tilings, but bounded well below log n scales).
        assert!((3.0..=9.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn three_dimensional_torus_works() {
        let mut net = CanNetwork::with_nodes(CanConfig::new(3), 64, 12);
        assert_tiles(&net);
        let toks = net.members.store.tokens();
        let mut rng = stream(13, "can3");
        for i in 0..300 {
            let t = net.lookup(toks[i % toks.len()], rng.gen());
            assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    #[test]
    fn trait_roundtrip() {
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
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 32, 4);
        let mut rng = stream(5, "canj");
        let n = Protocol::join(&mut net, &mut rng).unwrap();
        assert_eq!(net.len(), 33);
        assert!(Protocol::leave(&mut net, n));
        assert_eq!(net.len(), 32);
    }
}
