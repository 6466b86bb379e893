//! The Cycloid overlay network: membership, neighbour resolution, the
//! join/leave protocols of §3.3, and stabilization.
//!
//! The network is a *simulator* in the paper's sense: all node states live
//! in one structure, and protocol actions (join notifications, graceful
//! leave notifications, stabilization refreshes) mutate exactly the state
//! the real protocol would mutate. Pointers the protocol does **not**
//! repair — other nodes' cubical and cyclic neighbours — go stale until
//! stabilization, which is what the §4.3 timeout experiments measure.

use std::collections::BTreeMap;

use dht_core::overlay::{NodeToken, Overlay};
use dht_core::ring::ring_sides;
use dht_core::sim::{refresh_in_place, Membership, RefreshInto};
use dht_core::store::{CompactStore, Hints, Pos};
use rand::RngCore;

use crate::id::{CycloidId, Dim, KeyDistance};
use crate::state::{LeafSide, NodeState};

/// Configuration of a Cycloid deployment whose leaf sets have radius `R`:
/// 1 gives the paper's seven-entry DHT, 2 the eleven-entry variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycloidConfig<const R: usize> {
    /// Dimension `d`; the identifier space holds `d * 2^d` nodes.
    pub dimension: u32,
}

impl CycloidConfig<1> {
    /// The paper's default seven-entry configuration.
    #[must_use]
    pub fn seven_entry(dimension: u32) -> Self {
        Self { dimension }
    }
}

impl CycloidConfig<2> {
    /// The eleven-entry configuration (two predecessors and two successors
    /// in each leaf set).
    #[must_use]
    pub fn eleven_entry(dimension: u32) -> Self {
        Self { dimension }
    }
}

/// A simulated Cycloid network with leaf radius `R` (1 to 4), whose rows
/// are [`NodeState<R>`].
#[derive(Debug, Clone)]
pub struct CycloidNetwork<const R: usize> {
    dim: Dim,
    /// Live nodes, keyed by linear identifier (`cubical * d + cyclic`):
    /// in token order, cycle `a` is the run of tokens in `[a·d, (a+1)·d)`
    /// and its primary the run's last.
    pub(crate) members: Membership<NodeState<R>>,
}

impl<const R: usize> CycloidNetwork<R> {
    /// Creates an empty network.
    #[must_use]
    pub fn new(config: CycloidConfig<R>, seed: u64) -> Self {
        const { assert!(R >= 1 && R <= 4, "leaf radius must be in [1, 4]") };
        Self {
            dim: Dim::new(config.dimension),
            members: Membership::new(seed),
        }
    }

    /// Builds a network of `count` uniformly placed nodes and stabilizes it
    /// ("once the network becomes stable", §4.3). Panics if `count` exceeds
    /// the identifier space.
    #[must_use]
    pub fn with_nodes(config: CycloidConfig<R>, count: usize, seed: u64) -> Self {
        let mut net = Self::new(config, seed);
        assert!(
            count as u64 <= net.dim.id_space(),
            "{count} nodes exceed the {}-slot identifier space",
            net.dim.id_space()
        );
        let dim = net.dim;
        let draw = || CycloidId::from_hash(net.members.next_raw(), dim).linear(dim);
        net.members.store = CompactStore::fill(count, draw, |_| NodeState::default());
        net.stabilize();
        net
    }

    /// Builds the *complete* network: every one of the `d * 2^d`
    /// identifiers is occupied ("the network will be the traditional
    /// cube-connected cycles if all nodes are alive", §3.1).
    #[must_use]
    pub fn complete(config: CycloidConfig<R>) -> Self {
        let mut net = Self::new(config, 0);
        for linear in 0..net.dim.id_space() {
            net.members.store.insert(linear, NodeState::default());
        }
        net.stabilize();
        net
    }

    /// The network dimension.
    #[must_use]
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The leaf-set radius `R` (1 = seven-entry, 2 = eleven-entry).
    #[must_use]
    pub fn leaf_radius(&self) -> usize {
        R
    }

    /// `true` iff `id` is a live node.
    #[must_use]
    pub fn is_live(&self, id: CycloidId) -> bool {
        self.members.store.contains(id.linear(self.dim))
    }

    /// State of a live node.
    #[must_use]
    pub fn node(&self, id: CycloidId) -> Option<&NodeState<R>> {
        self.members.store.get(id.linear(self.dim))
    }

    /// Mutable state of a live node.
    pub fn node_mut(&mut self, id: CycloidId) -> Option<&mut NodeState<R>> {
        self.members.store.get_mut(id.linear(self.dim))
    }

    /// Iterates over live node identifiers in linear order.
    pub fn ids(&self) -> impl Iterator<Item = CycloidId> + '_ {
        self.members
            .store
            .token_iter()
            .map(move |linear| CycloidId::from_linear(linear, self.dim))
    }

    /// Maps a raw key to its identifier in this space.
    #[must_use]
    pub fn key_of(&self, raw_key: u64) -> CycloidId {
        CycloidId::from_hash(raw_key, self.dim)
    }

    /// The live node responsible for `key`: the unique minimum of
    /// [`KeyDistance`] over all live nodes (§3.1's assignment rule).
    ///
    /// The metric ranks by cubical distance first, so the owner is on the
    /// key's own cycle if that has a live node — one search of the token
    /// order and one run — and else on the nearest non-empty cycle on
    /// either side of it.
    #[must_use]
    pub fn owner_of_key(&self, key: CycloidId) -> Option<CycloidId> {
        let nearest = |radius| {
            self.cycles_around(key.cubical, radius)?
                .min_by_key(|&node| KeyDistance::between(key, node, self.dim))
        };
        nearest(0).or_else(|| nearest(1))
    }

    // ------------------------------------------------------------------
    // Membership: the token order
    // ------------------------------------------------------------------

    fn insert_membership(&mut self, id: CycloidId) {
        self.members
            .store
            .insert(id.linear(self.dim), NodeState::default());
    }

    fn remove_membership(&mut self, id: CycloidId) -> Option<NodeState<R>> {
        self.members.store.remove(id.linear(self.dim))
    }

    /// The identifier of the live node at `pos` of the token order.
    fn id_at(&self, pos: Pos) -> CycloidId {
        CycloidId::from_linear(self.members.store.token_at(pos), self.dim)
    }

    /// Primary node (largest cyclic index, §3.1) of cycle `cubical`, if the
    /// cycle is non-empty.
    #[must_use]
    pub fn primary_of(&self, cubical: u32) -> Option<CycloidId> {
        if self.members.store.is_empty() {
            return None;
        }
        let end = self.id_at(self.cycle_end(cubical, Pos::default()));
        (end.cubical == cubical).then_some(end)
    }

    /// The live nodes from `from` on, one `step` (`next` or `prev`) of the
    /// token order at a time, through `count` whole cycles' runs or one lap
    /// of the ring, whichever ends first. `from` is a run's first member
    /// when stepping forwards, its last when stepping backwards.
    fn runs<'a>(
        &'a self,
        from: Pos,
        step: impl Fn(&'a CompactStore<NodeState<R>>, Pos) -> Pos + 'a,
        count: usize,
    ) -> impl Iterator<Item = CycloidId> + 'a {
        let order = &self.members.store;
        let d = u64::from(self.dim.get());
        // One division a run, not one a token.
        let (mut cycle, mut left) = (order.token_at(from) / d, count);
        std::iter::successors(Some(from), move |&pos| Some(step(order, pos)))
            .take(order.len())
            .map(|pos| order.token_at(pos))
            .map_while(move |token| {
                if !(cycle * d..(cycle + 1) * d).contains(&token) {
                    (cycle, left) = (token / d, left - 1);
                }
                (left > 0).then(|| CycloidId::new((token - cycle * d) as u32, cycle as u32))
            })
    }

    /// The live nodes of cycle `cubical` and of the `radius` nearest
    /// non-empty cycles on each side of it, wrapping: forwards from
    /// `cubical`'s start its own run (if it has one) and `radius` more,
    /// backwards from the token before it `radius` runs. On a ring of
    /// fewer cycles the two walks overlap. `None` on an empty ring.
    fn cycles_around(
        &self,
        cubical: u32,
        radius: usize,
    ) -> Option<impl Iterator<Item = CycloidId> + '_> {
        let order = &self.members.store;
        let point = u64::from(cubical) * u64::from(self.dim.get());
        let first = order.successor_from(&mut Pos::default(), point)?;
        let own = usize::from(self.id_at(first).cubical == cubical);
        let ahead = self.runs(first, CompactStore::next, radius + own);
        let behind = self.runs(order.prev(first), CompactStore::prev, radius);
        Some(ahead.chain(behind))
    }

    // ------------------------------------------------------------------
    // Neighbour resolution (the "local remote search" outcome)
    // ------------------------------------------------------------------

    /// The first live node of cyclic index `cyclic` on the cycles
    /// `cubicals`, probed in the order given: one store probe a cycle.
    fn first_live(
        &self,
        cyclic: u32,
        cubicals: impl IntoIterator<Item = u32>,
    ) -> Option<CycloidId> {
        cubicals
            .into_iter()
            .map(|cubical| CycloidId::new(cyclic, cubical))
            .find(|&node| self.is_live(node))
    }

    /// Resolves the cubical neighbour of `id`: a live node matching
    /// `(k-1, a_{d-1}…a_{k+1} ā_k x…x)` — prefix above bit `k` preserved,
    /// bit `k` flipped, low bits arbitrary (Table 2). Among multiple
    /// candidates, the one whose cubical index is nearest to `a XOR 2^k`
    /// is chosen (ties toward the smaller index), which is the node the
    /// §3.3.1 local-remote search finds first.
    ///
    /// The candidates are the `2^k` cycles of `a XOR 2^k`'s block, probed
    /// nearest first, the lower side first at each distance.
    #[must_use]
    pub fn resolve_cubical_neighbor(&self, id: CycloidId) -> Option<CycloidId> {
        let k = id.cyclic;
        if k == 0 {
            return None;
        }
        let target = id.cubical ^ (1 << k);
        let low_mask = (1 << k) - 1;
        let block = target & !low_mask..=target | low_mask;
        let nearest_first = (0..=low_mask)
            .flat_map(|dist| [target.checked_sub(dist), target.checked_add(dist)])
            .skip(1) // `target` itself, once
            .flatten()
            .filter(|c| block.contains(c));
        self.first_live(k - 1, nearest_first)
    }

    /// Resolves the two cyclic neighbours of `id`: the first larger and
    /// first smaller live nodes with cyclic index `k-1` whose cubical index
    /// differs from `a` only below bit `k` (MSDB with the current node no
    /// larger than `k-1`, §3.1) — a walk from `a` to each end of its
    /// `2^k`-cycle block.
    #[must_use]
    pub fn resolve_cyclic_neighbors(
        &self,
        id: CycloidId,
    ) -> (Option<CycloidId>, Option<CycloidId>) {
        let k = id.cyclic;
        if k == 0 {
            return (None, None);
        }
        let low_mask = (1 << k) - 1;
        let (base, top) = (id.cubical & !low_mask, id.cubical | low_mask);
        let smaller = self.first_live(k - 1, (base..id.cubical).rev());
        let larger = self.first_live(k - 1, (id.cubical..=top).skip(1));
        (smaller, larger)
    }

    /// Position of cycle `cubical`'s first member — the token order runs
    /// cycle by cycle, cycle `a` being the tokens in `[a·d, (a+1)·d)` — or,
    /// if the cycle is empty, of the next non-empty cycle's; wrapping.
    /// Searched from `near`, on a ring that is not empty.
    fn cycle_start(&self, cubical: u32, mut near: Pos) -> Pos {
        let point = u64::from(cubical) * u64::from(self.dim.get());
        let order = &self.members.store;
        order.successor_from(&mut near, point).expect("live ring")
    }

    /// Position of cycle `cubical`'s primary (its last member) or, if the
    /// cycle is empty, of the nearest preceding one's; wrapping. Searched
    /// from `near`, on a ring that is not empty.
    fn cycle_end(&self, cubical: u32, mut near: Pos) -> Pos {
        let point = (u64::from(cubical) + 1) * u64::from(self.dim.get());
        let order = &self.members.store;
        order.predecessor_from(&mut near, point).expect("live ring")
    }

    /// The inside leaf set of the live node `id`, which sits at `own`: one
    /// step a side per entry, wrapping at the ends of the cycle's run.
    fn inside_leafs_at(&self, id: CycloidId, own: Pos) -> (LeafSide<R>, LeafSide<R>) {
        let order = &self.members.store;
        let (mut left, mut right) = (LeafSide::new(), LeafSide::new());
        let (mut before, mut after) = (own, own);
        for _ in 0..R {
            before = order.prev(before);
            if self.id_at(before).cubical != id.cubical {
                before = self.cycle_end(id.cubical, before);
            }
            after = order.next(after);
            if self.id_at(after).cubical != id.cubical {
                after = self.cycle_start(id.cubical, after);
            }
            left.push(self.id_at(before));
            right.push(self.id_at(after));
        }
        (left, right)
    }

    /// The outside leaf set of `id`, searched from `near` (its own place,
    /// or any other): the token before a cycle's first member is the
    /// previous non-empty cycle's primary, and the token after its primary
    /// is the next one's first member.
    fn outside_leafs_at(&self, id: CycloidId, near: Pos) -> (LeafSide<R>, LeafSide<R>) {
        let order = &self.members.store;
        let (mut left, mut right) = (LeafSide::new(), LeafSide::new());
        let (mut before, mut after) = (near, near);
        let (mut preceding, mut succeeding) = (id.cubical, id.cubical);
        for _ in 0..R {
            before = order.prev(self.cycle_start(preceding, before));
            preceding = self.id_at(before).cubical;
            left.push(self.id_at(before));
            after = order.next(self.cycle_end(succeeding, after));
            succeeding = self.id_at(after).cubical;
            after = self.cycle_end(succeeding, after);
            right.push(self.id_at(after));
        }
        (left, right)
    }

    // ------------------------------------------------------------------
    // Join / leave protocols (§3.3)
    // ------------------------------------------------------------------

    /// Oracle-initialized join of a node with identifier `id`: state is
    /// computed from the live membership, then the §3.3.1 notifications
    /// repair the neighbourhood. Used for bulk construction; the
    /// message-level path is [`CycloidNetwork::join_via_protocol`], whose
    /// outcome is provably identical (see the property tests). Returns
    /// `false` if the identifier is already occupied.
    pub fn join_id(&mut self, id: CycloidId) -> bool {
        if self.is_live(id) {
            return false;
        }
        self.insert_membership(id);
        refresh_in_place(self, id.linear(self.dim), &mut Hints::default());
        self.notify_runs(id, None);
        true
    }

    /// The full §3.3.1 protocol join: the join message is **routed** from
    /// the bootstrap contact to the existing node `Z` whose identifier is
    /// numerically closest to the newcomer's, and the newcomer's leaf sets
    /// are derived from `Z`'s state (the section's two cases) rather than
    /// from global knowledge. The routing table is then initialized by the
    /// local-remote search, and the §3.3.1 notifications repair the
    /// neighbourhood.
    ///
    /// Returns `false` if `id` is occupied or `bootstrap` is not live.
    /// Equivalent in outcome to [`CycloidNetwork::join_id`] (asserted by
    /// the property tests), but exercises the real message path.
    pub fn join_via_protocol(&mut self, bootstrap: CycloidId, id: CycloidId) -> bool {
        if self.is_live(id) || !self.is_live(bootstrap) {
            return false;
        }
        // 1. "The node A will route the joining message to the existing
        //    node Z whose ID is numerically closest to the ID of X."
        //    Control traffic: no query-load accounting.
        let trace = self.route_quiet(bootstrap, id);
        let z = CycloidId::from_linear(trace.terminal, self.dim);

        // 2. "Z's Leaf Sets are the basis for X's Leaf Sets."
        // 3. "We use a local remote method to initialize the three
        //    neighbors in the X's routing table": the row's lazy half.
        self.insert_membership(id);
        let mut row = NodeState::default();
        Self::store_notified(&mut row, self.derive_leafs_from(z, id));
        self.refresh_lazy(id.linear(self.dim), &mut Hints::default(), &mut row);
        *self.node_mut(id).expect("just inserted") = row;

        // 4. Notifications: inside leaf set, plus the outside propagation
        //    when the newcomer is a primary. The newcomer's own sets were
        //    derived above and must not be overwritten.
        self.notify_runs(id, Some(id));
        true
    }

    /// Derives the newcomer `x`'s leaf sets from `z`'s state per §3.3.1:
    /// case 1 (same cycle) splices `x` next to `z` using `z`'s inside leaf
    /// set; case 2 (`x` alone on its cycle) points inside at `x` itself
    /// and assembles the outside leaf set from `z`'s cycle's primary and
    /// `z`'s outside entries.
    fn derive_leafs_from(&self, z: CycloidId, x: CycloidId) -> Leafs<R> {
        let z_state = self.node(z).expect("Z is live").clone();
        if z.cubical == x.cubical {
            // Case 1: X joins Z's cycle. Z is X's nearest cycle member, so
            // Z plus Z's inside leaf set covers X's whole neighbourhood;
            // compute X's pred/succ lists from that locally known set.
            let mut members: Vec<u32> = z_state
                .inside_left
                .iter()
                .chain(&z_state.inside_right)
                .filter(|m| m.cubical == x.cubical)
                .map(|m| m.cyclic)
                .chain([z.cyclic, x.cyclic])
                .collect();
            members.sort_unstable();
            members.dedup();
            let pos = members
                .binary_search(&x.cyclic)
                .expect("x was added to the set");
            let member = |j: usize| CycloidId::new(members[j], x.cubical);
            let (left, right) = ring_sides(pos, members.len(), R, R, member);
            (left, right, z_state.outside_left, z_state.outside_right)
        } else {
            // Case 2: X is alone on its cycle; Z sits on an adjacent one.
            // "Two nodes in X's inside leaf set are X itself."
            let inside: LeafSide<R> = std::iter::repeat_n(x, R).collect();
            // Locally known non-empty cycles and their primaries: Z's own
            // cycle (Z reports its primary) plus Z's outside entries.
            let mut known: BTreeMap<u32, CycloidId> = BTreeMap::new();
            known.insert(
                z.cubical,
                self.primary_of(z.cubical).expect("Z's cycle is non-empty"),
            );
            for p in z_state.outside_left.iter().chain(&z_state.outside_right) {
                known.insert(p.cubical, *p);
            }
            known.remove(&x.cubical);
            // X's place among them (Z's cycle is one), read both ways.
            let primaries: Vec<CycloidId> = known.into_values().collect();
            let (at, n) = (|j: usize| primaries[j], primaries.len());
            let place = primaries.partition_point(|p| p.cubical < x.cubical);
            let (left, _) = ring_sides(place, n, R, 0, at);
            let (_, right) = ring_sides(place + n - 1, n, 0, R, at);
            (inside, inside, left, right)
        }
    }

    /// Join with a freshly hashed identifier (re-hashing on collision, as
    /// a real deployment re-hashes with a salt), bootstrapped at a random
    /// live node through the full §3.3.1 message path. Returns the new
    /// node, or `None` if the identifier space is full.
    pub fn join_random(&mut self, rng: &mut dyn RngCore) -> Option<CycloidId> {
        if self.members.store.len() as u64 >= self.dim.id_space() {
            return None;
        }
        let bootstrap = if self.members.store.is_empty() {
            None
        } else {
            let i = (rng.next_u64() % self.members.store.len() as u64) as usize;
            self.members
                .store
                .nth_token(i)
                .map(|linear| CycloidId::from_linear(linear, self.dim))
        };
        loop {
            let id = CycloidId::from_hash(self.members.next_raw(), self.dim);
            let joined = match bootstrap {
                Some(b) => self.join_via_protocol(b, id),
                None => self.join_id(id),
            };
            if joined {
                return Some(id);
            }
        }
    }

    /// Graceful departure of `id` (§3.3.2): the node notifies its inside
    /// leaf set, and its outside leaf set if it is a primary; notified
    /// primaries propagate around their local cycles. Nodes that hold the
    /// leaver as a *cubical or cyclic neighbour* are **not** notified —
    /// those pointers stay stale until stabilization, producing the
    /// timeouts of §4.3.
    ///
    /// Returns `false` if `id` is not live.
    pub fn leave(&mut self, id: CycloidId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.remove_membership(id);
        self.notify_runs(id, None);
        true
    }

    /// Ungraceful failure: `id` vanishes without notifying anyone, so the
    /// leaf sets of its cycle peers and adjacent primaries stay stale in
    /// addition to the cubical/cyclic pointers (§3.4 defers this case;
    /// the `ext-failures` experiment measures it). Returns `false` if
    /// `id` is not live.
    pub fn fail_node(&mut self, id: CycloidId) -> bool {
        self.remove_membership(id).is_some()
    }

    /// Repairs the leaf sets the §3.3 notification chains repair after
    /// `id` joined or left: all members of `id`'s local cycle (inside leaf
    /// sets), and all members of the `R` nearest non-empty
    /// cycles on each side (outside leaf sets — reached via the primary
    /// notification that "is passed along in the joining node's
    /// neighbouring remote cycle until all the nodes in that cycle finish
    /// updating"). `skip` names a node whose leaf sets were initialized by
    /// other means: the protocol join derives them from `Z`, and they must
    /// not be overwritten.
    ///
    /// One walk of the token order, at most one lap, through those runs:
    /// back `R` runs from `id`'s place, then forwards run by run.
    fn notify_runs(&mut self, id: CycloidId, skip: Option<CycloidId>) {
        let order = &self.members.store;
        let point = u64::from(id.cubical) * u64::from(self.dim.get());
        let Some(mut start) = order.successor_from(&mut Pos::default(), point) else {
            return;
        };
        let own = usize::from(self.id_at(start).cubical == id.cubical);
        for _ in 0..R {
            let last = order.prev(start);
            start = self.cycle_start(self.id_at(last).cubical, last);
        }
        let mut left = order.len();
        for _ in 0..2 * R + own {
            if left == 0 {
                break;
            }
            start = self.notify_run(start, &mut left, skip);
        }
    }

    /// Mends the leaf sets of every member of the run that starts at
    /// `start` but `skip`, taking at most `left` of them off `left`, and
    /// returns the position after the last. The outside leaf set depends
    /// only on the cubical index, so it is resolved once for the run.
    fn notify_run(&mut self, start: Pos, left: &mut usize, skip: Option<CycloidId>) -> Pos {
        let first = self.id_at(start);
        let (out_l, out_r) = self.outside_leafs_at(first, start);
        let mut pos = start;
        while *left > 0 && self.id_at(pos).cubical == first.cubical {
            let id = self.id_at(pos);
            if skip != Some(id) {
                let (in_l, in_r) = self.inside_leafs_at(id, pos);
                let row = self.members.store.state_at_mut(pos);
                Self::store_notified(row, (in_l, in_r, out_l, out_r));
            }
            pos = self.members.store.next(pos);
            *left -= 1;
        }
        pos
    }
}

/// A node's leaf sets: inside left and right, outside left and right.
type Leafs<const R: usize> = (LeafSide<R>, LeafSide<R>, LeafSide<R>, LeafSide<R>);

/// Cycloid's row: the leaf sets are its notified half, mended by the §3.3
/// notifications; the routing table is its lazy half, "the responsibility
/// of system stabilization" (§3.3.2).
impl<const R: usize> RefreshInto for CycloidNetwork<R> {
    type Notified = Leafs<R>;

    fn notified_half(&self, id: NodeToken, hint: &mut Pos) -> Leafs<R> {
        let order = &self.members.store;
        let own = order.position_of(hint, id).expect("a live node");
        let id = CycloidId::from_linear(id, self.dim);
        let (in_l, in_r) = self.inside_leafs_at(id, own);
        let (out_l, out_r) = self.outside_leafs_at(id, own);
        (in_l, in_r, out_l, out_r)
    }

    fn store_notified(row: &mut NodeState<R>, leafs: Leafs<R>) {
        (row.inside_left, row.inside_right) = (leafs.0, leafs.1);
        (row.outside_left, row.outside_right) = (leafs.2, leafs.3);
    }

    /// The cubical neighbour and the two cyclic neighbours; no hint is
    /// read.
    fn refresh_lazy(&self, id: NodeToken, _hints: &mut Hints, out: &mut NodeState<R>) {
        let id = CycloidId::from_linear(id, self.dim);
        out.cubical_neighbor = self.resolve_cubical_neighbor(id).into();
        let (smaller, larger) = self.resolve_cyclic_neighbors(id);
        (out.cyclic_smaller, out.cyclic_larger) = (smaller.into(), larger.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(k: u32, a: u32) -> CycloidId {
        CycloidId::new(k, a)
    }

    /// The row one refresh of the live `id` computes from the membership.
    fn fresh_row<const R: usize>(net: &CycloidNetwork<R>, id: CycloidId) -> NodeState<R> {
        let mut row = NodeState::default();
        assert!(net.refresh_into(id.linear(net.dim), &mut Hints::default(), &mut row));
        row
    }

    #[test]
    fn complete_network_has_full_space() {
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(4));
        assert_eq!(net.len(), 64);
        assert_eq!(net.ids().count(), 64);
    }

    #[test]
    fn with_nodes_builds_requested_count() {
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 2000, 1);
        assert_eq!(net.len(), 2000);
    }

    /// The bulk build of `with_nodes` / `complete` leaves what one
    /// `insert_membership` per identifier leaves — the same stabilized
    /// states — and audits clean by name.
    #[test]
    fn bulk_built_indexes_equal_incremental_inserts() {
        fn check<const R: usize>() {
            use dht_core::audit::{AuditScope, StateAudit};
            let config = |dimension| CycloidConfig::<R> { dimension };
            // One node, two, a cycle's worth, most of a space, all of one.
            let mut built: Vec<CycloidNetwork<R>> = [1, 2, 6, 300]
                .iter()
                .map(|&n| CycloidNetwork::with_nodes(config(6), n, n as u64))
                .collect();
            built.push(CycloidNetwork::complete(config(4)));
            for bulk in built {
                let n = bulk.len();
                let d = bulk.dim().get();
                let mut one_by_one = CycloidNetwork::new(config(d), 0);
                // Descending, so no insert lands where the last one did.
                let ids: Vec<CycloidId> = bulk.ids().collect();
                ids.iter()
                    .rev()
                    .for_each(|&id| one_by_one.insert_membership(id));
                one_by_one.stabilize();
                assert!(bulk.ids().eq(one_by_one.ids()));
                for &id in &ids {
                    assert_eq!(bulk.node(id), one_by_one.node(id), "{id:?}, n = {n}");
                }
                let report = bulk.audit_state(AuditScope::Full);
                assert!(report.is_clean(), "n = {n}: {report}");
            }
        }
        check::<1>();
        check::<2>();
    }

    #[test]
    fn table2_cubical_neighbor_pattern() {
        // Paper Table 2: node (4, 10110110) in a complete 8-dimensional
        // Cycloid has cubical neighbour (3, 1010xxxx).
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(8));
        let nb = net
            .resolve_cubical_neighbor(id(4, 0b1011_0110))
            .expect("complete network must resolve the cubical neighbour");
        assert_eq!(nb.cyclic, 3);
        assert_eq!(nb.cubical >> 4, 0b1010, "high bits must be 1010");
    }

    #[test]
    fn table2_cyclic_neighbors() {
        // First larger and smaller nodes with cyclic index 3 differing
        // from 10110110 only below bit 4: 10110111 and 10110101.
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(8));
        let (smaller, larger) = net.resolve_cyclic_neighbors(id(4, 0b1011_0110));
        assert_eq!(larger, Some(id(3, 0b1011_0111)));
        assert_eq!(smaller, Some(id(3, 0b1011_0101)));
    }

    #[test]
    fn table2_inside_leafs_complete() {
        // Inside leaf set of (4, 10110110) in the complete network: local
        // cycle predecessor (3, 10110110) and successor (5, 10110110).
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(8));
        let row = fresh_row(&net, id(4, 0b1011_0110));
        assert_eq!(row.inside_left, vec![id(3, 0b1011_0110)]);
        assert_eq!(row.inside_right, vec![id(5, 0b1011_0110)]);
    }

    #[test]
    fn table2_outside_leafs_complete() {
        // Outside leaf set: primaries (cyclic index 7) of cycles 10110101
        // and 10110111.
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(8));
        let row = fresh_row(&net, id(4, 0b1011_0110));
        assert_eq!(row.outside_left, vec![id(7, 0b1011_0101)]);
        assert_eq!(row.outside_right, vec![id(7, 0b1011_0111)]);
    }

    #[test]
    fn cyclic_index_zero_has_no_routing_neighbors() {
        // §3.1: "The node with a cyclic index k = 0 has no cubical
        // neighbour and cyclic neighbours."
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(5));
        assert_eq!(net.resolve_cubical_neighbor(id(0, 7)), None);
        assert_eq!(net.resolve_cyclic_neighbors(id(0, 7)), (None, None));
    }

    #[test]
    fn lone_node_on_cycle_points_inside_at_itself() {
        let mut net = CycloidNetwork::new(CycloidConfig::seven_entry(5), 3);
        net.join_id(id(2, 9));
        net.join_id(id(1, 20));
        let row = fresh_row(&net, id(2, 9));
        assert_eq!(row.inside_left, vec![id(2, 9)]);
        assert_eq!(row.inside_right, vec![id(2, 9)]);
        // Outside leafs point to the only other cycle's primary both ways.
        assert_eq!(row.outside_left, vec![id(1, 20)]);
        assert_eq!(row.outside_right, vec![id(1, 20)]);
    }

    #[test]
    fn degree_bound_holds_in_complete_network() {
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(5));
        for node_id in net.ids() {
            let deg = net.node(node_id).unwrap().degree(node_id);
            assert!(deg <= 7, "node {node_id} has degree {deg} > 7");
        }
    }

    #[test]
    fn eleven_entry_degree_bound() {
        let net = CycloidNetwork::with_nodes(CycloidConfig::eleven_entry(6), 200, 5);
        for node_id in net.ids() {
            let deg = net.node(node_id).unwrap().degree(node_id);
            assert!(deg <= 11, "node {node_id} has degree {deg} > 11");
        }
    }

    #[test]
    fn owner_is_global_argmin() {
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(6), 100, 7);
        for raw in 0..500u64 {
            let key = net.key_of(raw.wrapping_mul(0x9e37_79b9));
            let owner = net.owner_of_key(key).unwrap();
            let brute = net
                .ids()
                .min_by_key(|&n| KeyDistance::between(key, n, net.dim()))
                .unwrap();
            assert_eq!(owner, brute, "owner mismatch for key {key}");
        }
    }

    #[test]
    fn leave_updates_leaf_sets_of_cycle_peers() {
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(4));
        let leaver = id(2, 5);
        assert!(net.leave(leaver));
        assert!(!net.is_live(leaver));
        // Predecessor (1,5) must now point past the leaver to (3,5).
        let pred = net.node(id(1, 5)).unwrap();
        assert_eq!(pred.inside_right, vec![id(3, 5)]);
        // Successor (3,5) must point back to (1,5).
        let succ = net.node(id(3, 5)).unwrap();
        assert_eq!(succ.inside_left, vec![id(1, 5)]);
    }

    #[test]
    fn primary_departure_updates_adjacent_cycles() {
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(4));
        let primary = net.primary_of(5).unwrap();
        assert_eq!(primary, id(3, 5));
        net.leave(primary);
        // Every member of cycle 4 must now see (2,5) as the succeeding
        // primary.
        for k in 0..4 {
            let state = net.node(id(k, 4)).unwrap();
            assert_eq!(state.outside_right, vec![id(2, 5)], "member (k={k})");
        }
    }

    #[test]
    fn emptying_a_cycle_reroutes_outside_leafs() {
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(4));
        for k in 0..4 {
            net.leave(id(k, 5));
        }
        // Cycle 5 is empty: cycle 4's members must skip to cycle 6.
        let state = net.node(id(0, 4)).unwrap();
        assert_eq!(state.outside_right[0].cubical, 6);
        // And cycle 6's members must skip back to cycle 4.
        let state = net.node(id(0, 6)).unwrap();
        assert_eq!(state.outside_left[0].cubical, 4);
    }

    #[test]
    fn leave_leaves_cubical_neighbors_stale() {
        // Graceful departure must NOT repair other nodes' cubical/cyclic
        // neighbours — that is stabilization's job (§3.3.2) and the very
        // thing the timeout experiments measure.
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(4));
        // Find some node whose cubical neighbour is (1, 2).
        let victim = id(1, 2);
        let holder = net
            .ids()
            .find(|&n| net.node(n).unwrap().cubical_neighbor == Some(victim))
            .expect("someone must point at the victim in a complete network");
        net.leave(victim);
        let still = net.node(holder).unwrap().cubical_neighbor;
        assert_eq!(still, Some(victim), "stale pointer must remain");
        // ... until stabilization repairs it.
        net.stabilize();
        let repaired = net.node(holder).unwrap().cubical_neighbor;
        assert_ne!(repaired, Some(victim));
    }

    #[test]
    fn join_random_fills_space_and_stops() {
        let mut net = CycloidNetwork::new(CycloidConfig::seven_entry(3), 11);
        let mut rng = dht_core::rng::stream(1, "join");
        for _ in 0..24 {
            assert!(net.join_random(&mut rng).is_some());
        }
        assert_eq!(net.len(), 24);
        assert!(net.join_random(&mut rng).is_none(), "space is full");
    }

    #[test]
    fn bootstrap_draw_is_the_ith_smallest_id_on_a_churned_membership() {
        // `join_random` resolves its bootstrap index with
        // `CompactStore::nth_token`; it must stay the `ids().nth(i)` it
        // replaced, or every seeded join sequence changes.
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(5), 60, 7);
        let mut rng = dht_core::rng::stream(3, "bootstrap");
        for round in 0..40 {
            if round % 3 == 0 {
                assert!(net.join_random(&mut rng).is_some());
            } else {
                let i = (rng.next_u64() % net.len() as u64) as usize;
                let victim = net.ids().nth(i).unwrap();
                assert!(net.leave(victim));
            }
            for (i, id) in net.ids().enumerate() {
                let at = net.members.store.nth_token(i);
                assert_eq!(at, Some(id.linear(net.dim)), "index {i}");
            }
            assert_eq!(net.members.store.nth_token(net.len()), None);
        }
    }

    #[test]
    fn join_rejects_duplicate_id() {
        let mut net = CycloidNetwork::new(CycloidConfig::seven_entry(4), 2);
        assert!(net.join_id(id(1, 3)));
        assert!(!net.join_id(id(1, 3)));
    }

    #[test]
    fn query_load_counting_and_reset() {
        use dht_core::overlay::Overlay;
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(4), 20, 9);
        let some = net.ids().next().unwrap();
        let trace = net.route(some, 0xfeed);
        assert_eq!(
            net.query_loads().iter().sum::<u64>(),
            1 + trace.path_len() as u64,
            "one count for the source plus one per hop"
        );
        net.reset_query_loads();
        assert_eq!(net.query_loads().iter().sum::<u64>(), 0);
    }

    #[test]
    fn trait_roundtrip_basics() {
        use dht_core::overlay::Overlay;
        let mut net: Box<dyn Overlay> = Box::new(CycloidNetwork::with_nodes(
            CycloidConfig::seven_entry(6),
            100,
            1,
        ));
        assert_eq!(net.name(), "Cycloid(7)");
        assert_eq!(net.len(), 100);
        assert_eq!(net.degree_bound(), Some(7));
        let tokens = net.node_tokens();
        assert_eq!(tokens.len(), 100);
        let t = net.lookup(tokens[0], 12345);
        assert!(t.outcome.is_success());
        assert_eq!(Some(t.terminal), net.owner_of(12345));
    }

    #[test]
    fn eleven_entry_name_and_bound() {
        use dht_core::overlay::Protocol;
        let net = CycloidNetwork::with_nodes(CycloidConfig::eleven_entry(6), 50, 2);
        assert_eq!(net.name(), "Cycloid(11)");
        assert_eq!(Protocol::degree_bound(&net), Some(11));
    }

    #[test]
    fn join_and_leave_through_trait() {
        use dht_core::overlay::{Overlay, Protocol};
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(6), 50, 3);
        let mut rng = dht_core::rng::stream(5, "trait");
        let newcomer = Protocol::join(&mut net, &mut rng).expect("space not full");
        assert_eq!(net.len(), 51);
        assert!(Protocol::leave(&mut net, newcomer));
        assert_eq!(net.len(), 50);
        assert!(
            !Protocol::leave(&mut net, newcomer),
            "double leave rejected"
        );
    }

    #[test]
    fn key_counts_cover_all_keys() {
        use dht_core::overlay::key_counts;
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 200, 4);
        let keys = dht_core::workload::key_population(5_000, &mut dht_core::rng::stream(6, "keys"));
        let counts = key_counts(&net, &keys);
        assert_eq!(counts.iter().sum::<u64>(), 5_000);
        assert_eq!(counts.len(), 200);
    }

    #[test]
    fn random_node_is_live() {
        use dht_core::overlay::Overlay;
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(6), 30, 5);
        let mut rng = dht_core::rng::stream(7, "pick");
        for _ in 0..50 {
            let t = net.random_node(&mut rng).unwrap();
            assert!(net.node_tokens().contains(&t));
        }
    }
}
