//! A join or graceful leave mends exactly its neighbourhood (§3.3.1,
//! §3.3.2) and nothing else. On the six kinds whose notification is a
//! refresh of listed links, after every graceful join and leave of a
//! seeded join / leave / fail script:
//! - every row in the notified window holds what the public resolvers,
//!   asked cold, name for the links a notification mends — ring pointers
//!   (`Membership::ring_pointers` from `Pos::default()`), Pastry's leaf
//!   set (`resolve_leafs`), Cycloid's inside and outside leaf sets (those
//!   of its `refresh_into` row from fresh hints) — and every other link
//!   it held before;
//! - every row outside the window is unchanged. A stale finger, de Bruijn
//!   pointer, prefix cell or cubical/cyclic neighbour stays stale until
//!   stabilization: the §4.3 timeouts count those;
//! - a joiner holds what its own stabilizer computes, except Cycloid's
//!   leaf sets, which the §3.3.1 join derives from the contact's state
//!   (held to the resolvers on healthy networks by cycloid's
//!   `protocol_join_equals_oracle_join`; a `fail` can leave the contact
//!   stale).
//!
//! The window is written out here from the sorted live tokens, not asked
//! of the code under test: the `r` nodes before the position and 1 after
//! for Chord and Koorde, `|L|/2` either side for Pastry, and for Cycloid
//! every member of the position's own cycle and of the `r` nearest
//! non-empty cycles either side — each capped at one lap. After a `fail`
//! the window is mended all the same, so it may hold more than the nodes
//! that still list a departed neighbour.

use std::collections::BTreeSet;
use std::fmt::Debug;

use chord::ChordNode;
use cycloid::NodeState;
use cycloid_repro::prelude::*;
use dht_core::rng::stream_indexed;
use dht_core::sim::{RefreshInto, SimOverlay};
use dht_core::store::{Hints, Pos};
use koorde::KoordeNode;
use pastry::PastryNode;
use proptest::prelude::*;
use rand::RngCore;

/// The live tokens other than `id` at most `before` places before
/// position `id` and `after` places after it, in the ring of the others;
/// at most one lap of it.
fn ring_window(live: &[u64], id: u64, before: usize, after: usize) -> BTreeSet<u64> {
    let others: Vec<u64> = live.iter().copied().filter(|&t| t != id).collect();
    let m = others.len() as isize;
    if m == 0 {
        return BTreeSet::new();
    }
    let at = others.partition_point(|&t| t < id) as isize;
    let back = (1..=before as isize).map(|k| at - k);
    let ahead = (0..after as isize).map(|k| at + k);
    let places = back.chain(ahead);
    places.map(|i| others[i.rem_euclid(m) as usize]).collect()
}

/// An overlay whose join and leave notifications mend listed links.
trait Notified: RefreshInto + Clone {
    /// The live nodes a join or leave at position `id` notifies.
    fn window(&self, id: NodeToken) -> BTreeSet<NodeToken>;

    /// `state`, the row of live node `token`, with the links a
    /// notification mends recomputed cold by the public resolvers.
    fn mended(&self, token: NodeToken, state: &Self::State) -> Self::State;

    /// What the joiner `token`, which holds `_held`, must hold: what its
    /// own stabilizer computes.
    fn joined(&self, token: NodeToken, _held: &Self::State) -> Self::State {
        refreshed(self, token)
    }
}

/// The row the live node `token`'s stabilizer computes, from fresh hints.
fn refreshed<T: RefreshInto>(net: &T, token: NodeToken) -> T::State {
    let mut row = T::State::default();
    assert!(net.refresh_into(token, &mut Hints::default(), &mut row));
    row
}

/// A ring kind's window and mended pointers: predecessor and successor
/// list, `r` before and 1 after.
macro_rules! ring_pointers_notified {
    ($net:ty, $state:ident) => {
        impl Notified for $net {
            fn window(&self, id: NodeToken) -> BTreeSet<NodeToken> {
                let live = self.membership().store.tokens();
                ring_window(&live, id, self.config().successor_list, 1)
            }

            fn mended(&self, token: NodeToken, state: &$state) -> $state {
                let r = self.config().successor_list;
                let cold = self
                    .membership()
                    .ring_pointers(token, r, &mut Pos::default());
                let (predecessor, successors) = cold.unwrap();
                $state {
                    predecessor,
                    successors,
                    ..state.clone()
                }
            }
        }
    };
}

ring_pointers_notified!(ChordNetwork, ChordNode);
ring_pointers_notified!(KoordeNetwork, KoordeNode);

impl Notified for PastryNetwork {
    fn window(&self, id: NodeToken) -> BTreeSet<NodeToken> {
        let live = self.membership().store.tokens();
        let half = PastryConfig::LEAF_SET / 2;
        ring_window(&live, id, half, half)
    }

    fn mended(&self, token: NodeToken, state: &PastryNode) -> PastryNode {
        let (leaf_smaller, leaf_larger) = self.resolve_leafs(token, &mut Pos::default());
        PastryNode {
            leaf_smaller,
            leaf_larger,
            ..state.clone()
        }
    }
}

impl<const R: usize> Notified for CycloidNetwork<R> {
    fn window(&self, id: NodeToken) -> BTreeSet<NodeToken> {
        let d = u64::from(self.dim().get());
        let live = self.membership().store.tokens();
        let mut cycles: Vec<u64> = live.iter().map(|t| t / d).collect();
        cycles.dedup();
        let own = id / d;
        let r = self.leaf_radius();
        let mut runs = ring_window(&cycles, own, r, r);
        if cycles.contains(&own) {
            runs.insert(own);
        }
        live.into_iter()
            .filter(|t| runs.contains(&(t / d)))
            .collect()
    }

    fn mended(&self, token: NodeToken, state: &NodeState<R>) -> NodeState<R> {
        let fresh = refreshed(self, token);
        NodeState {
            inside_left: fresh.inside_left,
            inside_right: fresh.inside_right,
            outside_left: fresh.outside_left,
            outside_right: fresh.outside_right,
            ..state.clone()
        }
    }

    /// The routing table is the stabilizer's; the leaf sets are the
    /// §3.3.1 derivation's.
    fn joined(&self, token: NodeToken, held: &NodeState<R>) -> NodeState<R> {
        let stabilized = refreshed(self, token);
        NodeState {
            cubical_neighbor: stabilized.cubical_neighbor,
            cyclic_larger: stabilized.cyclic_larger,
            cyclic_smaller: stabilized.cyclic_smaller,
            ..held.clone()
        }
    }
}

/// Every row of `after` against the rule, where `before` is the network
/// one graceful join (`joined`) or leave at `id` earlier.
fn assert_window<T>(before: &T, after: &T, id: NodeToken, joined: bool, ctx: &str)
where
    T: Notified,
    T::State: Clone + PartialEq + Debug,
{
    let window = after.window(id);
    let old = &before.membership().store;
    for (token, state) in after.membership().store.iter() {
        let inside = window.contains(&token);
        let want = if joined && token == id {
            after.joined(token, state)
        } else {
            let prior = old.get(token).expect("a live row was live before");
            if inside {
                after.mended(token, prior)
            } else {
                prior.clone()
            }
        };
        assert_eq!(
            state,
            &want,
            "{ctx}: node {token} ({} the window {window:?})",
            if inside { "in" } else { "outside" }
        );
    }
}

/// One step of a membership script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Join,
    /// Graceful leave of the `i`-th live node (mod the population).
    Leave(usize),
    /// Ungraceful failure of the `i`-th live node.
    Fail(usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Join),
        Just(Step::Join),
        (0usize..1000).prop_map(Step::Leave),
        (0usize..1000).prop_map(Step::Fail),
    ]
}

/// Plays `script` on `net`, checking the window after every graceful join
/// and leave. `kind` and `seed` key the join draws.
fn assert_script<T>(mut net: T, script: &[Step], kind: u64, seed: u64)
where
    T: Notified,
    T::State: Clone + PartialEq + Debug,
{
    let mut rng = stream_indexed(seed, "notified-window", kind);
    for (i, &op) in script.iter().enumerate() {
        let live = net.membership().store.tokens();
        let victim = |i: usize| live[i % live.len()];
        let before = net.clone();
        let ctx = format!("{}, step {i} ({op:?}) at {} nodes", net.name(), live.len());
        match op {
            Step::Join => {
                if let Some(id) = Protocol::join(&mut net, &mut rng as &mut dyn RngCore) {
                    assert_window(&before, &net, id, true, &ctx);
                }
            }
            Step::Leave(i) if live.len() > 1 => {
                assert!(Protocol::leave(&mut net, victim(i)));
                assert_window(&before, &net, victim(i), false, &ctx);
            }
            Step::Fail(i) if live.len() > 1 => {
                assert!(Protocol::fail(&mut net, victim(i)));
            }
            Step::Leave(_) | Step::Fail(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identifier spaces of a few hundred points, so that windows wrap,
    /// overlap themselves on rings smaller than the window, and empty
    /// whole cycles.
    #[test]
    fn a_notification_mends_its_window_and_nothing_else(
        script in prop::collection::vec(step(), 0..40),
        start in 1usize..40,
        seed in 0u64..1000,
    ) {
        let (n, s) = (start, seed);
        assert_script(ChordNetwork::with_nodes(ChordConfig::new(8), n, s), &script, 0, s);
        assert_script(KoordeNetwork::with_nodes(KoordeConfig::new(8), n, s), &script, 1, s);
        let best_fit = KoordeConfig::with_best_fit(8);
        assert_script(KoordeNetwork::with_nodes(best_fit, n, s), &script, 2, s);
        assert_script(PastryNetwork::with_nodes(PastryConfig::new(8), n, s), &script, 3, s);
        let seven = CycloidConfig::seven_entry(5);
        assert_script(CycloidNetwork::with_nodes(seven, n, s), &script, 4, s);
        let eleven = CycloidConfig::eleven_entry(5);
        assert_script(CycloidNetwork::with_nodes(eleven, n, s), &script, 5, s);
    }
}

/// The same on stores of several chunks, where a window can straddle the
/// boundary between two: 2 500 nodes, then 200 steps of the script.
#[test]
fn windows_hold_on_stores_of_several_chunks() {
    let script: Vec<Step> = (0..200)
        .map(|i| match i % 4 {
            0 | 2 => Step::Join,
            1 => Step::Leave(i * 37),
            _ => Step::Fail(i * 53),
        })
        .collect();
    let n = 2_500;
    assert_script(
        ChordNetwork::with_nodes(ChordConfig::new(14), n, 5),
        &script,
        0,
        5,
    );
    assert_script(
        KoordeNetwork::with_nodes(KoordeConfig::new(14), n, 5),
        &script,
        1,
        5,
    );
    assert_script(
        PastryNetwork::with_nodes(PastryConfig::new(14), n, 5),
        &script,
        3,
        5,
    );
    let seven = CycloidConfig::seven_entry(9);
    assert_script(CycloidNetwork::with_nodes(seven, n, 5), &script, 4, 5);
    let eleven = CycloidConfig::eleven_entry(9);
    assert_script(CycloidNetwork::with_nodes(eleven, n, 5), &script, 5, 5);
}
