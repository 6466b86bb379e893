//! A run of refreshes is its nodes one by one. `Overlay::stabilize_nodes`
//! carries position hints from node to node so that ascending tokens cost
//! steps instead of searches; nothing a resolver returns may depend on
//! them. So: on all eight kinds, after arbitrary join / leave / fail
//! scripts and every corruption strategy, a run — ascending (a tick's
//! bucket, a full round), descending, shuffled, with repeats, with
//! departed tokens — leaves every node state equal to what
//! `SimOverlay::stabilize_one` leaves, called node by node over the same
//! tokens with fresh hints, and bills the same messages. The reference
//! is not `Overlay::stabilize_node`: that is a run of one, so it would
//! compare runs with runs. `Membership::ring_pointers`, which now steps where it
//! searched, is held to its old definition, written out here, and
//! Cycloid's leaf resolvers, which now read the token order instead of
//! the cycle index, to the edge shapes `audit_sweep.rs` lists.

use std::fmt::Debug;

use cycloid::NodeState;
use cycloid_repro::prelude::*;
use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};
use dht_core::obs::Telemetry;
use dht_core::rng::stream_indexed;
use dht_core::sim::{Membership, RefreshInto, SimOverlay};
use dht_core::store::{Hints, Pos};
use proptest::prelude::*;
use rand::Rng;

/// Both networks hold the same nodes in the same states; the first row
/// that differs is named. Compared as text: the one comparison all
/// eight state types offer.
fn assert_same_states<T: SimOverlay>(got: &T, want: &T, ctx: &str)
where
    T::State: Debug,
{
    let (got, want) = (got.membership(), want.membership());
    let (got, want) = (&got.store, &want.store);
    assert_eq!(got.tokens(), want.tokens(), "{ctx}: live tokens");
    for ((token, got), (_, want)) in got.iter().zip(want.iter()) {
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{ctx}: node {token}"
        );
    }
}

/// `run` as one `stabilize_nodes` call against the same tokens through
/// `stabilize_one` with fresh hints, each on its own clone of `net`, with
/// telemetry on: equal states, equal messages. And with it off: nothing billed.
fn assert_run_is_its_nodes<T>(net: &T, run: &[NodeToken], ctx: &str)
where
    T: SimOverlay + Clone,
    T::State: Debug,
{
    let (mut as_run, mut one_by_one) = (net.clone(), net.clone());
    as_run.set_telemetry(Telemetry::enabled());
    one_by_one.set_telemetry(Telemetry::enabled());
    let billed = as_run.stabilize_nodes(run);
    let mut msgs = 0;
    for &node in run {
        msgs += one_by_one.maintenance_msgs(node);
        one_by_one.stabilize_one(node, &mut Hints::default());
    }
    assert_eq!(billed, msgs, "{ctx}: billed messages");
    assert_same_states(&as_run, &one_by_one, ctx);
    let mut unbilled = net.clone();
    unbilled.set_telemetry(Telemetry::disabled());
    assert_eq!(unbilled.stabilize_nodes(run), 0, "{ctx}: telemetry off");
    assert_same_states(&unbilled, &as_run, &format!("{ctx}, telemetry off"));
}

/// The runs of one state of `net`: every live token ascending and
/// descending, every third (a bucket), a seeded shuffle, one with every
/// other token twice, and one with the `departed` tokens mixed in.
fn assert_runs<T>(net: &T, departed: &[NodeToken], rng: &mut impl Rng, ctx: &str)
where
    T: SimOverlay + Clone,
    T::State: Debug,
{
    let live = net.membership().store.tokens();
    let mut shuffled = live.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    let repeats = live
        .iter()
        .flat_map(|&t| [t, t].into_iter().take(1 + (t % 2) as usize));
    let mut with_departed: Vec<NodeToken> = live.iter().chain(departed).copied().collect();
    with_departed.sort_unstable();
    let runs: [(&str, Vec<NodeToken>); 6] = [
        ("ascending", live.clone()),
        ("descending", live.iter().rev().copied().collect()),
        ("every third", live.iter().step_by(3).copied().collect()),
        ("shuffled", shuffled),
        ("repeats", repeats.collect()),
        ("departed", with_departed),
    ];
    for (shape, run) in &runs {
        assert_run_is_its_nodes(net, run, &format!("{ctx}, {shape} run"));
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

/// A membership script, the severity of the corruptions that follow it,
/// and the seed of every draw.
type Plan<'a> = (&'a [Step], f64, u64);

/// Plays the script on `net`, then every corruption strategy on top,
/// checking the runs of the state after the script and after each
/// strategy. `kind` keys the draws.
fn assert_runs_through<T>(mut net: T, kind: u64, (script, severity, seed): Plan)
where
    T: SimOverlay + Clone,
    T::State: Debug,
{
    let mut rng = stream_indexed(seed, "stabilize-runs", kind);
    let mut departed = Vec::new();
    for &op in script {
        let live = net.membership().store.tokens();
        let victim = |i: usize| live[i % live.len()];
        match op {
            Step::Join => {
                let _ = net.join(&mut rng);
            }
            Step::Leave(i) if live.len() > 1 => {
                net.leave(victim(i));
                departed.push(victim(i));
            }
            Step::Fail(i) if live.len() > 1 => {
                net.fail(victim(i));
                departed.push(victim(i));
            }
            Step::Leave(_) | Step::Fail(_) => {}
        }
    }
    // A token that left and came back is live, not departed.
    departed.retain(|&t| !Overlay::contains(&net, t));
    let name = net.name();
    assert_runs(
        &net,
        &departed,
        &mut rng,
        &format!("{name}: after the script"),
    );
    for strategy in CorruptionStrategy::ALL {
        let plan = CorruptionPlan::new(strategy, severity, rng.gen());
        net.corrupt_state(&plan);
        let ctx = format!("{name}: after {}", strategy.label());
        assert_runs(&net, &departed, &mut rng, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All eight kinds, in identifier spaces of a few hundred points so
    /// that scripts wrap, collide and empty whole cycles.
    #[test]
    fn a_run_leaves_what_its_nodes_one_by_one_leave(
        script in prop::collection::vec(step(), 0..30),
        start in 1usize..40,
        severity in 0.05f64..1.0,
        seed in 0u64..1000,
    ) {
        let (n, s) = (start, seed);
        let plan = (script.as_slice(), severity, seed);
        assert_runs_through(ChordNetwork::with_nodes(ChordConfig::new(8), n, s), 0, plan);
        assert_runs_through(KoordeNetwork::with_nodes(KoordeConfig::new(8), n, s), 1, plan);
        let best_fit = KoordeConfig::with_best_fit(8);
        assert_runs_through(KoordeNetwork::with_nodes(best_fit, n, s), 2, plan);
        assert_runs_through(PastryNetwork::with_nodes(PastryConfig::new(8), n, s), 3, plan);
        let seven = CycloidConfig::seven_entry(5);
        assert_runs_through(CycloidNetwork::with_nodes(seven, n, s), 4, plan);
        let eleven = CycloidConfig::eleven_entry(5);
        assert_runs_through(CycloidNetwork::with_nodes(eleven, n, s), 5, plan);
        assert_runs_through(ViceroyNetwork::with_nodes(ViceroyConfig::new(), n, s), 6, plan);
        assert_runs_through(CanNetwork::with_nodes(CanConfig::new(2), n, s), 7, plan);
    }
}

/// The same on stores of several chunks, where a hint names a chunk that
/// later splits, drains or falls off the end: 2 500 nodes, a tenth of
/// them failed or gone, the links of the rest stale.
#[test]
fn runs_cross_chunk_boundaries() {
    fn check<T>(mut net: T, kind: u64)
    where
        T: SimOverlay + Clone,
        T::State: Debug,
    {
        let mut rng = stream_indexed(3, "stabilize-runs-chunks", kind);
        let mut departed = Vec::new();
        for i in 0..250 {
            let live = net.membership().store.tokens();
            let victim = live[rng.gen_range(0..live.len())];
            assert!(if i % 2 == 0 {
                net.fail(victim)
            } else {
                net.leave(victim)
            });
            departed.push(victim);
        }
        let name = net.name();
        assert_runs(
            &net,
            &departed,
            &mut rng,
            &format!("{name}: 2 250 of 2 500"),
        );
    }
    let n = 2_500;
    check(ChordNetwork::with_nodes(ChordConfig::new(12), n, 5), 0);
    check(KoordeNetwork::with_nodes(KoordeConfig::new(12), n, 5), 1);
    check(PastryNetwork::with_nodes(PastryConfig::new(12), n, 5), 2);
    check(
        CycloidNetwork::with_nodes(CycloidConfig::seven_entry(9), n, 5),
        3,
    );
    check(
        CycloidNetwork::with_nodes(CycloidConfig::eleven_entry(9), n, 5),
        4,
    );
}

/// `ring_pointers` as it was before it stepped: one search for the
/// predecessor, then one per successor, each from the last answer.
fn ring_pointers_by_search(
    ring: &Membership<()>,
    id: u64,
    r: usize,
    space: u64,
) -> Option<(u64, Vec<u64>)> {
    let pred = ring.predecessor_of(id)?;
    let mut succs = Vec::new();
    let mut cursor = id;
    for _ in 0..r {
        cursor = ring.store.successor_of((cursor + 1) % space)?;
        succs.push(cursor);
    }
    Some((pred, succs))
}

/// Rings of 0, 1, 2, `r`, `r + 1` and more nodes, at every position of
/// the space — live or not — and from hints that are fresh, left over
/// from the position before, and made up.
#[test]
fn ring_pointers_step_to_what_the_searches_found() {
    let (r, space) = (3usize, 32u64);
    let rings: [&[u64]; 8] = [
        &[],
        &[9],
        &[0],
        &[9, 20],
        &[0, 31],
        &[4, 9, 20],
        &[0, 9, 20, 31],
        &[1, 2, 3, 17, 18, 30],
    ];
    for tokens in rings {
        let mut ring: Membership<()> = Membership::new(1);
        tokens.iter().for_each(|&t| ring.store.insert(t, ()));
        let mut carried = Pos::default();
        for id in 0..space {
            let want = ring_pointers_by_search(&ring, id, r, space);
            let made_up = ring.store.seek_from(Pos::default(), (7 * id) % space);
            for hint in [
                &mut Pos::default(),
                &mut made_up.unwrap_or_default(),
                &mut carried,
            ] {
                let got = ring.ring_pointers::<4>(id, r, hint);
                let got = got.map(|(pred, succs)| (pred, succs.to_vec()));
                assert_eq!(got, want, "ring {tokens:?}, id {id}");
            }
        }
    }
}

/// The Cycloid shapes where a cycle's run in the token order ends:
/// one node, one cycle, a lone node between two cycles, fewer other
/// cycles than the radius, and the first and last cycle of the space —
/// at both radii. Every run equals its nodes one by one, a full round
/// audits clean at full scope (the audit reads no resolver), and a
/// node's leaf sets computed from fresh hints are what the run wrote.
#[test]
fn cycloid_runs_hold_where_the_cycles_wrap() {
    let last = (1u32 << 5) - 1;
    let shapes: [&[(u32, u32)]; 7] = [
        &[(3, 9)],
        &[(0, 9), (2, 9), (4, 9)],
        &[(1, 4), (3, 4), (2, 9), (0, 20), (4, 20)],
        &[(0, 7), (1, 7), (3, 19)],
        &[(0, 0), (4, 0), (1, last), (2, last)],
        &[(2, 0), (0, 13), (3, 13), (4, last)],
        &[(4, last)],
    ];
    for ids in shapes {
        assert_shape_holds(CycloidConfig::seven_entry(5), ids);
        assert_shape_holds(CycloidConfig::eleven_entry(5), ids);
    }
}

/// `cycloid_runs_hold_where_the_cycles_wrap` for one shape at leaf
/// radius `R`.
fn assert_shape_holds<const R: usize>(config: CycloidConfig<R>, ids: &[(u32, u32)]) {
    let mut net = CycloidNetwork::new(config, 1);
    for &(cyclic, cubical) in ids {
        assert!(net.join_id(CycloidId::new(cyclic, cubical)));
    }
    let ctx = format!("{} / {ids:?}", net.name());
    let mut rng = stream_indexed(1, "stabilize-runs-shapes", ids.len() as u64);
    assert_runs(&net, &[], &mut rng, &ctx);
    // Zeroed links, so that the round below writes every entry.
    let zero = CorruptionPlan::new(CorruptionStrategy::ZeroLinks, 1.0, 7);
    net.corrupt_state(&zero);
    assert_runs(&net, &[], &mut rng, &format!("{ctx}, zeroed"));
    net.stabilize();
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{ctx}: {report}");
    for id in net.ids().collect::<Vec<_>>() {
        let node = net.node(id).unwrap();
        let mut fresh = NodeState::default();
        assert!(net.refresh_into(id.linear(net.dim()), &mut Hints::default(), &mut fresh));
        let leafs = |s: &NodeState<R>| {
            let inside = (s.inside_left, s.inside_right);
            (inside, (s.outside_left, s.outside_right))
        };
        assert_eq!(leafs(&fresh), leafs(node), "{ctx}: {id}");
    }
}
