//! The online audits derive every expected ring pointer, leaf set and
//! cycle neighbour from the sorted token list alone (`ring_sides`), never
//! from the resolvers that join, leave and stabilize write the state
//! with. This file holds the other side of that bargain: a per-node
//! oracle written *here*, from the public resolvers
//! (`Membership::ring_pointers`, `resolve_leafs`, the leaf fields of a
//! Cycloid `refresh_into` row), making the same `check` / `check_eq` calls in
//! the same order. Sweep and oracle must agree violation by violation —
//! on clean states, on states left stale by ungraceful failures, and on
//! every corruption strategy — so no second audit path has to live in
//! `src`, and a resolver and the sweep can only be wrong together if they
//! are wrong in the same way.
//!
//! The `Full` scope gets the same treatment with a stricter source: its
//! lazily repaired links (Chord's fingers, Koorde's de Bruijn pointer
//! and backups, Pastry's prefix table, Cycloid's cubical and cyclic
//! neighbours) are recomputed here from the sorted `Vec` of live
//! identifiers and each paper's definition, asking no resolver at all.
//! The full audit must report exactly the online oracle's violations
//! plus these, as a multiset of (node, invariant) pairs.

use cycloid::NodeState;
use cycloid_repro::prelude::*;
use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};
use dht_core::rng::stream_indexed;
use dht_core::sim::{RefreshInto, SimOverlay};
use dht_core::store::{Hints, Pos};
use proptest::prelude::*;
use rand::Rng;

/// Chord's online checks, expected values from `ring_pointers`.
fn chord_oracle(net: &ChordNetwork) -> AuditReport {
    let mut report = AuditReport::new(net.name(), AuditScope::Online);
    let config = net.config();
    for (id, node) in net.membership().store.iter() {
        report.note_checked(1);
        let (pred, succs) = net
            .membership()
            .ring_pointers(id, config.successor_list, &mut Pos::default())
            .expect("non-empty ring");
        report.check_eq(id, "chord/predecessor", &node.predecessor, &pred);
        report.check_eq(id, "chord/successor-list", &node.successors, &succs);
    }
    report
}

/// Koorde's online checks, expected values from `ring_pointers`; the
/// state-size check counts the degree on every node.
fn koorde_oracle(net: &KoordeNetwork) -> AuditReport {
    let mut report = AuditReport::new(net.name(), AuditScope::Online);
    let config = net.config();
    let r = config.successor_list;
    for (id, node) in net.membership().store.iter() {
        report.note_checked(1);
        let bound = r + config.debruijn_backups + 1;
        report.check(
            id,
            "koorde/state-size",
            node.degree(id) <= bound
                && node.successors.len() == r
                && node.debruijn_preds.len() == config.debruijn_backups,
            || {
                format!(
                    "degree {} (bound {bound}), {} successors, {} backups",
                    node.degree(id),
                    node.successors.len(),
                    node.debruijn_preds.len()
                )
            },
        );
        let (pred, succs) = net
            .membership()
            .ring_pointers(id, r, &mut Pos::default())
            .expect("non-empty ring");
        report.check_eq(id, "koorde/predecessor", &node.predecessor, &pred);
        report.check_eq(id, "koorde/successor-list", &node.successors, &succs);
    }
    report
}

/// Pastry's online checks, expected leaf set from `resolve_leafs`.
fn pastry_oracle(net: &PastryNetwork) -> AuditReport {
    let mut report = AuditReport::new(net.name(), AuditScope::Online);
    let c = net.config();
    for (id, node) in net.membership().store.iter() {
        report.note_checked(1);
        let slots = (c.digits() * c.base()) as usize;
        report.check(
            id,
            "pastry/table-shape",
            node.table.len() == slots
                && (0..c.digits())
                    .all(|row| node.table[(row * c.base() + c.digit(id, row)) as usize].is_none()),
            || {
                format!(
                    "{} slots (expected {slots}) or own-digit slot occupied",
                    node.table.len()
                )
            },
        );
        let (smaller, larger) = net.resolve_leafs(id, &mut Pos::default());
        report.check_eq(id, "pastry/leaf-set", &node.leaf_smaller, &smaller);
        report.check_eq(id, "pastry/leaf-set", &node.leaf_larger, &larger);
    }
    report
}

/// Cycloid's online checks, expected leaf sets from a `refresh_into` row
/// made with fresh hints; the state-size check counts the degree on every
/// node.
fn cycloid_oracle<const R: usize>(net: &CycloidNetwork<R>) -> AuditReport {
    let mut report = AuditReport::new(net.name(), AuditScope::Online);
    let dim = net.dim();
    let r = net.leaf_radius();
    let bound = 3 + 4 * r;
    for id in net.ids() {
        report.note_checked(1);
        let token = id.linear(dim);
        let state = net.node(id).expect("live id");
        report.check(
            token,
            "cycloid/state-size",
            state.degree(id) <= bound
                && state.inside_left.len() == r
                && state.inside_right.len() == r
                && state.outside_left.len() == r
                && state.outside_right.len() == r,
            || {
                format!(
                    "degree {} (bound {bound}), leaf sides {}/{}/{}/{} (radius {r})",
                    state.degree(id),
                    state.inside_left.len(),
                    state.inside_right.len(),
                    state.outside_left.len(),
                    state.outside_right.len()
                )
            },
        );
        if id.cyclic == 0 {
            report.check(
                token,
                "cycloid/k0-no-routing-neighbors",
                state.cubical_neighbor.is_none()
                    && state.cyclic_smaller.is_none()
                    && state.cyclic_larger.is_none(),
                || {
                    format!(
                        "cyclic index 0 but cubical={:?} smaller={:?} larger={:?}",
                        state.cubical_neighbor, state.cyclic_smaller, state.cyclic_larger
                    )
                },
            );
        }
        let mut fresh = NodeState::default();
        assert!(net.refresh_into(token, &mut Hints::default(), &mut fresh));
        let (in_left, in_right) = (fresh.inside_left, fresh.inside_right);
        report.check_eq(
            token,
            "cycloid/inside-leaf-set",
            &state.inside_left,
            &in_left,
        );
        report.check_eq(
            token,
            "cycloid/inside-leaf-set",
            &state.inside_right,
            &in_right,
        );
        let (out_left, out_right) = (fresh.outside_left, fresh.outside_right);
        report.check_eq(
            token,
            "cycloid/outside-leaf-set",
            &state.outside_left,
            &out_left,
        );
        report.check_eq(
            token,
            "cycloid/outside-leaf-set",
            &state.outside_right,
            &out_right,
        );
    }
    report
}

/// The first live id at or after `x`, wrapping to the smallest.
fn first_at_or_after(live: &[u64], x: u64) -> u64 {
    let i = live.partition_point(|&t| t < x);
    live.get(i).copied().unwrap_or(live[0])
}

/// Index in `live` of the last live id at or before `x`, wrapping to
/// the largest.
fn last_at_or_before(live: &[u64], x: u64) -> usize {
    live.partition_point(|&t| t <= x)
        .checked_sub(1)
        .unwrap_or(live.len() - 1)
}

/// One (node, invariant) pair per lazily repaired link that differs
/// from its definition: `expected[i]` against `held[i]`, where a
/// position only one side has differs too.
fn per_entry<T: PartialEq>(
    out: &mut Vec<(NodeToken, &'static str)>,
    node: NodeToken,
    invariant: &'static str,
    held: &[T],
    expected: &[T],
) {
    for i in 0..held.len().max(expected.len()) {
        if held.get(i) != expected.get(i) {
            out.push((node, invariant));
        }
    }
}

/// Chord: finger `k` is the first live id at or after `id + 2^k`.
fn chord_lazy(net: &ChordNetwork) -> Vec<(NodeToken, &'static str)> {
    let live = net.node_tokens();
    let config = net.config();
    let mut out = Vec::new();
    for (id, node) in net.membership().store.iter() {
        let expected: Vec<u64> = (0..config.bits)
            .map(|k| first_at_or_after(&live, (id + (1u64 << k)) % config.space()))
            .collect();
        per_entry(&mut out, id, "chord/finger-table", &node.fingers, &expected);
    }
    out
}

/// Koorde (either start): the de Bruijn pointer is the last live id at
/// or before `2·id`, and its backups the `b` live ids before it, nearest
/// first, wrapping; the backups count once per node.
fn koorde_lazy(net: &KoordeNetwork) -> Vec<(NodeToken, &'static str)> {
    let live = net.node_tokens();
    let n = live.len();
    let config = net.config();
    let mut out = Vec::new();
    for (id, node) in net.membership().store.iter() {
        let at = last_at_or_before(&live, (2 * id) % config.space());
        if node.debruijn != live[at] {
            out.push((id, "koorde/debruijn-pointer"));
        }
        let backups: Vec<u64> = (1..=config.debruijn_backups)
            .map(|i| live[(at + n * i - i) % n])
            .collect();
        if node.debruijn_preds[..] != backups[..] {
            out.push((id, "koorde/debruijn-backups"));
        }
    }
    out
}

/// Pastry: slot `(row, col)` holds the live id numerically closest to
/// the node among those sharing its first `row` digits and having digit
/// `col` at `row`; `None` for the node's own digit or an empty block.
fn pastry_lazy(net: &PastryNetwork) -> Vec<(NodeToken, &'static str)> {
    let live = net.node_tokens();
    let c = net.config();
    let mut out = Vec::new();
    for (id, node) in net.membership().store.iter() {
        let mut expected = Vec::new();
        for row in 0..c.digits() {
            for col in 0..c.base() {
                let in_block = |x: u64| {
                    (0..row).all(|r| c.digit(x, r) == c.digit(id, r)) && c.digit(x, row) == col
                };
                let holder = live
                    .iter()
                    .copied()
                    .filter(|&x| in_block(x))
                    .min_by_key(|&x| x.abs_diff(id));
                expected.push(holder.filter(|_| c.digit(id, row) != col));
            }
        }
        per_entry(&mut out, id, "pastry/prefix-table", &node.table, &expected);
    }
    out
}

/// Cycloid, §3.1: a node `(k, a)` with `k > 0` links to cyclic index
/// `k - 1`. Its cubical neighbour agrees with `a` above bit `k` and not
/// at bit `k`, nearest to `a XOR 2^k` (ties to the smaller index); its
/// cyclic neighbours agree with `a` from bit `k` up and are the first
/// smaller and first larger such index. Index 0 links to nobody. The
/// cyclic pair counts once per node.
fn cycloid_lazy<const R: usize>(net: &CycloidNetwork<R>) -> Vec<(NodeToken, &'static str)> {
    let dim = net.dim();
    let d = u64::from(dim.get());
    let live: Vec<CycloidId> = net
        .node_tokens()
        .into_iter()
        .map(|t| CycloidId::new((t % d) as u32, (t / d) as u32))
        .collect();
    let mut out = Vec::new();
    for id in net.ids() {
        let state = net.node(id).expect("live id");
        let (mut cubical, mut smaller, mut larger) = (None, None, None);
        if id.cyclic > 0 {
            let k = id.cyclic;
            let above = |c: u32, bit: u32| c >> bit == id.cubical >> bit;
            let level = live.iter().filter(|x| x.cyclic == k - 1);
            let target = id.cubical ^ (1 << k);
            cubical = level
                .clone()
                .filter(|x| above(x.cubical, k + 1) && !above(x.cubical, k))
                .min_by_key(|x| (x.cubical.abs_diff(target), x.cubical))
                .copied();
            let block = level.filter(|x| above(x.cubical, k));
            smaller = block
                .clone()
                .filter(|x| x.cubical < id.cubical)
                .max_by_key(|x| x.cubical);
            larger = block
                .filter(|x| x.cubical > id.cubical)
                .min_by_key(|x| x.cubical);
        }
        let token = id.linear(dim);
        if state.cubical_neighbor != cubical {
            out.push((token, "cycloid/cubical-neighbor"));
        }
        let stored = (state.cyclic_smaller.get(), state.cyclic_larger.get());
        if stored != (smaller.copied(), larger.copied()) {
            out.push((token, "cycloid/cyclic-neighbors"));
        }
    }
    out
}

/// Asserts that the full audit reports the online oracle's violations
/// plus the definitional `lazy` ones, as sorted (node, invariant)
/// multisets.
fn assert_full_is_definition<T: StateAudit>(
    net: &T,
    online: &AuditReport,
    lazy: Vec<(NodeToken, &'static str)>,
    ctx: &str,
) {
    let pairs = |r: &AuditReport| -> Vec<(NodeToken, &'static str)> {
        r.violations()
            .iter()
            .map(|v| (v.node, v.invariant))
            .collect()
    };
    let mut expected = pairs(online);
    expected.extend(lazy);
    expected.sort_unstable();
    let full = net.audit_state(AuditScope::Full);
    let mut found = pairs(&full);
    found.sort_unstable();
    assert_eq!(found, expected, "{ctx}: full audit against the definition");
}

/// Asserts that the sweep's online report is the oracle's, violation by
/// violation and in order, and that the full-scope audit embeds exactly
/// the same online half (it runs the same sweep before its own probes).
/// Returns the sweep's online report.
fn assert_sweep_is_oracle<T: StateAudit>(net: &T, oracle: &AuditReport, ctx: &str) -> AuditReport {
    let online = net.audit_state(AuditScope::Online);
    assert_eq!(online.overlay(), oracle.overlay(), "{ctx}");
    assert_eq!(online.checked_nodes(), oracle.checked_nodes(), "{ctx}");
    assert_eq!(online.violations(), oracle.violations(), "{ctx}");
    let names = oracle.violated_invariants();
    let full = net.audit_state(AuditScope::Full);
    let embedded: Vec<&AuditViolation> = full
        .violations()
        .iter()
        .filter(|v| names.contains(&v.invariant))
        .collect();
    let expected: Vec<&AuditViolation> = oracle.violations().iter().collect();
    assert_eq!(embedded, expected, "{ctx}: online half of the full audit");
    online
}

/// The six ring-ordered kinds behind one closure-free interface: the
/// concrete network (for its resolvers) plus its oracle.
enum Net {
    Chord(ChordNetwork),
    Koorde(KoordeNetwork),
    Pastry(PastryNetwork),
    Cycloid7(CycloidNetwork<1>),
    Cycloid11(CycloidNetwork<2>),
}

const KINDS: [&str; 6] = [
    "chord",
    "koorde",
    "koorde-bf",
    "pastry",
    "cycloid7",
    "cycloid11",
];

impl Net {
    /// A stabilized `kind` network of `n` nodes in a space of a few
    /// hundred identifiers, so that scripts wrap, collide and empty
    /// whole cycles.
    fn build(kind: &str, n: usize, seed: u64) -> Net {
        match kind {
            "chord" => Net::Chord(ChordNetwork::with_nodes(ChordConfig::new(8), n, seed)),
            "koorde" => Net::Koorde(KoordeNetwork::with_nodes(KoordeConfig::new(8), n, seed)),
            "koorde-bf" => {
                let config = KoordeConfig::with_best_fit(8);
                Net::Koorde(KoordeNetwork::with_nodes(config, n, seed))
            }
            "pastry" => Net::Pastry(PastryNetwork::with_nodes(PastryConfig::new(8), n, seed)),
            "cycloid7" => {
                let config = CycloidConfig::seven_entry(5);
                Net::Cycloid7(CycloidNetwork::with_nodes(config, n, seed))
            }
            "cycloid11" => {
                let config = CycloidConfig::eleven_entry(5);
                Net::Cycloid11(CycloidNetwork::with_nodes(config, n, seed))
            }
            other => panic!("unknown kind {other}"),
        }
    }

    fn overlay(&mut self) -> &mut dyn Overlay {
        match self {
            Net::Chord(net) => net,
            Net::Koorde(net) => net,
            Net::Pastry(net) => net,
            Net::Cycloid7(net) => net,
            Net::Cycloid11(net) => net,
        }
    }

    /// Holds the online sweep to the resolver oracle and the full audit
    /// to the definitional one; returns the sweep's online report.
    fn assert_sweep_is_oracle(&self, ctx: &str) -> AuditReport {
        match self {
            Net::Chord(net) => {
                let online = assert_sweep_is_oracle(net, &chord_oracle(net), ctx);
                assert_full_is_definition(net, &online, chord_lazy(net), ctx);
                online
            }
            Net::Koorde(net) => {
                let online = assert_sweep_is_oracle(net, &koorde_oracle(net), ctx);
                assert_full_is_definition(net, &online, koorde_lazy(net), ctx);
                online
            }
            Net::Pastry(net) => {
                let online = assert_sweep_is_oracle(net, &pastry_oracle(net), ctx);
                assert_full_is_definition(net, &online, pastry_lazy(net), ctx);
                online
            }
            Net::Cycloid7(net) => assert_cycloid_sweep_is_oracle(net, ctx),
            Net::Cycloid11(net) => assert_cycloid_sweep_is_oracle(net, ctx),
        }
    }
}

/// [`Net::assert_sweep_is_oracle`] for Cycloid at leaf radius `R`.
fn assert_cycloid_sweep_is_oracle<const R: usize>(
    net: &CycloidNetwork<R>,
    ctx: &str,
) -> AuditReport {
    let online = assert_sweep_is_oracle(net, &cycloid_oracle(net), ctx);
    assert_full_is_definition(net, &online, cycloid_lazy(net), ctx);
    online
}

/// One step of a membership script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Join,
    /// Graceful leave of the `i`-th live node (mod the population).
    Leave(usize),
    /// Ungraceful failure of the `i`-th live node: nobody is told, so
    /// the online invariants around it break until stabilization.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary join / leave / fail scripts, then each corruption
    /// strategy on top: the sweep reports exactly what the resolvers'
    /// oracle reports, on all six kinds.
    #[test]
    fn sweep_equals_the_resolver_oracle(
        script in prop::collection::vec(step(), 0..40),
        start in 1usize..40,
        severity in 0.05f64..1.0,
        seed in 0u64..1000,
    ) {
        for (k, kind) in KINDS.into_iter().enumerate() {
            let mut net = Net::build(kind, start, seed);
            let mut rng = stream_indexed(seed, "audit-sweep", k as u64);
            net.assert_sweep_is_oracle(&format!("{kind}: fresh"));
            for (at, &op) in script.iter().enumerate() {
                let overlay = net.overlay();
                let live = overlay.node_tokens();
                match op {
                    Step::Join => {
                        let _ = overlay.join(&mut rng);
                    }
                    Step::Leave(i) if live.len() > 1 => {
                        overlay.leave(live[i % live.len()]);
                    }
                    Step::Fail(i) if live.len() > 1 => {
                        overlay.fail(live[i % live.len()]);
                    }
                    Step::Leave(_) | Step::Fail(_) => {}
                }
                net.assert_sweep_is_oracle(&format!("{kind}: after step {at} ({op:?})"));
            }
            for strategy in CorruptionStrategy::ALL {
                let plan = CorruptionPlan::new(strategy, severity, rng.gen());
                net.overlay().corrupt_state(&plan);
                net.assert_sweep_is_oracle(&format!("{kind}: after {}", strategy.label()));
            }
        }
    }
}

/// Where wrap-around bites on a plain ring: 1, 2, `r` and `r + 1` nodes
/// (the successor list repeats the ring, itself included), and a Pastry
/// ring with fewer peers than half a leaf set (both halves hold every
/// peer, never the node).
#[test]
fn tiny_rings_audit_clean_and_match_the_oracle() {
    for kind in ["chord", "koorde", "koorde-bf", "pastry"] {
        for n in [1, 2, 3, 4, 5, 9] {
            for seed in 0..4 {
                let net = Net::build(kind, n, seed);
                let ctx = format!("{kind}: {n} nodes, seed {seed}");
                let report = net.assert_sweep_is_oracle(&ctx);
                assert!(report.is_clean(), "{ctx}: {report}");
            }
        }
    }
    // The expected values themselves, not only their agreement: the
    // state a clean audit has just vouched for, position by position.
    // `(tokens, each node's predecessor and successor list)`, ascending.
    let chord = |n: usize| {
        let Net::Chord(net) = Net::build("chord", n, 1) else {
            unreachable!()
        };
        let states = net.membership().store.states();
        let held = states.map(|node| (node.predecessor, node.successors.to_vec()));
        (net.node_tokens(), held.collect::<Vec<_>>())
    };
    // One node is its own predecessor and all three successors.
    let (t, held) = chord(1);
    assert_eq!(held, vec![(t[0], vec![t[0]; 3])]);
    // Two: the list alternates and passes through the node itself.
    let (t, held) = chord(2);
    assert_eq!(held[0], (t[1], vec![t[1], t[0], t[1]]));
    assert_eq!(held[1], (t[0], vec![t[0], t[1], t[0]]));
    // Three = r: the list ends on the node itself.
    let (t, held) = chord(3);
    assert_eq!(held[2], (t[1], vec![t[0], t[1], t[2]]));
    // Four = r + 1: every other node once, wrapping past the top.
    let (t, held) = chord(4);
    assert_eq!(held[2], (t[1], vec![t[3], t[0], t[1]]));
    assert_eq!(held[0], (t[3], vec![t[1], t[2], t[3]]));
    // Three Pastry nodes, fewer peers than half a leaf set: both halves
    // hold both peers, nearest first, and never the node.
    let Net::Pastry(three) = Net::build("pastry", 3, 1) else {
        unreachable!()
    };
    let ids = three.node_tokens();
    let high = three.membership().store.get(ids[2]).unwrap();
    assert_eq!(high.leaf_smaller, vec![ids[1], ids[0]]);
    assert_eq!(high.leaf_larger, vec![ids[0], ids[1]]);
}

/// A Cycloid network holding exactly `ids`, joined one by one.
fn cycloid_of<const R: usize>(config: CycloidConfig<R>, ids: &[(u32, u32)]) -> CycloidNetwork<R> {
    let mut net = CycloidNetwork::new(config, 1);
    for &(cyclic, cubical) in ids {
        assert!(net.join_id(CycloidId::new(cyclic, cubical)));
    }
    net
}

/// Where wrap-around bites on Cycloid's two-level ring: one cycle only,
/// a lone node on its cycle, fewer than `r` other cycles, and the first
/// and last cycle of the cubical space.
#[test]
fn cycloid_edge_shapes_audit_clean_and_match_the_oracle() {
    let last = (1u32 << 5) - 1;
    let shapes: [(&str, &[(u32, u32)]); 6] = [
        ("one node", &[(3, 9)]),
        ("one cycle", &[(0, 9), (2, 9), (4, 9)]),
        (
            "lone node between two cycles",
            &[(1, 4), (3, 4), (2, 9), (0, 20), (4, 20)],
        ),
        (
            "two cycles: fewer than r = 2 others",
            &[(0, 7), (1, 7), (3, 19)],
        ),
        (
            "first and last cycle of the space",
            &[(0, 0), (4, 0), (1, last), (2, last)],
        ),
        (
            "first, last and one between",
            &[(2, 0), (0, 13), (3, 13), (4, last)],
        ),
    ];
    for (shape, ids) in shapes {
        for mut net in [
            Net::Cycloid7(cycloid_of(CycloidConfig::seven_entry(5), ids)),
            Net::Cycloid11(cycloid_of(CycloidConfig::eleven_entry(5), ids)),
        ] {
            // Joins keep the online invariants; the full scope (the
            // cubical and cyclic neighbours) wants one stabilization
            // round first.
            let ctx = format!("{} / {shape}", net.overlay().name());
            let report = net.assert_sweep_is_oracle(&ctx);
            assert!(report.is_clean(), "{ctx}: {report}");
            net.overlay().stabilize();
            net.assert_sweep_is_oracle(&format!("{ctx}, stabilized"));
            let report = net.overlay().audit_state(AuditScope::Full);
            assert!(report.is_clean(), "{ctx}: {report}");
        }
    }
    // The expected values themselves: a lone node points inside at
    // itself; with one other cycle, both outside sides name its primary
    // and, at radius 2, wrap onto the node's own.
    let net = cycloid_of(CycloidConfig::eleven_entry(5), &[(0, 7), (1, 7), (3, 19)]);
    let lone = net.node(CycloidId::new(3, 19)).unwrap();
    assert_eq!(lone.inside_left, vec![CycloidId::new(3, 19); 2]);
    assert_eq!(
        lone.outside_right,
        vec![CycloidId::new(1, 7), CycloidId::new(3, 19)]
    );
    let pair = net.node(CycloidId::new(0, 7)).unwrap();
    assert_eq!(
        pair.inside_left,
        vec![CycloidId::new(1, 7), CycloidId::new(0, 7)]
    );
    assert_eq!(
        pair.outside_left,
        vec![CycloidId::new(3, 19), CycloidId::new(1, 7)]
    );
}
