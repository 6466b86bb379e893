//! Property-based tests of Cycloid's identifier space, ownership metric,
//! and routing — the invariants §3 states and §4 depends on.

use cycloid::id::{msdb, prefix_len};
use cycloid::{CycloidConfig, CycloidId, CycloidNetwork, Dim, KeyDistance};
use dht_core::lookup::LookupOutcome;
use dht_core::overlay::Overlay;
use dht_core::rng::stream;
use proptest::prelude::*;
use rand::Rng;

fn dim_strategy() -> impl Strategy<Value = u32> {
    3u32..=8
}

/// §3.1's assignment rule, written out: the minimum of [`KeyDistance`]
/// over every live node.
fn owner_by_definition<const R: usize>(
    net: &CycloidNetwork<R>,
    key: CycloidId,
) -> Option<CycloidId> {
    net.ids()
        .min_by_key(|&n| KeyDistance::between(key, n, net.dim()))
}

/// `owner_of_key` and `primary_of` against their definitions over
/// `net.ids()`: the owner on hashed keys and on keys in cycle 0, in cycle
/// `2^d - 1` and in an empty cycle, the primary for every cubical index.
fn check_positional_readers<const R: usize>(
    net: &CycloidNetwork<R>,
    rng: &mut impl Rng,
) -> Result<(), TestCaseError> {
    let dim = net.dim();
    let cycles = u32::try_from(dim.cubical_space()).expect("d < 32");
    let live: Vec<CycloidId> = net.ids().collect();
    let is_empty = |c: u32| live.iter().all(|n| n.cubical != c);
    let start = rng.gen_range(0..cycles);
    let empty = (0..cycles)
        .map(|i| (start + i) % cycles)
        .find(|&c| is_empty(c));
    let mut keys: Vec<CycloidId> = (0..4).map(|_| net.key_of(rng.gen())).collect();
    for c in [Some(0), Some(cycles - 1), empty].into_iter().flatten() {
        keys.push(CycloidId::new(rng.gen_range(0..dim.get()), c));
    }
    for key in keys {
        let owner = owner_by_definition(net, key);
        prop_assert_eq!(net.owner_of_key(key), owner, "key {}", key);
    }
    for c in 0..cycles {
        // The primary is its cycle's largest cyclic index.
        let primary = live
            .iter()
            .filter(|n| n.cubical == c)
            .max_by_key(|n| n.cyclic);
        prop_assert_eq!(net.primary_of(c), primary.copied(), "primary of {}", c);
    }
    Ok(())
}

/// §3.1's routing-table neighbours of `id`, written out over the live
/// identifiers `live`: candidates have cyclic index `k - 1` and keep `a`'s
/// bits above `k`. The cubical neighbour also flips bit `k` and is the
/// candidate nearest `a XOR 2^k`, ties toward the smaller index; the cyclic
/// pair is the nearest candidate below `a` and the nearest above it. A node
/// with `k = 0` has none.
fn routing_neighbours_by_definition(
    live: &[CycloidId],
    id: CycloidId,
) -> (Option<CycloidId>, (Option<CycloidId>, Option<CycloidId>)) {
    let k = id.cyclic;
    if k == 0 {
        return (None, (None, None));
    }
    let candidates = || {
        live.iter()
            .copied()
            .filter(move |n| n.cyclic == k - 1 && n.cubical >> (k + 1) == id.cubical >> (k + 1))
    };
    let target = id.cubical ^ (1 << k);
    let cubical = candidates()
        .filter(|n| (n.cubical >> k) & 1 == (target >> k) & 1)
        .min_by_key(|n| (n.cubical.abs_diff(target), n.cubical));
    let cyclic = candidates().filter(|n| n.cubical >> k == id.cubical >> k);
    let smaller = cyclic
        .clone()
        .filter(|n| n.cubical < id.cubical)
        .max_by_key(|n| n.cubical);
    let larger = cyclic
        .filter(|n| n.cubical > id.cubical)
        .min_by_key(|n| n.cubical);
    (cubical, (smaller, larger))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn routing_neighbours_follow_the_definition(
        seed in any::<u64>(),
        d in dim_strategy(),
        fill in 0u64..=100,
        radius in 1usize..=2,
        departures in 0usize..32,
    ) {
        match radius {
            1 => routing_neighbours_case::<1>(seed, d, fill, departures)?,
            _ => routing_neighbours_case::<2>(seed, d, fill, departures)?,
        }
    }

    #[test]
    fn linear_roundtrip_everywhere(d in dim_strategy(), raw in any::<u64>()) {
        let dim = Dim::new(d);
        let id = CycloidId::from_hash(raw, dim);
        prop_assert!(id.cyclic < d);
        prop_assert!(u64::from(id.cubical) < dim.cubical_space());
        let lin = id.linear(dim);
        prop_assert_eq!(CycloidId::from_linear(lin, dim), id);
        // The paper's split: cyclic = h mod d, cubical = h div d.
        prop_assert_eq!(u64::from(id.cyclic), lin % u64::from(d));
        prop_assert_eq!(u64::from(id.cubical), lin / u64::from(d));
    }

    #[test]
    fn msdb_matches_prefix_len(d in dim_strategy(), a in any::<u32>(), b in any::<u32>()) {
        let dim = Dim::new(d);
        let mask = u32::try_from(dim.cubical_space() - 1).expect("d <= 32");
        let (a, b) = (a & mask, b & mask);
        match msdb(a, b) {
            None => prop_assert_eq!(a, b),
            Some(m) => {
                prop_assert!(m < d);
                prop_assert_eq!(prefix_len(a, b, dim), d - 1 - m);
                // Bits above m agree, bit m differs.
                prop_assert_eq!(a >> (m + 1), b >> (m + 1));
                prop_assert_ne!((a >> m) & 1, (b >> m) & 1);
            }
        }
    }

    #[test]
    fn key_distance_identity_and_symmetric_uniqueness(
        d in dim_strategy(),
        key_raw in any::<u64>(),
        n1 in any::<u64>(),
        n2 in any::<u64>(),
    ) {
        let dim = Dim::new(d);
        let key = CycloidId::from_hash(key_raw, dim);
        let a = CycloidId::from_hash(n1, dim);
        let b = CycloidId::from_hash(n2, dim);
        prop_assert_eq!(KeyDistance::between(key, key, dim), KeyDistance::default());
        // The metric separates distinct nodes (unique owners).
        if a != b {
            prop_assert_ne!(
                KeyDistance::between(key, a, dim),
                KeyDistance::between(key, b, dim)
            );
        }
    }

    #[test]
    fn owner_matches_brute_force(
        seed in any::<u64>(),
        shape in 0usize..6,
        count in 2usize..80,
        radius in 1usize..=2,
        script in proptest::collection::vec((0u8..3, any::<u64>()), 0..12),
    ) {
        match radius {
            1 => owner_case::<1>(seed, shape, count, script)?,
            _ => owner_case::<2>(seed, shape, count, script)?,
        }
    }

    #[test]
    fn degree_never_exceeds_bound(seed in any::<u64>(), count in 1usize..120, radius in 1usize..=2) {
        match radius {
            1 => degree_case::<1>(seed, count)?,
            _ => degree_case::<2>(seed, count)?,
        }
    }

    #[test]
    fn path_length_bounded_by_hop_budget_margin(seed in any::<u64>()) {
        // O(d): every lookup in a stabilized 7-dimensional network stays
        // far below the safety budget.
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 300, seed);
        let ids: Vec<CycloidId> = net.ids().collect();
        let mut rng = stream(seed, "plen-prop");
        for i in 0..20 {
            let t = net.route(ids[i % ids.len()], rng.gen());
            prop_assert!(t.outcome.is_success());
            prop_assert!(t.path_len() <= 4 * 7, "path {} exceeds 4d", t.path_len());
            prop_assert_eq!(t.timeouts, 0);
        }
    }

    #[test]
    fn protocol_join_equals_oracle_join(seed in any::<u64>(), count in 3usize..90, radius in 1usize..=2) {
        match radius {
            1 => protocol_join_case::<1>(seed, count)?,
            _ => protocol_join_case::<2>(seed, count)?,
        }
    }

    #[test]
    fn protocol_join_leaves_query_loads_untouched(seed in any::<u64>()) {
        // The join message is control traffic, not a lookup: §4.2's
        // query-load counters must not move.
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 60, seed);
        net.reset_query_loads();
        let mut rng = stream(seed, "pjq");
        let dim = net.dim();
        let newcomer = loop {
            let cand = CycloidId::from_hash(rng.gen(), dim);
            if net.node(cand).is_none() {
                break cand;
            }
        };
        let bootstrap = net.ids().next().unwrap();
        prop_assert!(net.join_via_protocol(bootstrap, newcomer));
        prop_assert_eq!(net.query_loads().iter().sum::<u64>(), 0);
    }

    #[test]
    fn routing_state_is_self_consistent(seed in any::<u64>(), count in 5usize..100) {
        // Every stored entry must point at a live node satisfying its
        // defining pattern.
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(6), count, seed);
        for id in net.ids() {
            let state = net.node(id).unwrap();
            if let Some(cb) = state.cubical_neighbor.get() {
                prop_assert!(net.is_live(cb));
                prop_assert_eq!(cb.cyclic, id.cyclic - 1);
                let k = id.cyclic;
                prop_assert_eq!(cb.cubical >> (k + 1), id.cubical >> (k + 1));
                prop_assert_ne!((cb.cubical >> k) & 1, (id.cubical >> k) & 1);
            }
            for cy in [state.cyclic_larger, state.cyclic_smaller].into_iter().flatten() {
                prop_assert!(net.is_live(cy));
                prop_assert_eq!(cy.cyclic, id.cyclic - 1);
                // Differs from the node only below bit k.
                let k = id.cyclic;
                prop_assert_eq!(cy.cubical >> k, id.cubical >> k);
            }
            for leaf in state.leaf_entries() {
                prop_assert!(net.is_live(leaf), "leaf {leaf} of {id} is dead");
            }
        }
    }
}

/// `routing_neighbours_follow_the_definition` at leaf radius `R`.
fn routing_neighbours_case<const R: usize>(
    seed: u64,
    d: u32,
    fill: u64,
    departures: usize,
) -> Result<(), TestCaseError> {
    // From one node to every slot, then a seeded mix of graceful leaves
    // and failures that nothing stabilizes: the resolvers read the
    // membership as it is, and stabilization stores what they read.
    let space = Dim::new(d).id_space();
    let count = (space * fill / 100).max(1) as usize;
    let config = CycloidConfig::<R> { dimension: d };
    let mut net = CycloidNetwork::with_nodes(config, count, seed);
    let mut rng = stream(seed, "neighbour-prop");
    for _ in 0..departures.min(net.len() - 1) {
        let victim = net.ids().nth(rng.gen_range(0..net.len())).unwrap();
        if rng.gen() {
            prop_assert!(net.leave(victim));
        } else {
            prop_assert!(net.fail_node(victim));
        }
    }
    let live: Vec<CycloidId> = net.ids().collect();
    let expected: Vec<_> = live
        .iter()
        .map(|&id| routing_neighbours_by_definition(&live, id))
        .collect();
    for (&id, (cubical, cyclic)) in live.iter().zip(&expected) {
        prop_assert_eq!(
            &net.resolve_cubical_neighbor(id),
            cubical,
            "cubical of {}",
            id
        );
        prop_assert_eq!(
            &net.resolve_cyclic_neighbors(id),
            cyclic,
            "cyclic of {}",
            id
        );
    }
    net.stabilize();
    for (&id, (cubical, cyclic)) in live.iter().zip(&expected) {
        let state = net.node(id).unwrap();
        prop_assert_eq!(&state.cubical_neighbor, cubical, "stored cubical of {}", id);
        let stored = (state.cyclic_smaller.get(), state.cyclic_larger.get());
        prop_assert_eq!(&stored, cyclic, "stored cyclic of {}", id);
    }
    Ok(())
}

/// `owner_matches_brute_force` at leaf radius `R`.
fn owner_case<const R: usize>(
    seed: u64,
    shape: usize,
    count: usize,
    script: Vec<(u8, u64)>,
) -> Result<(), TestCaseError> {
    // One node, two, one full cycle (at cubical 0, at 2^d - 1, somewhere
    // between), the complete d = 4 network, or `count` uniform nodes.
    let config = |dimension| CycloidConfig::<R> { dimension };
    let full_cycle = |cubical: u32| {
        let mut net = CycloidNetwork::new(config(6), seed);
        (0..6).for_each(|k| assert!(net.join_id(CycloidId::new(k, cubical))));
        net
    };
    let mut net = match shape {
        0 => CycloidNetwork::with_nodes(config(6), 1, seed),
        1 => CycloidNetwork::with_nodes(config(6), 2, seed),
        2 => full_cycle([0, 63, (seed % 64) as u32][(seed % 3) as usize]),
        3 => CycloidNetwork::complete(config(4)),
        _ => CycloidNetwork::with_nodes(config(6), count, seed),
    };
    let mut rng = stream(seed, "owner-prop");
    for _ in 0..10 {
        // Routing from an arbitrary source terminates at the owner.
        let raw: u64 = rng.gen();
        let brute = owner_by_definition(&net, net.key_of(raw)).unwrap();
        let src = net.ids().next().unwrap();
        let trace = net.route(src, raw);
        prop_assert_eq!(trace.outcome, LookupOutcome::Found);
        prop_assert_eq!(trace.terminal, brute.linear(net.dim()));
    }
    check_positional_readers(&net, &mut rng)?;
    // Joins, graceful leaves and failures, down to the empty ring.
    for (op, pick) in script {
        let victim = net.ids().nth((pick % net.len().max(1) as u64) as usize);
        match (op, victim) {
            (1, Some(victim)) => prop_assert!(net.leave(victim)),
            (2, Some(victim)) => prop_assert!(net.fail_node(victim)),
            _ => {
                let room = (net.len() as u64) < net.dim().id_space();
                prop_assert_eq!(net.join_random(&mut rng).is_some(), room);
            }
        }
        check_positional_readers(&net, &mut rng)?;
    }
    Ok(())
}

/// `degree_never_exceeds_bound` at leaf radius `R`.
fn degree_case<const R: usize>(seed: u64, count: usize) -> Result<(), TestCaseError> {
    let config = CycloidConfig::<R> { dimension: 7 };
    let net = CycloidNetwork::with_nodes(config, count, seed);
    let bound = 3 + 4 * R;
    for id in net.ids() {
        prop_assert!(net.node(id).unwrap().degree(id) <= bound);
    }
    Ok(())
}

/// `protocol_join_equals_oracle_join` at leaf radius `R`.
fn protocol_join_case<const R: usize>(seed: u64, count: usize) -> Result<(), TestCaseError> {
    // §3.3.1: initializing the newcomer's leaf sets from Z's state
    // must produce exactly what a global-knowledge resolution gives,
    // and the resulting network must match one built with the oracle
    // join, node for node.
    let config = CycloidConfig::<R> { dimension: 7 };
    let mut by_protocol = CycloidNetwork::with_nodes(config, count, seed);
    let mut by_oracle = by_protocol.clone();
    let mut rng = stream(seed, "pj");
    // Find a free identifier.
    let dim = by_protocol.dim();
    let newcomer = loop {
        let cand = CycloidId::from_hash(rng.gen(), dim);
        if by_protocol.node(cand).is_none() {
            break cand;
        }
    };
    let ids: Vec<CycloidId> = by_protocol.ids().collect();
    let bootstrap = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
    prop_assert!(by_protocol.join_via_protocol(bootstrap, newcomer));
    prop_assert!(by_oracle.join_id(newcomer));
    // The newcomer's protocol-derived leaf sets match the oracle's.
    for id in by_oracle.ids().collect::<Vec<_>>() {
        let a = by_protocol.node(id).unwrap();
        let b = by_oracle.node(id).unwrap();
        prop_assert_eq!(&a.inside_left, &b.inside_left, "inside-left of {}", id);
        prop_assert_eq!(&a.inside_right, &b.inside_right, "inside-right of {}", id);
        prop_assert_eq!(&a.outside_left, &b.outside_left, "outside-left of {}", id);
        prop_assert_eq!(
            &a.outside_right,
            &b.outside_right,
            "outside-right of {}",
            id
        );
    }
    // Lookups keep resolving after the protocol join.
    for i in 0..10 {
        let src = ids[i % ids.len()];
        let t = by_protocol.route(src, rng.gen());
        prop_assert_eq!(t.outcome, LookupOutcome::Found);
    }
    Ok(())
}
