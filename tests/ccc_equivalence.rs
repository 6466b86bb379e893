//! The complete Cycloid network versus the exact CCC graph: §3.1 claims
//! "the network will be the traditional cube-connected cycles if all
//! nodes are alive". These tests pin down the precise sense in which the
//! emulation holds.

use ccc::{classic_route, CccGraph, CccNode};
use cycloid::{CycloidConfig, CycloidId, CycloidNetwork};
use dht_core::overlay::Overlay;
use dht_core::rng::stream;
use rand::Rng;

fn as_ccc(id: CycloidId) -> CccNode {
    CccNode::new(id.cyclic, u64::from(id.cubical))
}

#[test]
fn identifier_spaces_coincide() {
    for d in 3..=8 {
        let g = CccGraph::new(d);
        let net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
        assert_eq!(net.len() as u64, g.node_count());
        // The linearization orders agree node by node.
        for id in net.ids() {
            assert_eq!(id.linear(net.dim()), g.index_of(as_ccc(id)));
        }
    }
}

#[test]
fn inside_leafs_are_ccc_cycle_edges() {
    // In the complete network, a node's inside leaf set is exactly its
    // CCC cycle predecessor and successor.
    let d = 5;
    let g = CccGraph::new(d);
    let net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
    for id in net.ids() {
        let state = net.node(id).unwrap();
        let me = as_ccc(id);
        assert_eq!(as_ccc(state.inside_left[0]), g.cycle_prev(me), "{id}");
        assert_eq!(as_ccc(state.inside_right[0]), g.cycle_next(me), "{id}");
    }
}

#[test]
fn cubical_neighbor_flips_bit_k() {
    // The cubical neighbour corrects exactly hypercube dimension k (with
    // cyclic index k-1 and free low bits) — the Cycloid counterpart of
    // the CCC cube edge at position k.
    let d = 6;
    let net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
    for id in net.ids().filter(|id| id.cyclic > 0) {
        let nb = net
            .node(id)
            .unwrap()
            .cubical_neighbor
            .expect("complete network resolves all cubical neighbours");
        assert_eq!(nb.cyclic, id.cyclic - 1, "{id}");
        let k = id.cyclic;
        // Bits at and above k+1 agree; bit k differs.
        assert_eq!(nb.cubical >> (k + 1), id.cubical >> (k + 1), "{id}");
        assert_ne!((nb.cubical >> k) & 1, (id.cubical >> k) & 1, "{id}");
    }
}

#[test]
fn cycloid_routes_within_constant_factor_of_ccc() {
    // Cycloid's O(d) lookups track the classic CCC routing scheme's O(d)
    // paths within a small constant factor.
    for d in 3..=6 {
        let g = CccGraph::new(d);
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
        let mut rng = stream(u64::from(d), "ccc-vs");
        let space = net.dim().id_space();
        for _ in 0..300 {
            let s = CycloidId::from_linear(rng.gen_range(0..space), net.dim());
            let t = CycloidId::from_linear(rng.gen_range(0..space), net.dim());
            let cyc = net.route_to_id(s, t);
            assert!(cyc.outcome.is_success());
            let ccc_len = classic_route(&g, as_ccc(s), as_ccc(t)).len() - 1;
            assert!(
                cyc.path_len() <= ccc_len + 2 * d as usize,
                "CCC({d}) {s}->{t}: cycloid {} vs classic {ccc_len}",
                cyc.path_len()
            );
        }
    }
}

#[test]
fn complete_network_degree_matches_constant_bound() {
    // CCC is 3-regular; Cycloid adds the leaf sets for a total of at most
    // 7 distinct contacts.
    let net = CycloidNetwork::complete(CycloidConfig::seven_entry(5));
    let mut max_deg = 0;
    for id in net.ids() {
        max_deg = max_deg.max(net.node(id).unwrap().degree(id));
    }
    assert!(max_deg <= 7);
    assert!(max_deg >= 5, "complete network should use most entries");
}

#[test]
fn ccc_diameter_bounds_cycloid_complete_routing() {
    // In the complete network every lookup is at most a small multiple of
    // the CCC diameter.
    let d = 4;
    let g = CccGraph::new(d);
    let diameter = g.diameter() as usize;
    let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
    let space = net.dim().id_space();
    let mut worst = 0usize;
    for s in 0..space {
        let src = CycloidId::from_linear(s, net.dim());
        for t in (0..space).step_by(7) {
            let dst = CycloidId::from_linear(t, net.dim());
            let trace = net.route_to_id(src, dst);
            assert!(trace.outcome.is_success());
            worst = worst.max(trace.path_len());
        }
    }
    assert!(
        worst <= 2 * diameter,
        "worst Cycloid path {worst} vs CCC diameter {diameter}"
    );
}
