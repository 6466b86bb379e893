//! Quickstart: build a Cycloid network, store a few named objects, look
//! them up from random peers, and inspect a node's seven-entry routing
//! state.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cycloid_repro::prelude::*;
use dht_core::rng::stream;
use rand::RngCore;

fn main() {
    // An 8-dimensional Cycloid: identifier space d * 2^d = 2048, here with
    // 500 participating nodes, each keeping at most 7 links.
    let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 500, 42);
    println!(
        "built a Cycloid(d=8) network: {} nodes, degree bound 7, id space {}",
        net.len(),
        net.dim().id_space()
    );

    // Map application objects onto the identifier space with consistent
    // hashing, exactly as §3.1 prescribes (cyclic = h mod d, cubical =
    // h div d).
    let objects = ["alpha.iso", "beta.mp4", "gamma.tar.gz", "delta.pdf"];
    for name in objects {
        let raw = hash_str(name);
        let key = net.key_of(raw);
        let owner = net.owner_of_key(key).expect("network is non-empty");
        println!("object {name:>12} -> key {key} stored at node {owner}");
    }

    // Look each object up from a random peer and show the route taken.
    let mut rng = stream(7, "quickstart");
    for name in objects {
        let src = {
            let ids: Vec<_> = net.ids().collect();
            ids[(rng.next_u64() % ids.len() as u64) as usize]
        };
        let trace = net.route(src, hash_str(name));
        assert_eq!(trace.outcome, LookupOutcome::Found);
        let phases: Vec<&str> = trace.hops.iter().map(|h| h.label()).collect();
        println!(
            "lookup {name:>12} from {src}: {} hops ({}), {} timeouts",
            trace.path_len(),
            phases.join(" > "),
            trace.timeouts
        );
    }

    // Inspect one node's complete routing state — the constant-degree
    // property in the flesh.
    let some = net.ids().nth(42).unwrap();
    let state = net.node(some).unwrap();
    println!(
        "\nrouting state of node {some} (degree {}):",
        state.degree(some)
    );
    println!(
        "  cubical neighbor : {:?}",
        state.cubical_neighbor.get().map(|n| n.to_string())
    );
    println!(
        "  cyclic larger    : {:?}",
        state.cyclic_larger.get().map(|n| n.to_string())
    );
    println!(
        "  cyclic smaller   : {:?}",
        state.cyclic_smaller.get().map(|n| n.to_string())
    );
    println!(
        "  inside leaf set  : {} | {}",
        state.inside_left[0], state.inside_right[0]
    );
    println!(
        "  outside leaf set : {} | {}",
        state.outside_left[0], state.outside_right[0]
    );

    // Churn: a node joins, a node leaves, lookups keep resolving.
    let newcomer = net.join_random(&mut rng).expect("space not full");
    println!("\nnode {newcomer} joined (network now {})", net.len());
    let leaver = net.ids().nth(100).unwrap();
    net.leave(leaver);
    println!("node {leaver} left gracefully (network now {})", net.len());
    let src = net.ids().next().unwrap();
    let trace = net.route(src, hash_str("alpha.iso"));
    println!(
        "post-churn lookup for alpha.iso: {:?} in {} hops",
        trace.outcome,
        trace.path_len()
    );
}
