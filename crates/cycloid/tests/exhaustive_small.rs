//! Exhaustive small-space verification: in a 3-dimensional Cycloid (24
//! identifier slots) we can afford to check *every* source × *every* key
//! over many random memberships — the strongest correctness evidence the
//! routing algorithm gets, complementing the per-step proofs sketched in
//! the paper's §3.2 ("convergence and reachability").

use cycloid::{CycloidConfig, CycloidId, CycloidNetwork, Dim};
use dht_core::lookup::LookupOutcome;
use dht_core::overlay::Overlay;
use dht_core::rng::stream_indexed;
use rand::Rng;

const D: u32 = 3;
const SLOTS: u64 = 24; // 3 * 2^3

/// Builds a random membership of the d=3 space with the given occupancy
/// mask bits, at leaf radius `R`.
fn network_from_mask<const R: usize>(mask: u32) -> Option<CycloidNetwork<R>> {
    if mask == 0 {
        return None;
    }
    let config = CycloidConfig::<R> { dimension: D };
    let mut net = CycloidNetwork::new(config, 0);
    let dim = Dim::new(D);
    for slot in 0..SLOTS {
        if mask & (1 << slot) != 0 {
            assert!(net.join_id(CycloidId::from_linear(slot, dim)));
        }
    }
    Some(net)
}

/// Every (source, key) pair must terminate at the unique owner, for both
/// leaf radii, over many random memberships.
#[test]
fn every_pair_resolves_in_sampled_memberships() {
    for trial in 0..60u64 {
        let mut rng = stream_indexed(2024, "exhaustive", trial);
        // Random occupancy between 1 and 24 nodes, biased across the range.
        let density: f64 = 0.1 + 0.8 * (trial as f64 / 60.0);
        let mut mask: u32 = 0;
        for slot in 0..SLOTS {
            if rng.gen_bool(density) {
                mask |= 1 << slot;
            }
        }
        if mask == 0 {
            mask = 1 << (trial % SLOTS);
        }
        every_pair_resolves::<1>(mask);
        every_pair_resolves::<2>(mask);
    }
}

/// Every (source, key) pair of the `mask` membership at leaf radius `R`.
fn every_pair_resolves<const R: usize>(mask: u32) {
    let dim = Dim::new(D);
    let mut net = network_from_mask::<R>(mask).unwrap();
    net.stabilize();
    let ids: Vec<CycloidId> = net.ids().collect();
    for &src in &ids {
        for key_lin in 0..SLOTS {
            let key = CycloidId::from_linear(key_lin, dim);
            let owner = net.owner_of_key(key).unwrap();
            let t = net.route_to_id(src, key);
            assert_eq!(
                t.outcome,
                LookupOutcome::Found,
                "mask {mask:#x} radius {R}: {src} -> key {key} ended {:?} at {}",
                t.outcome,
                CycloidId::from_linear(t.terminal, dim)
            );
            assert_eq!(
                t.terminal,
                owner.linear(dim),
                "mask {mask:#x} radius {R}: {src} -> key {key} wrong owner"
            );
            assert_eq!(t.timeouts, 0, "stable network must not time out");
            assert!(
                t.path_len() <= 24,
                "path {} absurd in a 24-slot space",
                t.path_len()
            );
        }
    }
}

/// The complete d=3 network is the ground case: all 24 x 24 pairs, exact
/// owner = the key's own node, and O(d) paths.
#[test]
fn complete_d3_all_pairs_exact() {
    let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(D));
    let dim = net.dim();
    let mut worst = 0usize;
    for s in 0..SLOTS {
        for k in 0..SLOTS {
            let src = CycloidId::from_linear(s, dim);
            let key = CycloidId::from_linear(k, dim);
            let t = net.route_to_id(src, key);
            assert_eq!(t.outcome, LookupOutcome::Found);
            assert_eq!(t.terminal, k, "complete network: key stored at itself");
            worst = worst.max(t.path_len());
        }
    }
    assert!(worst <= 3 * D as usize, "worst path {worst} exceeds 3d");
}

/// Every membership of exactly two nodes: both directions, every key.
#[test]
fn all_two_node_networks_resolve() {
    let dim = Dim::new(D);
    for a in 0..SLOTS {
        for b in (a + 1)..SLOTS {
            let mask = (1u32 << a) | (1 << b);
            let mut net = network_from_mask::<1>(mask).unwrap();
            net.stabilize();
            for src_lin in [a, b] {
                let src = CycloidId::from_linear(src_lin, dim);
                for key_lin in 0..SLOTS {
                    let key = CycloidId::from_linear(key_lin, dim);
                    let t = net.route_to_id(src, key);
                    assert_eq!(
                        t.outcome,
                        LookupOutcome::Found,
                        "pair ({a},{b}) src {src_lin} key {key_lin}"
                    );
                }
            }
        }
    }
}
