//! Property-based tests of Pastry's prefix-routing invariants.

use dht_core::lookup::{HopPhase, LookupOutcome};
use dht_core::overlay::Overlay;
use dht_core::rng::stream;
use dht_core::sim::{Refresh, SimOverlay};
use dht_core::store::Pos;
use pastry::{PastryConfig, PastryNetwork};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn table_entries_satisfy_their_definition(seed in any::<u64>(), count in 2usize..150) {
        let net = PastryNetwork::with_nodes(PastryConfig::new(12), count, seed);
        let c = net.config();
        for id in net.node_tokens() {
            let node = net.membership().store.get(id).unwrap();
            for row in 0..c.digits() {
                for col in 0..c.base() {
                    let entry = node.table[(row * c.base() + col) as usize];
                    if let Some(e) = entry {
                        prop_assert!(net.contains(e));
                        prop_assert_eq!(c.shared_prefix(id, e), row);
                        prop_assert_eq!(c.digit(e, row), col);
                    } else {
                        // Empty cells are either the node's own digit or a
                        // genuinely unpopulated prefix block.
                        if c.digit(id, row) != col {
                            prop_assert_eq!(
                                net.resolve_entry(id, row, col, &mut Pos::default()),
                                None,
                                "cell ({},{}) of {} wrongly empty",
                                row,
                                col,
                                id
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn each_finger_hop_extends_the_shared_prefix(seed in any::<u64>(), count in 8usize..200) {
        // The defining property of prefix routing: every table-driven hop
        // matches at least one more digit of the key.
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), count, seed);
        let c = net.config();
        let ids: Vec<u64> = net.node_tokens();
        let mut rng = stream(seed, "pastry-prop");
        for i in 0..10 {
            let raw: u64 = rng.gen();
            let key = net.key_of(raw);
            let t = net.lookup(ids[i % ids.len()], raw);
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
            // Total digit-correcting hops never exceed the digit count.
            let finger_hops = t.hops_in_phase(HopPhase::Finger);
            prop_assert!(
                finger_hops as u32 <= c.digits(),
                "{finger_hops} digit hops for key {key}"
            );
        }
    }

    #[test]
    fn owner_is_numerically_closest(seed in any::<u64>(), count in 2usize..100, key in any::<u64>()) {
        let net = PastryNetwork::with_nodes(PastryConfig::new(12), count, seed);
        let k = net.key_of(key);
        let space = 1u64 << 12;
        let owner = net.owner_of_point(k).unwrap();
        let owner_dist = dht_core::ring::ring_dist(k, owner, space);
        for id in net.node_tokens() {
            prop_assert!(
                dht_core::ring::ring_dist(k, id, space) >= owner_dist,
                "{id} closer to {k} than owner {owner}"
            );
        }
    }

    #[test]
    fn graceful_churn_keeps_lookups_correct(seed in any::<u64>(), leaves in 0usize..30) {
        let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), 100, seed);
        let mut rng = stream(seed, "pastry-churn");
        for _ in 0..leaves {
            if net.len() > 4 {
                let ids: Vec<u64> = net.node_tokens();
                net.depart(ids[(rng.gen::<u64>() % ids.len() as u64) as usize], true);
            }
        }
        let ids: Vec<u64> = net.node_tokens();
        for i in 0..15 {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }
}
