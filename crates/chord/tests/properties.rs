//! Property-based tests of the Chord ring invariants.

use chord::{ChordConfig, ChordNetwork};
use dht_core::lookup::LookupOutcome;
use dht_core::overlay::Overlay;
use dht_core::ring::in_interval_oc;
use dht_core::rng::stream;
use dht_core::sim::{Refresh, SimOverlay};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ring_pointers_form_a_single_cycle(seed in any::<u64>(), count in 2usize..150) {
        let net = ChordNetwork::with_nodes(ChordConfig::new(10), count, seed);
        // Following successors from any node visits every node exactly
        // once before returning.
        let start = net.node_tokens()[0];
        let mut cur = start;
        let mut visited = std::collections::HashSet::new();
        loop {
            prop_assert!(visited.insert(cur), "successor cycle revisited {cur}");
            cur = net.membership().store.get(cur).unwrap().successor();
            if cur == start {
                break;
            }
        }
        prop_assert_eq!(visited.len(), count);
    }

    #[test]
    fn fingers_are_successors_of_their_targets(seed in any::<u64>(), count in 2usize..120) {
        let net = ChordNetwork::with_nodes(ChordConfig::new(10), count, seed);
        let space = 1u64 << 10;
        for id in net.node_tokens() {
            let node = net.membership().store.get(id).unwrap();
            for (i, &f) in node.fingers.iter().enumerate() {
                let target = (id + (1u64 << i)) % space;
                prop_assert_eq!(Some(f), net.membership().store.successor_of(target));
            }
        }
    }

    #[test]
    fn owner_partition_is_the_arc_to_the_predecessor(seed in any::<u64>(), count in 2usize..100, key in any::<u64>()) {
        let net = ChordNetwork::with_nodes(ChordConfig::new(12), count, seed);
        let space = 1u64 << 12;
        let k = net.key_of(key);
        let owner = net.membership().store.successor_of(k).unwrap();
        let pred = net.membership().predecessor_of(owner).unwrap();
        prop_assert!(in_interval_oc(k, pred, owner, space));
    }

    #[test]
    fn lookups_reach_owner_after_arbitrary_graceful_churn(seed in any::<u64>(), leaves in 0usize..40) {
        let mut net = ChordNetwork::with_nodes(ChordConfig::new(11), 120, seed);
        let mut rng = stream(seed, "chord-prop");
        for _ in 0..leaves {
            if net.len() > 4 {
                let ids: Vec<u64> = net.node_tokens();
                let victim = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
                net.depart(victim, true);
            }
        }
        let ids: Vec<u64> = net.node_tokens();
        for i in 0..20 {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }
}
