//! Property-based tests of the Viceroy butterfly invariants.

use dht_core::lookup::LookupOutcome;
use dht_core::overlay::{Overlay, Protocol};
use dht_core::rng::stream;
use dht_core::sim::SimOverlay;
use proptest::prelude::*;
use rand::Rng;
use viceroy::{ViceroyConfig, ViceroyNetwork};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn levels_respect_the_estimate_range(seed in any::<u64>(), count in 2usize..400) {
        let net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), count, seed);
        let max = ViceroyNetwork::level_range_for(count);
        for id in net.node_tokens() {
            let l = net.membership().store.get(id).unwrap().level;
            prop_assert!(l >= 1 && l <= max);
        }
    }

    #[test]
    fn links_are_always_live(seed in any::<u64>(), count in 3usize..200) {
        // Lazily resolved links model eager full repair: every resolved
        // link must be a live node, and up/down links must be at the
        // adjacent level.
        let net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), count, seed);
        for id in net.node_tokens() {
            let level = net.membership().store.get(id).unwrap().level;
            for link in [net.succ_link(id), net.pred_link(id), net.level_next_link(id)]
                .into_iter()
                .flatten()
            {
                prop_assert!(net.contains(link));
            }
            if let Some(up) = net.up_link(id) {
                prop_assert_eq!(net.membership().store.get(up).unwrap().level, level - 1);
            }
            for down in [net.down_left_link(id), net.down_right_link(id)].into_iter().flatten() {
                prop_assert_eq!(net.membership().store.get(down).unwrap().level, level + 1);
            }
        }
    }

    #[test]
    fn lookups_find_successors_with_zero_timeouts(seed in any::<u64>(), count in 2usize..300) {
        let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), count, seed);
        let ids: Vec<u64> = net.node_tokens();
        let mut rng = stream(seed, "vic-prop");
        for i in 0..15 {
            let raw: u64 = rng.gen();
            let k = net.key_of(raw);
            let t = net.lookup(ids[i % ids.len()], raw);
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
            prop_assert_eq!(t.timeouts, 0, "Viceroy never times out");
            prop_assert_eq!(Some(t.terminal), net.membership().store.successor_of(k));
        }
    }

    #[test]
    fn churn_preserves_correctness_without_stabilization(seed in any::<u64>(), steps in 1usize..40) {
        // Viceroy's always-repaired links: correctness holds mid-churn
        // with no stabilization calls at all.
        let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 100, seed);
        let mut rng = stream(seed, "vic-churn-prop");
        for _ in 0..steps {
            if rng.gen_bool(0.5) {
                let _ = net.join(&mut rng);
            } else if net.len() > 4 {
                let ids: Vec<u64> = net.node_tokens();
                net.leave(ids[(rng.gen::<u64>() % ids.len() as u64) as usize]);
            }
            let ids: Vec<u64> = net.node_tokens();
            let t = net.lookup(ids[0], rng.gen());
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }
}
