//! Property-based tests of the Koorde de Bruijn invariants.

use dht_core::lookup::LookupOutcome;
use dht_core::overlay::Overlay;
use dht_core::rng::stream;
use dht_core::sim::{Refresh, SimOverlay};
use koorde::{KoordeConfig, KoordeNetwork};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn debruijn_pointer_is_at_or_before_double(seed in any::<u64>(), count in 2usize..150) {
        let net = KoordeNetwork::with_nodes(KoordeConfig::new(10), count, seed);
        let space = 1u64 << 10;
        let live = net.node_tokens();
        for &id in &live {
            let n = net.membership().store.get(id).unwrap();
            // The last live id at or before 2·id, wrapping to the largest.
            let below = live.partition_point(|&t| t <= (2 * id) % space);
            prop_assert_eq!(n.debruijn, live[below.checked_sub(1).unwrap_or(live.len() - 1)]);
            // Backups are the chain of immediate predecessors of d.
            let mut cursor = n.debruijn;
            for &b in &n.debruijn_preds {
                prop_assert_eq!(Some(b), net.membership().predecessor_of(cursor));
                cursor = b;
            }
        }
    }

    #[test]
    fn stable_lookups_converge_at_successor(seed in any::<u64>(), count in 2usize..150) {
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), count, seed);
        let ids: Vec<u64> = net.node_tokens();
        let mut rng = stream(seed, "koorde-prop");
        for i in 0..15 {
            let raw: u64 = rng.gen();
            let k = net.key_of(raw);
            let t = net.lookup(ids[i % ids.len()], raw);
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
            prop_assert_eq!(Some(t.terminal), net.membership().store.successor_of(k));
            prop_assert_eq!(t.timeouts, 0);
        }
    }

    #[test]
    fn best_fit_never_slower_on_average(seed in any::<u64>()) {
        // At equal seed and workload, best-fit de Bruijn starts must not
        // lengthen the mean path.
        let mean = |config: KoordeConfig| {
            let mut net = KoordeNetwork::with_nodes(config, 256, seed);
            let ids: Vec<u64> = net.node_tokens();
            let mut rng = stream(seed, "fit-prop");
            let mut total = 0usize;
            for i in 0..300 {
                total += net.lookup(ids[i % ids.len()], rng.gen()).path_len();
            }
            total as f64 / 300.0
        };
        let basic = mean(KoordeConfig::new(12));
        let fitted = mean(KoordeConfig::with_best_fit(12));
        prop_assert!(fitted <= basic + 0.5, "best-fit {fitted} vs basic {basic}");
    }

    #[test]
    fn no_wrong_owner_ever(seed in any::<u64>(), leaves in 0usize..60) {
        // Even when lookups fail (dead de Bruijn chain), Koorde must never
        // claim a wrong owner.
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), 150, seed);
        let mut rng = stream(seed, "kwrong");
        for _ in 0..leaves {
            if net.len() > 4 {
                let ids: Vec<u64> = net.node_tokens();
                let victim = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
                net.depart(victim, true);
            }
        }
        let ids: Vec<u64> = net.node_tokens();
        for i in 0..25 {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            prop_assert!(
                matches!(t.outcome, LookupOutcome::Found | LookupOutcome::Stuck),
                "unexpected outcome {:?}",
                t.outcome
            );
        }
    }
}
