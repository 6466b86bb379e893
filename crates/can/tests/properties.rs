//! Property-based tests of CAN's geometric invariants.

use can::{CanConfig, CanNetwork, Zone};
use dht_core::audit::{AuditScope, StateAudit};
use dht_core::lookup::LookupOutcome;
use dht_core::overlay::{Overlay, Protocol};
use dht_core::rng::stream;
use dht_core::sim::SimOverlay;
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zones_always_tile_the_torus(seed in any::<u64>(), count in 1usize..120, dims in 1usize..=3) {
        let net = CanNetwork::with_nodes(CanConfig::new(dims), count, seed);
        prop_assert!(net.audit_state(AuditScope::Full).is_clean());
        let total: u128 = net
            .membership().store.tokens()
            .iter()
            .map(|&t| net.membership().store.get(t).unwrap().volume())
            .sum();
        prop_assert_eq!(total, u128::from(net.config().side()).pow(dims as u32));
    }

    #[test]
    fn churn_preserves_the_tiling(seed in any::<u64>(), steps in 1usize..40) {
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 40, seed);
        let mut rng = stream(seed, "can-churn-prop");
        for _ in 0..steps {
            if rng.gen_bool(0.5) {
                let _ = net.join_random_point();
            } else if net.len() > 2 {
                let toks = net.membership().store.tokens();
                net.leave(toks[(rng.gen::<u64>() % toks.len() as u64) as usize]);
            }
        }
        prop_assert!(net.audit_state(AuditScope::Full).is_clean());
        // Every lookup still resolves.
        let toks = net.membership().store.tokens();
        for i in 0..10 {
            let t = net.lookup(toks[i % toks.len()], rng.gen());
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    #[test]
    fn crash_plus_takeover_restores_tiling(seed in any::<u64>(), crashes in 1usize..10) {
        let mut net = CanNetwork::with_nodes(CanConfig::new(2), 50, seed);
        let mut rng = stream(seed, "can-crash-prop");
        for _ in 0..crashes {
            if net.len() > 2 {
                let toks = net.membership().store.tokens();
                net.fail(toks[(rng.gen::<u64>() % toks.len() as u64) as usize]);
            }
        }
        net.stabilize_takeover();
        prop_assert!(net.audit_state(AuditScope::Full).is_clean());
        let toks = net.membership().store.tokens();
        for i in 0..10 {
            let t = net.lookup(toks[i % toks.len()], rng.gen());
            prop_assert_eq!(t.outcome, LookupOutcome::Found);
        }
    }

    #[test]
    fn split_preserves_containment(depth in 0u32..=12, px in 0u64..64, py in 0u64..64) {
        // The zone of the partition at `depth` that holds `p`.
        let p = vec![px, py];
        let mut zone = Zone::full(2, 6);
        for _ in 0..depth {
            let (a, b) = zone.split().unwrap();
            zone = if a.contains(&p) { a } else { b };
        }
        prop_assert!(zone.contains(&p));
        if let Some((a, b)) = zone.split() {
            prop_assert!(a.contains(&p) ^ b.contains(&p));
            prop_assert_eq!(a.volume() + b.volume(), zone.volume());
        } else {
            prop_assert_eq!(zone.volume(), 1);
        }
    }

    #[test]
    fn point_mapping_is_deterministic_and_in_range(raw in any::<u64>(), dims in 1usize..=4) {
        let net = CanNetwork::with_nodes(CanConfig::new(dims), 4, 1);
        let p1 = net.point_of(raw);
        let p2 = net.point_of(raw);
        prop_assert_eq!(&p1, &p2);
        prop_assert_eq!(p1.len(), dims);
        for &c in &p1 {
            prop_assert!(c < net.config().side());
        }
    }
}
