//! Property-based tests of the storage layer's placement and durability
//! invariants over arbitrary operation sequences.

use cycloid::{CycloidConfig, CycloidNetwork};
use dht_core::overlay::Overlay;
use dht_core::rng::stream;
use kvstore::KvStore;
use proptest::prelude::*;
use rand::Rng;

/// An operation script: each step is (kind, argument-selector).
#[derive(Debug, Clone, Copy)]
enum Op {
    Put,
    Join,
    Leave,
    Fail,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            Just(Op::Put),
            Just(Op::Join),
            Just(Op::Leave),
            Just(Op::Fail),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn placement_invariant_after_any_script(script in ops(), seed in 0u64..500) {
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 80, seed);
        let mut store = KvStore::new(net, 3);
        let mut rng = stream(seed, "kv-script");
        let mut put_count = 0u64;
        let mut crashed = false;
        for op in script {
            match op {
                Op::Put => {
                    store.put(&format!("obj-{put_count}"), vec![put_count as u8]);
                    put_count += 1;
                }
                Op::Join => {
                    let _ = store.join_node(&mut rng);
                }
                Op::Leave => {
                    if store.overlay().len() > 8 {
                        let toks = store.overlay().node_tokens();
                        let victim = toks[(rng.gen::<u64>() % toks.len() as u64) as usize];
                        store.leave_node(victim);
                    }
                }
                Op::Fail => {
                    if store.overlay().len() > 8 {
                        let toks = store.overlay().node_tokens();
                        let victim = toks[(rng.gen::<u64>() % toks.len() as u64) as usize];
                        store.fail_node(victim);
                        crashed = true;
                    }
                }
            }
        }
        if crashed {
            // Crashes lose shards; repair first (and stabilize routing).
            store.stabilize_overlay();
            let _ = store.repair();
        }
        // Invariant: after repair/rebalance, every replica sits at its
        // current owner.
        store.rebalance();
        prop_assert_eq!(store.misplaced(), 0);
        // Graceful-only scripts lose nothing.
        if !crashed {
            prop_assert_eq!(store.object_count() as u64, put_count);
            for i in 0..put_count {
                prop_assert!(
                    store.get(&format!("obj-{i}")).is_some(),
                    "obj-{} unreadable after graceful churn",
                    i
                );
            }
        }
    }

    #[test]
    fn replica_count_is_bounded_by_r_per_object(seed in 0u64..200, objects in 1usize..60) {
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 60, seed);
        let mut store = KvStore::new(net, 3);
        for i in 0..objects {
            store.put(&format!("o{i}"), vec![1]);
        }
        prop_assert!(store.replica_count() <= objects * 3);
        prop_assert_eq!(store.object_count(), objects);
        prop_assert_eq!(store.misplaced(), 0);
    }
}

/// Two identical stores in one process must read alike: same routes,
/// same per-node query loads. (A `HashMap`-ordered shard table picked
/// the lookup source by per-instance hash seed and broke this.)
#[test]
fn get_is_run_stable() {
    let run = || {
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 200, 1);
        let mut store = KvStore::new(net, 3);
        for i in 0..50 {
            store.put(&format!("obj-{i}"), vec![i as u8]);
        }
        let traces: Vec<String> = (0..50)
            .map(|i| store.get(&format!("obj-{i}")).expect("present").trace)
            .map(|trace| format!("{trace:?}"))
            .collect();
        (traces, store.overlay().query_loads())
    };
    assert_eq!(run(), run());
}
