//! A link-table kind's row is two halves (`dht_core::sim::RefreshInto`):
//! the notified half, which join and graceful-leave notifications mend,
//! and the lazy half, which only stabilization mends and
//! `Links::lazy_family` names. On networks damaged by silent failures and
//! by each corruption strategy, for every node:
//! - refreshing the lazy half over a copy of the held row changes only
//!   salts that have a lazy family;
//! - writing the notified half over a copy changes only salts that have
//!   none;
//! - both together write what `refresh_into` writes into a fresh row, so
//!   no link is left out of both halves.

use std::any::Any;
use std::fmt::Debug;

use cycloid_repro::prelude::*;
use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy, Links};
use dht_core::sim::RefreshInto;
use dht_core::store::{Hints, Pos};

/// Nodes per network: the spaces are sized to fit, so links collide,
/// wrap and run into empty blocks and cycles.
const N: usize = 300;

/// Every entry of node `own`'s `row` as (salt, value), by ascending salt.
fn entries<S: Links>(own: u64, row: &S) -> Vec<(u64, Option<S::Id>)> {
    let mut all = Vec::new();
    row.clone().rewrite_links(own, &mut |salt, cur| {
        all.push((salt, cur));
        cur
    });
    all
}

/// The salts at which node `own`'s rows `a` and `b` differ: a changed
/// value, or an entry only one side has.
fn differing_salts<S: Links>(own: u64, a: &S, b: &S) -> Vec<u64> {
    let (a, b) = (entries(own, a), entries(own, b));
    let at = |side: &[(u64, Option<S::Id>)], salt| side.iter().find(|e| e.0 == salt).map(|e| e.1);
    let mut salts: Vec<u64> = a.iter().chain(&b).map(|e| e.0).collect();
    salts.sort_unstable();
    salts.dedup();
    salts.retain(|&salt| at(&a, salt) != at(&b, salt));
    salts
}

/// Damages a fresh `kind` network in every way and checks each node's
/// halves, and that each half mended some entry over all damages.
fn check_halves<T>(kind: OverlayKind)
where
    T: RefreshInto + Any,
    T::State: Links + Debug,
{
    let mut damages: Vec<Option<CorruptionStrategy>> = vec![None];
    damages.extend(CorruptionStrategy::ALL.map(Some));
    let (mut lazy, mut notified) = (0, 0);
    for damage in damages {
        let what = format!("{} {damage:?}", kind.label());
        let mut net = build_overlay(kind, N, 53);
        match damage {
            None => {
                for t in net.node_tokens().into_iter().step_by(10) {
                    assert!(net.fail(t), "{what}");
                }
            }
            Some(strategy) => {
                let report = net.corrupt_state(&CorruptionPlan::new(strategy, 0.5, 7));
                assert!(report.corrupted_nodes > 0, "{what}: no damage done");
            }
        }
        let net: &T = net
            .as_any()
            .downcast_ref()
            .expect("the kind's network type");
        for (node, held) in net.membership().store.iter() {
            let mut halves = held.clone();
            net.refresh_lazy(node, &mut Hints::default(), &mut halves);
            for salt in differing_salts(node, held, &halves) {
                assert!(
                    T::State::lazy_family(salt).is_some(),
                    "{what}: node {node}'s lazy half wrote notified link {salt:#x}"
                );
                lazy += 1;
            }

            let mut copy = held.clone();
            let links = net.notified_half(node, &mut Pos::default());
            T::store_notified(&mut copy, links);
            for salt in differing_salts(node, held, &copy) {
                assert!(
                    T::State::lazy_family(salt).is_none(),
                    "{what}: node {node}'s notified half wrote lazy link {salt:#x}"
                );
                notified += 1;
            }

            T::store_notified(&mut halves, net.notified_half(node, &mut Pos::default()));
            let mut fresh = T::State::default();
            assert!(net.refresh_into(node, &mut Hints::default(), &mut fresh));
            assert_eq!(halves, fresh, "{what}: node {node}");
        }
    }
    assert!(
        lazy > 0 && notified > 0,
        "{}: the lazy half mended {lazy} entries, the notified half {notified}",
        kind.label()
    );
}

#[test]
fn each_half_writes_only_its_own_links() {
    check_halves::<ChordNetwork>(OverlayKind::Chord);
    check_halves::<KoordeNetwork>(OverlayKind::Koorde);
    check_halves::<KoordeNetwork>(OverlayKind::KoordeBestFit);
    check_halves::<PastryNetwork>(OverlayKind::Pastry);
    check_halves::<CycloidNetwork<1>>(OverlayKind::Cycloid7);
    check_halves::<CycloidNetwork<2>>(OverlayKind::Cycloid11);
}
