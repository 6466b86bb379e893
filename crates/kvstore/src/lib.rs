//! Replicated key-value storage over any DHT overlay.
//!
//! The Cycloid paper (like Chord, Pastry, Koorde and Viceroy) specifies how
//! *keys map to nodes* and how lookups find the responsible node; an actual
//! application additionally needs the **storage layer**: where the bytes
//! live, how they follow ownership as nodes join and leave, and how they
//! survive crashes. This crate provides that layer over the
//! [`dht_core::Overlay`] trait, so the same store runs on Cycloid, Chord,
//! Koorde or Viceroy:
//!
//! * **Placement** — each object is stored at the owners of `R` derived
//!   keys (`replica 0` is the object's own key; replicas `1..R` are
//!   independent re-hashes, the multiple-hash-function replication scheme
//!   CAN popularized). Overlay-agnostic: no successor-list assumption.
//! * **Migration** — [`KvStore::join_node`] and [`KvStore::leave_node`]
//!   wrap the overlay's churn operations and hand objects over so that
//!   every replica always sits at its current owner (what the Cycloid /
//!   Pastry key-transfer step does during self-organization).
//! * **Repair** — [`KvStore::fail_node`] models a crash (the shard is
//!   *lost*); [`KvStore::repair`] re-derives lost replicas from the
//!   survivors, and the durability tests quantify how many crashes `R`
//!   replicas tolerate.
//!
//! ```
//! use cycloid::{CycloidConfig, CycloidNetwork};
//! use kvstore::KvStore;
//!
//! let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 200, 1);
//! let mut store = KvStore::new(net, 3);
//! store.put("report.pdf", b"contents".to_vec());
//! assert_eq!(store.get("report.pdf").unwrap().value, b"contents");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};

use dht_core::hash::{hash_str, splitmix64};
use dht_core::lookup::LookupTrace;
use dht_core::overlay::{NodeToken, Overlay};
use rand::RngCore;

/// Identifies one stored replica: the object's raw key plus the replica
/// index it was derived for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId {
    /// The object's raw (pre-hash) key.
    pub raw_key: u64,
    /// Replica index in `0..replication`.
    pub index: u32,
}

impl ReplicaId {
    /// The derived key this replica is placed by: replica 0 uses the raw
    /// key itself, replica `i` an independent mix of it.
    #[must_use]
    pub fn placement_key(self) -> u64 {
        if self.index == 0 {
            self.raw_key
        } else {
            splitmix64(self.raw_key ^ (0x5bd1_e995u64 << 32 | u64::from(self.index)))
        }
    }
}

/// Result of a successful read.
#[derive(Debug, Clone)]
pub struct GetResult {
    /// The stored bytes.
    pub value: Vec<u8>,
    /// Which replica served the read (0 = primary).
    pub replica: u32,
    /// The routing trace of the successful lookup.
    pub trace: LookupTrace,
}

/// A replicated key-value store over an overlay network.
///
/// The store owns the overlay: churn must go through
/// [`KvStore::join_node`] / [`KvStore::leave_node`] / [`KvStore::fail_node`]
/// so object placement tracks ownership.
///
/// Both maps are ordered: the read source, re-placement order and
/// [`KvStore::shard_of`] contents are functions of the stored data, not
/// of a per-process hash seed, so two identical stores behave alike.
#[derive(Debug)]
pub struct KvStore<O: Overlay + ?Sized> {
    overlay: Box<O>,
    replication: u32,
    /// Bytes per object.
    objects: BTreeMap<u64, Vec<u8>>,
    /// Shards: which node stores which replicas. Values are object raw
    /// keys + replica indexes; bytes are deduplicated in `objects`.
    shards: BTreeMap<NodeToken, Vec<ReplicaId>>,
}

impl<O: Overlay> KvStore<O> {
    /// Wraps `overlay` with a store keeping `replication >= 1` copies of
    /// each object.
    #[must_use]
    pub fn new(overlay: O, replication: u32) -> Self {
        Self::from_box(Box::new(overlay), replication)
    }
}

impl<O: Overlay + ?Sized> KvStore<O> {
    /// [`KvStore::new`] over an already boxed overlay — in particular the
    /// factory's `Box<dyn Overlay>`.
    #[must_use]
    pub fn from_box(overlay: Box<O>, replication: u32) -> Self {
        assert!(replication >= 1, "need at least one replica");
        Self {
            overlay,
            replication,
            objects: BTreeMap::new(),
            shards: BTreeMap::new(),
        }
    }

    /// Read access to the underlying overlay.
    pub fn overlay(&self) -> &O {
        &self.overlay
    }

    /// Runs one overlay stabilization round (call after crash waves so
    /// routing state catches up with the membership before reads).
    pub fn stabilize_overlay(&mut self) {
        self.overlay.stabilize();
    }

    /// Number of distinct stored objects.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Total replicas currently placed.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.shards.values().map(Vec::len).sum()
    }

    /// Replicas stored at `node` (empty if unknown).
    #[must_use]
    pub fn shard_of(&self, node: NodeToken) -> &[ReplicaId] {
        self.shards.get(&node).map_or(&[], Vec::as_slice)
    }

    fn place(&mut self, replica: ReplicaId) {
        let owner = self
            .overlay
            .owner_of(replica.placement_key())
            .expect("placement on an empty overlay");
        let shard = self.shards.entry(owner).or_default();
        if !shard.contains(&replica) {
            shard.push(replica);
        }
    }

    /// Stores `value` under `name`, placing all replicas at their owners.
    /// Returns the object's raw key.
    pub fn put(&mut self, name: &str, value: Vec<u8>) -> u64 {
        let raw_key = hash_str(name);
        self.put_raw(raw_key, value);
        raw_key
    }

    /// Stores `value` under a pre-hashed key.
    pub fn put_raw(&mut self, raw_key: u64, value: Vec<u8>) {
        self.objects.insert(raw_key, value);
        for index in 0..self.replication {
            self.place(ReplicaId { raw_key, index });
        }
    }

    /// Reads `name` by routing to each replica's owner in turn from an
    /// arbitrary live source, returning the first replica actually present
    /// at the node the lookup terminated on.
    pub fn get(&mut self, name: &str) -> Option<GetResult> {
        self.get_raw(hash_str(name))
    }

    /// Reads by pre-hashed key (see [`KvStore::get`]), from the
    /// smallest-token node holding a shard.
    pub fn get_raw(&mut self, raw_key: u64) -> Option<GetResult> {
        let src = *self.shards.keys().next()?;
        self.get_from(src, raw_key)
    }

    /// Reads starting the lookups at node `src`.
    pub fn get_from(&mut self, src: NodeToken, raw_key: u64) -> Option<GetResult> {
        for index in 0..self.replication {
            let replica = ReplicaId { raw_key, index };
            let trace = self.overlay.lookup(src, replica.placement_key());
            if !trace.outcome.is_success() {
                continue;
            }
            let holds = self
                .shards
                .get(&trace.terminal)
                .is_some_and(|shard| shard.contains(&replica));
            if holds {
                let value = self.objects.get(&raw_key)?.clone();
                return Some(GetResult {
                    value,
                    replica: index,
                    trace,
                });
            }
        }
        None
    }

    /// A node joins through the overlay's join protocol; replicas the
    /// newcomer now owns are handed over to it (the key-transfer step of
    /// every DHT's join).
    pub fn join_node(&mut self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        let newcomer = self.overlay.join(rng)?;
        // Only replicas previously owned by the newcomer's vicinity can
        // move; a full rescan is simplest and exact.
        self.rebalance();
        Some(newcomer)
    }

    /// A node leaves gracefully: it hands its shard to the new owners
    /// before departing.
    pub fn leave_node(&mut self, node: NodeToken) -> bool {
        let shard = self.shards.remove(&node).unwrap_or_default();
        if !self.overlay.leave(node) {
            // Not live: restore and report failure.
            if !shard.is_empty() {
                self.shards.insert(node, shard);
            }
            return false;
        }
        for replica in shard {
            self.place(replica);
        }
        true
    }

    /// A node crashes: its shard is **lost** (no handover). Call
    /// [`KvStore::repair`] to re-derive lost replicas from survivors.
    pub fn fail_node(&mut self, node: NodeToken) -> bool {
        if !self.overlay.fail(node) {
            return false;
        }
        self.shards.remove(&node);
        true
    }

    /// Re-places every replica whose data survives anywhere: lost replicas
    /// are recreated at their current owners from any surviving copy, and
    /// misplaced replicas (ownership moved under churn) are handed to the
    /// right node. Returns the number of objects that are *gone* — every
    /// replica lost.
    pub fn repair(&mut self) -> usize {
        // Survivor set per object.
        let mut alive: HashMap<u64, Vec<u32>> = HashMap::new();
        for shard in self.shards.values() {
            for r in shard {
                alive.entry(r.raw_key).or_default().push(r.index);
            }
        }
        let lost_objects = self
            .objects
            .keys()
            .filter(|k| !alive.contains_key(k))
            .copied()
            .collect::<Vec<_>>();
        for k in &lost_objects {
            self.objects.remove(k);
        }
        // Re-derive every replica of every surviving object and re-place.
        let keys: Vec<u64> = self.objects.keys().copied().collect();
        self.shards.clear();
        for raw_key in keys {
            for index in 0..self.replication {
                self.place(ReplicaId { raw_key, index });
            }
        }
        lost_objects.len()
    }

    /// Moves every replica to its current owner (anti-entropy pass). Does
    /// not recreate lost replicas; see [`KvStore::repair`].
    pub fn rebalance(&mut self) {
        let all: Vec<ReplicaId> = std::mem::take(&mut self.shards)
            .into_values()
            .flatten()
            .collect();
        for replica in all {
            self.place(replica);
        }
    }

    /// Verifies the placement invariant: every replica sits at the node
    /// that currently owns its placement key. Returns the number of
    /// misplaced replicas (0 after a rebalance).
    #[must_use]
    pub fn misplaced(&self) -> usize {
        let mut count = 0;
        for (&node, shard) in &self.shards {
            for r in shard {
                if self.overlay.owner_of(r.placement_key()) != Some(node) {
                    count += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycloid::{CycloidConfig, CycloidNetwork};
    use dht_core::rng::stream;
    use dht_sim::build_overlay;
    use rand::Rng;

    fn store_with(n: usize, replication: u32) -> KvStore<CycloidNetwork> {
        let net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), n, 1);
        KvStore::new(net, replication)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut store = store_with(200, 3);
        for i in 0..100 {
            store.put(&format!("obj-{i}"), format!("value-{i}").into_bytes());
        }
        assert_eq!(store.object_count(), 100);
        for i in 0..100 {
            let got = store.get(&format!("obj-{i}")).expect("present");
            assert_eq!(got.value, format!("value-{i}").into_bytes());
        }
    }

    #[test]
    fn replication_places_r_copies() {
        let mut store = store_with(300, 3);
        store.put("x", b"v".to_vec());
        assert_eq!(store.replica_count(), 3);
        assert_eq!(store.misplaced(), 0);
    }

    #[test]
    fn placement_tracks_ownership_under_graceful_churn() {
        let mut store = store_with(150, 2);
        let mut rng = stream(1, "kv-churn");
        for i in 0..200 {
            store.put(&format!("k{i}"), vec![i as u8]);
        }
        for round in 0..30 {
            if round % 2 == 0 {
                let _ = store.join_node(&mut rng);
            } else {
                let toks = store.overlay().node_tokens();
                let victim = toks[(rng.gen::<u64>() % toks.len() as u64) as usize];
                store.leave_node(victim);
            }
            assert_eq!(store.misplaced(), 0, "round {round}");
        }
        for i in 0..200 {
            let got = store.get(&format!("k{i}")).expect("survives churn");
            assert_eq!(got.value, vec![i as u8]);
        }
    }

    #[test]
    fn crashes_lose_shards_but_replicas_cover() {
        let mut store = store_with(400, 3);
        let mut rng = stream(2, "kv-crash");
        for i in 0..300 {
            store.put(&format!("k{i}"), vec![i as u8, 1]);
        }
        // Crash 20% of the nodes, then repair from survivors.
        for tok in store.overlay().node_tokens() {
            if rng.gen_bool(0.2) {
                store.fail_node(tok);
            }
        }
        store.stabilize_overlay();
        let gone = store.repair();
        // Expected loss = 300 * p^3 = 300 * 0.008 = ~2.4 objects; allow
        // generous slack but require replication to do its job (compare
        // the R = 1 test, which loses ~30%).
        assert!(
            gone <= 15,
            "R=3 should lose ~2 objects at p=0.2, lost {gone}"
        );
        assert_eq!(store.misplaced(), 0);
        let mut readable = 0;
        for i in 0..300 {
            if store.get(&format!("k{i}")).is_some() {
                readable += 1;
            }
        }
        assert_eq!(readable, 300 - gone, "all surviving objects readable");
    }

    #[test]
    fn single_replica_loses_data_on_crash() {
        let mut store = store_with(200, 1);
        let mut rng = stream(3, "kv-single");
        for i in 0..400 {
            store.put(&format!("k{i}"), vec![0]);
        }
        for tok in store.overlay().node_tokens() {
            if rng.gen_bool(0.3) {
                store.fail_node(tok);
            }
        }
        let gone = store.repair();
        assert!(
            gone > 50,
            "R=1 must lose roughly 30% of objects, lost only {gone}"
        );
        assert_eq!(store.object_count(), 400 - gone);
    }

    #[test]
    fn works_over_every_overlay() {
        let mut rng = stream(4, "kv-any");
        for kind in dht_sim::PAPER_KINDS {
            let mut store = KvStore::from_box(build_overlay(kind, 150, 5), 2);
            for i in 0..50 {
                store.put(&format!("o{i}"), vec![i as u8]);
            }
            assert_eq!(store.misplaced(), 0, "{}", kind.label());
            let _ = store.join_node(&mut rng);
            assert_eq!(store.misplaced(), 0, "{} after join", kind.label());
            for i in 0..50 {
                assert!(
                    store.get(&format!("o{i}")).is_some(),
                    "{} lost o{i}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn replica_keys_are_distinct() {
        let r0 = ReplicaId {
            raw_key: 42,
            index: 0,
        };
        let r1 = ReplicaId {
            raw_key: 42,
            index: 1,
        };
        let r2 = ReplicaId {
            raw_key: 42,
            index: 2,
        };
        assert_eq!(r0.placement_key(), 42);
        assert_ne!(r1.placement_key(), r2.placement_key());
        assert_ne!(r1.placement_key(), 42);
    }

    #[test]
    fn get_reports_which_replica_served() {
        let mut store = store_with(300, 3);
        let raw = store.put("file", b"data".to_vec());
        // Crash the primary owner.
        let primary = store
            .overlay()
            .owner_of(
                ReplicaId {
                    raw_key: raw,
                    index: 0,
                }
                .placement_key(),
            )
            .unwrap();
        store.fail_node(primary);
        store.overlay.stabilize();
        let got = store.get("file").expect("replica must serve");
        assert!(got.replica > 0, "primary is gone; a replica must answer");
    }
}
