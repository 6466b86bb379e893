//! The uniform simulation interface every overlay implements.
//!
//! The paper evaluates four structured overlays (Cycloid, Viceroy, Koorde,
//! Chord) under identical workloads. [`Overlay`] is the common surface the
//! experiment harness drives: membership changes, key lookups with full
//! traces, stabilization, and the bookkeeping the figures need (key
//! ownership, per-node query loads). Its supertrait [`Protocol`] holds the
//! operations each overlay writes itself; the rest is the substrate's
//! (see [`crate::sim`]).

use std::any::Any;

use rand::RngCore;

use crate::audit::StateAudit;
use crate::corrupt::{CorruptionPlan, CorruptionReport};
use crate::lookup::LookupTrace;
use crate::net::NetConditions;
use crate::obs::Telemetry;
use crate::sim::{LookupCursor, WalkEffects};

/// Opaque, overlay-assigned identity of a live node.
///
/// Each overlay maps its native identifier (Cycloid's `(k, a)` pair,
/// Chord/Koorde's ring point, Viceroy's fixed-point real) into a unique
/// `u64`. Tokens are only meaningful to the overlay that issued them.
pub type NodeToken = u64;

/// The operations each overlay kind supplies itself: its name and key
/// space, its join, leave and failure protocols, and how its routing
/// state is corrupted, repaired and probed. Its supertrait
/// [`StateAudit`] checks that state against the paper's invariants.
///
/// Object-safe, and a supertrait of both [`Overlay`] and
/// [`crate::sim::SimOverlay`], so a `dyn Overlay` answers every method
/// below without this trait in scope; code calling them on a concrete
/// network imports it.
pub trait Protocol: StateAudit {
    /// Human-readable name used in reports ("Cycloid(7)", "Koorde", ...).
    fn name(&self) -> String;

    /// Upper bound on routing-state entries per node (Table 1's
    /// "routing table size" column). `None` for degrees that grow with the
    /// network, like Chord's `O(log n)`.
    fn degree_bound(&self) -> Option<usize>;

    /// Hashes an application key into this overlay's identifier space and
    /// returns the identifier (useful for deterministic workloads).
    fn key_id(&self, raw_key: u64) -> u64;

    /// The live node responsible for `raw_key`, computed from global
    /// knowledge (the ground truth lookups are checked against), or
    /// `None` if the overlay cannot name an owner.
    fn owner_of(&self, raw_key: u64) -> Option<NodeToken>;

    /// A new node joins, bootstrapped per the overlay's join protocol.
    /// Returns its token, or `None` if the identifier space is full.
    fn join(&mut self, rng: &mut dyn RngCore) -> Option<NodeToken>;

    /// Graceful departure of `node`: the node notifies exactly the peers
    /// its protocol says it must (leaf sets for Cycloid, successors and
    /// predecessor for Koorde/Chord, all related nodes for Viceroy), then
    /// leaves. Pointers the protocol does *not* repair go stale until
    /// [`Overlay::stabilize`]. Returns `false` if the token is unknown.
    fn leave(&mut self, node: NodeToken) -> bool;

    /// Ungraceful failure of `node`: it vanishes **without notifying
    /// anyone**, so even the pointers graceful departure would repair
    /// (leaf sets, ring successors) go stale until stabilization. The
    /// paper defers this case ("nodes must notify others before leaving",
    /// §3.4) and flags it as the constant-degree DHTs' weakness (§5); a
    /// protocol that does not distinguish the two leaves gracefully, the
    /// default.
    fn fail(&mut self, node: NodeToken) -> bool {
        self.leave(node)
    }

    /// Seeded, deterministic corruption of routing state — the adversary
    /// half of the self-stabilization contract (see [`crate::corrupt`]):
    /// the plan chooses the victims and the value draws, the overlay maps
    /// its strategy onto its own link layout. Deterministic in
    /// `(current state, plan)`, drawing from no RNG stream. The returned
    /// report says how much damage was actually done.
    fn corrupt_state(&mut self, plan: &CorruptionPlan) -> CorruptionReport;

    /// One node's repair routine: recomputes the routing entries its
    /// stabilizer owns from live membership and returns how many entries
    /// were rewritten. Repair subsumes [`Overlay::stabilize_node`] (the
    /// churn engine fires it *instead of* the stabilizer when repair is
    /// enabled) and must be an exact no-op on healthy state (zero
    /// rewrites, no other state change, no RNG draws), which is what pins
    /// goldens and repair-enabled churn runs byte-identical.
    fn repair_node(&mut self, node: NodeToken) -> u64;

    /// Messages one maintenance pass over `node`'s routing links costs
    /// — the hook behind the Stabilize/Repair/Join/Leave message
    /// conventions (one probe per routing entry the node actually holds;
    /// see [`crate::obs::phase`]). Must not mutate anything or draw from
    /// any RNG stream.
    fn maintenance_msgs(&self, node: NodeToken) -> u64;
}

/// A structured P2P overlay under simulation.
///
/// Implementations are *simulators in the paper's sense*: the whole
/// membership lives in one process, lookups are iterative walks over each
/// node's private routing state, and a "timeout" is an attempt to use a
/// routing-table entry pointing at a departed node.
///
/// This is the dyn-safe face the harness holds as `Box<dyn Overlay>`.
/// Its one impl is the blanket impl over [`crate::sim::SimOverlay`]: the
/// methods below are what the substrate computes, and the per-kind ones
/// come from the [`Protocol`] supertrait.
pub trait Overlay: Protocol {
    /// Number of live nodes.
    fn len(&self) -> usize;

    /// `true` iff no node is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokens of all live nodes, in an overlay-chosen deterministic order.
    fn node_tokens(&self) -> Vec<NodeToken>;

    /// Token of a uniformly random live node.
    fn random_node(&self, rng: &mut dyn RngCore) -> Option<NodeToken>;

    /// Performs one lookup for `raw_key` starting at node `src`, walking
    /// the overlay hop by hop using only per-node routing state. Updates
    /// per-node query-load counters.
    fn lookup(&mut self, src: NodeToken, raw_key: u64) -> LookupTrace;

    /// Performs a batch of independent lookups, returning the traces in
    /// request order. `jobs` is the worker-thread cap; the traces and
    /// every side effect are bit-identical to `jobs == 1` (the batch is
    /// sharded across scoped threads and the effects merged in request
    /// order — see `dht_core::sim::ParallelExecutor`).
    fn lookup_batch(&mut self, reqs: &[(NodeToken, u64)], jobs: usize) -> Vec<LookupTrace>;

    /// One full stabilization round: every node refreshes the routing
    /// entries its stabilizer is responsible for (§3.3.2: "updating cubical
    /// and cyclic neighbors are the responsibility of system stabilization,
    /// as in Chord"), as one ascending run over [`Overlay::node_tokens`].
    fn stabilize(&mut self) {
        let tokens = self.node_tokens();
        self.stabilize_nodes(&tokens);
    }

    /// One node's stabilization routine (§4.4 runs these "at intervals
    /// that are uniformly distributed in the 30 s interval"): a run of
    /// one. Unknown tokens are ignored.
    fn stabilize_node(&mut self, node: NodeToken) {
        self.stabilize_nodes(&[node]);
    }

    /// The stabilization routine of each of `nodes`, in order, as one
    /// *run* (a tick's bucket, a full round's every token): same state
    /// afterwards as refreshing each node on its own, for any order,
    /// repeats and departed tokens included, but each node's ordered
    /// searches start where the last node's ended. Returns the
    /// [`Protocol::maintenance_msgs`] of the run, each node's read just
    /// before its own refresh — 0 while telemetry is off.
    fn stabilize_nodes(&mut self, nodes: &[NodeToken]) -> u64;

    /// Per-node query loads: number of lookup messages each live node has
    /// received (as source, intermediate, or terminal) since the last
    /// [`Overlay::reset_query_loads`]. Order matches
    /// [`Overlay::node_tokens`].
    fn query_loads(&self) -> Vec<u64>;

    /// Zeroes all query-load counters.
    fn reset_query_loads(&mut self);

    /// Total heap bytes of routing/membership state this overlay holds:
    /// the node store (the [`crate::sim::Membership`] store) plus what
    /// the overlay holds beyond its rows (`SimOverlay::heap_beyond_rows`).
    fn state_bytes(&self) -> usize;

    /// Average routing/membership bytes per live node — the scale
    /// sweep's memory-compactness measure. Zero when empty.
    fn bytes_per_node(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            0.0
        } else {
            self.state_bytes() as f64 / n as f64
        }
    }

    /// Replaces the network conditions (fault plan + retry policy) every
    /// subsequent lookup runs under, stored in the overlay's
    /// [`crate::sim::Membership`].
    fn set_net_conditions(&mut self, net: NetConditions);

    /// The telemetry handle lookups record trace events into and every
    /// lookup, stabilization pass, repair, and membership change bills
    /// its costs into (see [`crate::obs`]); disabled until one is
    /// installed. Handles are cheap clones (`Option<Arc<_>>`), so this
    /// returns by value.
    fn telemetry(&self) -> Telemetry;

    /// Installs a telemetry handle. Pass [`Telemetry::disabled`] to
    /// turn recording back off.
    fn set_telemetry(&mut self, telemetry: Telemetry);

    /// `true` iff `node` is live.
    fn contains(&self, node: NodeToken) -> bool;

    /// The concrete overlay as [`Any`], so a suspended
    /// [`LookupCursor`] handed out through `dyn Overlay` can recover
    /// the overlay type it was created from when stepped.
    fn as_any(&self) -> &dyn Any;

    /// Starts a lookup for `raw_key` at the live node `src` and
    /// returns it *suspended* instead of walking it to completion —
    /// the entry point the continuous-time churn engine uses to
    /// interleave in-flight lookups with membership and stabilization
    /// events on the virtual clock. Consumes one lookup index (fault
    /// draws) exactly as [`Overlay::lookup`] would, so an immediately
    /// stepped-to-completion cursor reproduces `lookup` byte for byte.
    ///
    /// Step the cursor while its reply delays elapse, then pass
    /// [`LookupCursor::finish`]'s effects to
    /// [`Overlay::apply_walk_effects`].
    fn lookup_begin(&mut self, src: NodeToken, raw_key: u64) -> Box<dyn LookupCursor>;

    /// Replays a finished cursor's deferred effects (query loads,
    /// repair-on-use, exhaustion accounting, trace events) against the
    /// overlay. Application order across lookups defines the canonical
    /// event stream.
    fn apply_walk_effects(&mut self, fx: WalkEffects);
}

/// Distributes `raw_keys` over the overlay's live nodes by ownership and
/// returns the per-node key counts in `node_tokens()` order — the data
/// behind Figs. 8 and 9.
///
/// An owner token missing from [`Overlay::node_tokens`] (an overlay
/// whose ownership rule momentarily disagrees with its membership, e.g.
/// mid-churn) is skipped rather than attributed to the wrong node.
pub fn key_counts<O: Overlay + ?Sized>(overlay: &O, raw_keys: &[u64]) -> Vec<u64> {
    let tokens = overlay.node_tokens();
    let index: std::collections::HashMap<NodeToken, usize> =
        tokens.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut counts = vec![0u64; tokens.len()];
    for &k in raw_keys {
        if let Some(&i) = overlay.owner_of(k).and_then(|owner| index.get(&owner)) {
            counts[i] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::LookupOutcome;
    use crate::sim::fixture::StaleRing;

    /// A single-node ring (token 7). With `ghost_owner`, `owner_of`
    /// names a token that is not a live node — the inconsistency
    /// `key_counts` must tolerate.
    fn one_node(ghost_owner: bool) -> StaleRing {
        let mut ring = StaleRing::with_tokens(&[7], 16);
        ring.ghost_owner = ghost_owner.then_some(999);
        ring
    }

    #[test]
    fn default_is_empty_uses_len() {
        let o = one_node(false);
        assert!(!o.is_empty());
    }

    #[test]
    fn key_counts_assigns_everything_to_owner() {
        let o = one_node(false);
        let counts = key_counts(&o, &[1, 2, 3, 4, 5]);
        assert_eq!(counts, vec![5]);
    }

    #[test]
    fn key_counts_skips_owner_outside_membership() {
        // Regression: an owner token absent from `node_tokens()` used to
        // panic on the index lookup; it must be skipped instead.
        let o = one_node(true);
        let counts = key_counts(&o, &[1, 2, 3, 4, 5]);
        assert_eq!(counts, vec![0]);
    }

    #[test]
    fn lookup_counts_queries_and_reset_clears() {
        let mut o = one_node(false);
        let t = o.lookup(7, 99);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(o.query_loads(), vec![1]);
        o.reset_query_loads();
        assert_eq!(o.query_loads(), vec![0]);
    }
}
