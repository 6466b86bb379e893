//! The batch executor: [`ParallelExecutor`] shards a batch of lookups
//! across workers that step interleaved cursors against one snapshot,
//! then merges the effects in request order.

use super::{apply_effects, CursorStep, SimOverlay, WalkCursor, WalkEffects, WalkScratch};
use crate::lookup::LookupTrace;
use crate::overlay::NodeToken;

/// Walks a worker keeps in flight at once (see [`ParallelExecutor`]).
/// A constant, not a knob: on a cache-resident network eight lanes cost
/// 4 % against one, on a 10⁶-node network they hide about half of a
/// hop's wait for memory (PROFILING.md, "Lookup hot path").
const LANES: usize = 8;

/// A routed request: what [`ParallelExecutor::run`] stores by request
/// position until the merge.
type Routed = Option<(LookupTrace, WalkEffects)>;

/// Deterministic sharded lookup executor: splits a batch of `(src,
/// raw_key)` requests into contiguous chunks, routes every chunk against
/// the *same* membership snapshot (`&T`) — on the calling thread when
/// there is one chunk, on scoped worker threads otherwise — then applies
/// the [`WalkEffects`] in canonical workload order.
///
/// Every worker runs the same loop: eight [`WalkCursor`]s in flight
/// (`LANES`), advanced round-robin one step each, every round preceded
/// by a pass of [`SimOverlay::warm`] over the nodes the lanes stand on.
/// The walks are independent, so the cache misses of one lane's next
/// step overlap the other lanes' instead of being waited out one after
/// another.
///
/// Determinism: fault draws are keyed by the lookup's reserved index
/// (`base + i`), finished walks are stored by request position, query
/// loads are commutative counter increments, and repairs and trace
/// events are applied strictly in request order
/// after all routing is done — so aggregates, load tables, and event
/// streams are bit-identical for any `jobs` value, including 1, and for
/// any order in which the lanes happen to finish.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    jobs: usize,
}

impl ParallelExecutor {
    /// An executor using up to `jobs` worker threads (at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Routes `reqs` (pairs of source token and raw key) and returns
    /// the traces in request order. All walks observe the membership as
    /// it is on entry; effects (query loads, repair-on-use, trace events)
    /// are applied in request order before returning.
    pub fn run<T: SimOverlay + ?Sized>(
        &self,
        net: &mut T,
        reqs: &[(NodeToken, u64)],
    ) -> Vec<LookupTrace> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let base = net
            .membership_mut()
            .net
            .reserve_lookup_indices(reqs.len() as u64);
        let workers = self.jobs.min(reqs.len());
        let chunk = reqs.len().div_ceil(workers);
        let mut routed: Vec<Routed> = Vec::new();
        routed.resize_with(reqs.len(), || None);
        let shared: &T = net;
        // One flat list of visited nodes per shard; a thread only when
        // there is more than one shard.
        let visited: Vec<Vec<NodeToken>> = if workers == 1 {
            vec![route_shard(shared, reqs, base, &mut routed)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = reqs
                    .chunks(chunk)
                    .zip(routed.chunks_mut(chunk))
                    .enumerate()
                    .map(|(i, (slice, out))| {
                        let first = base + (i * chunk) as u64;
                        scope.spawn(move || route_shard(shared, slice, first, out))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lookup worker panicked"))
                    .collect()
            })
        };
        for node in visited.into_iter().flatten() {
            net.membership_mut().store.add_load(node, 1);
        }
        // Canonical merge: `routed` is in request order whatever order
        // the lanes finished in.
        let mut traces = Vec::with_capacity(reqs.len());
        for slot in routed {
            let (trace, fx) = slot.expect("every request was routed");
            apply_effects(net, fx);
            traces.push(trace);
        }
        traces
    }
}

/// One worker of [`ParallelExecutor::run`]: routes `reqs` (fault-draw
/// indices `first_index..`) with [`LANES`] cursors in flight, stores
/// each finished walk at its request's position in `out`, and returns
/// the nodes the walks visited (their query-load increments), in no
/// particular order.
fn route_shard<T: SimOverlay + ?Sized>(
    net: &T,
    reqs: &[(NodeToken, u64)],
    first_index: u64,
    out: &mut [Routed],
) -> Vec<NodeToken> {
    let begin = |pos: usize| {
        let (src, raw_key) = reqs[pos];
        let state = net.begin_walk(src, raw_key);
        let index = first_index + pos as u64;
        let cursor = WalkCursor::begin(net, src, state, true, index, Some(raw_key));
        (pos, cursor)
    };
    let mut waiting = 0..reqs.len();
    let mut lanes: Vec<(usize, WalkCursor<T::Walk>)> =
        waiting.by_ref().take(LANES).map(begin).collect();
    let mut scratch = WalkScratch::default();
    let mut visited = Vec::new();
    while !lanes.is_empty() {
        for (_, cursor) in &lanes {
            net.warm(cursor.current());
        }
        let mut lane = 0;
        while lane < lanes.len() {
            if let CursorStep::Forwarded { .. } = lanes[lane].1.step(net, &mut scratch) {
                lane += 1;
                continue;
            }
            // Refill the lane, or close it: the lane swapped in from the
            // back has not stepped this round, so `lane` stays put.
            let (pos, cursor) = match waiting.next() {
                Some(next) => {
                    let done = std::mem::replace(&mut lanes[lane], begin(next));
                    lane += 1;
                    done
                }
                None => lanes.swap_remove(lane),
            };
            let (trace, mut fx) = cursor.finish();
            visited.extend(std::mem::take(&mut fx.queried));
            out[pos] = Some((trace, fx));
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{DelayModel, FaultPlan, NetConditions, RetryPolicy};
    use crate::obs::Telemetry;
    use crate::overlay::Protocol;
    use crate::sim::fixture::{walk_key, StaleRing};
    use crate::sim::HopRepair;

    /// A 16-node lossy ring with three departures: stale entries,
    /// retries, and repairs all in play.
    fn contested_ring() -> StaleRing {
        let tokens: Vec<u64> = (0..16u64).map(|i| i * 16).collect();
        let mut ring = StaleRing::with_tokens(&tokens, 256);
        for t in [32u64, 96, 208] {
            assert!(ring.leave(t));
        }
        ring.membership_mut().net = NetConditions::new(
            FaultPlan {
                seed: 13,
                loss: 0.25,
                delay: DelayModel::Uniform(500, 1_500),
                duplicate: 0.05,
            },
            RetryPolicy::standard(),
        );
        ring
    }

    /// Everything a batch leaves behind: traces and event stream
    /// (rendered), query loads, and the `repair_on_use` calls.
    type BatchRecord = (Vec<String>, Vec<String>, Vec<u64>, Vec<HopRepair>);

    /// Routes `reqs` on a fresh [`contested_ring`] with telemetry
    /// enabled and records what the batch left behind.
    fn batch_record(
        reqs: &[(NodeToken, u64)],
        route: impl FnOnce(&mut StaleRing, &[(NodeToken, u64)]) -> Vec<LookupTrace>,
    ) -> BatchRecord {
        let mut ring = contested_ring();
        let telemetry = Telemetry::enabled();
        ring.membership_mut().telemetry = telemetry.clone();
        let traces = route(&mut ring, reqs);
        let events = telemetry.read(|r| r.events.clone()).unwrap();
        (
            traces.iter().map(|t| format!("{t:?}")).collect(),
            events.iter().map(|e| format!("{e:?}")).collect(),
            ring.members.store.loads_vec(),
            ring.repair_log,
        )
    }

    /// The executor's contract spelled out without lanes, shards or
    /// threads: one [`WalkCursor::run`] per request against the entry
    /// snapshot, then the effects in request order.
    fn one_cursor_per_request(ring: &mut StaleRing, reqs: &[(NodeToken, u64)]) -> Vec<LookupTrace> {
        let base = ring
            .membership_mut()
            .net
            .reserve_lookup_indices(reqs.len() as u64);
        let walks: Vec<(LookupTrace, WalkEffects)> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(src, key))| {
                let state = ring.begin_walk(src, key);
                WalkCursor::begin(&*ring, src, state, true, base + i as u64, Some(key))
                    .run(&*ring, &mut WalkScratch::default())
            })
            .collect();
        walks
            .into_iter()
            .map(|(trace, fx)| {
                apply_effects(ring, fx);
                trace
            })
            .collect()
    }

    /// Long walks (a source far behind the key) at even positions, walks
    /// that start at the key's owner and stop at once at odd ones — so
    /// lanes finish out of request order and are refilled mid-round.
    fn mixed_requests(len: usize) -> Vec<(NodeToken, u64)> {
        let ring = contested_ring();
        (0..len as u64)
            .map(|k| {
                let key = k * 37 % 256;
                let owner = ring.members.store.successor_of(key).unwrap();
                if k % 2 == 1 {
                    return (owner, key);
                }
                let mut src = owner;
                for _ in 0..3 + k % 7 {
                    src = ring.members.successor_after(src).unwrap();
                }
                (src, key)
            })
            .collect()
    }

    #[test]
    fn lane_loop_matches_one_cursor_per_request() {
        for len in [0, 1, 7, 8, 9, 25] {
            let reqs = mixed_requests(len);
            let want = batch_record(&reqs, one_cursor_per_request);
            for jobs in [1, 3] {
                let got = batch_record(&reqs, |ring, reqs| {
                    ParallelExecutor::new(jobs).run(ring, reqs)
                });
                assert_eq!(want, got, "{len} requests at jobs={jobs}");
            }
            // Stale entries, retries and repairs are all in play.
            if len == 25 {
                assert!(!want.3.is_empty(), "no repair-on-use was exercised");
                assert!(want.1.iter().any(|e| e.starts_with("Retry")));
            }
        }
    }

    #[test]
    fn lanes_finish_out_of_request_order() {
        // What `lane_loop_matches_one_cursor_per_request` leans on: in
        // `mixed_requests` a later request of the same round of lanes
        // needs fewer steps than an earlier one, so its lane is
        // refilled while the earlier walk is still in flight.
        let reqs = mixed_requests(25);
        let traces = ParallelExecutor::new(1).run(&mut contested_ring(), &reqs);
        for pair in traces.chunks_exact(2) {
            assert!(pair[0].path_len() > pair[1].path_len() + 1);
        }
    }

    #[test]
    fn parallel_executor_matches_one_walk_at_a_time() {
        // A batch at any width must also agree with the pre-batch
        // behavior: the same lookups issued one walk at a time.
        let live: Vec<u64> = contested_ring().members.store.tokens();
        let reqs: Vec<(NodeToken, u64)> = (0..32u64)
            .map(|k| (live[k as usize % live.len()], k * 29))
            .collect();
        let mut loop_ring = contested_ring();
        let loop_traces: Vec<LookupTrace> = reqs
            .iter()
            .map(|&(src, key)| walk_key(&mut loop_ring, src, key, true))
            .collect();
        let mut batch_ring = contested_ring();
        let batch_traces = ParallelExecutor::new(4).run(&mut batch_ring, &reqs);
        for (a, b) in loop_traces.iter().zip(&batch_traces) {
            assert_eq!(a.hops, b.hops);
            assert_eq!(a.net, b.net);
        }
        assert_eq!(
            loop_ring.members.store.loads_vec(),
            batch_ring.members.store.loads_vec()
        );
    }
}
