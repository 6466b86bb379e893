//! The node arena: [`Membership`] is a [`CompactStore`] plus the three
//! things every overlay keeps next to its nodes — the identifier
//! allocator, the network conditions and the telemetry handle.

use crate::hash::IdAllocator;
use crate::inline::InlineVec;
use crate::net::NetConditions;
use crate::obs::Telemetry;
use crate::overlay::NodeToken;
use crate::store::{CompactStore, Pos};

/// The node arena shared by every overlay simulator: live node states
/// keyed by [`NodeToken`] with their query-load counters (the `store`),
/// the deterministic identifier allocator used by joins, and the
/// per-overlay network conditions and telemetry handle.
///
/// Reads and writes of nodes and loads go to the `store` directly, by
/// its own names; the methods here are only those that compute
/// something from it. Iteration is always in ascending token order,
/// which makes every derived quantity (load vectors, token lists,
/// tie-breaks) independent of insertion history.
#[derive(Debug, Clone)]
pub struct Membership<S> {
    /// The node store: states, query loads, the token order, positions
    /// ([`Pos`]) and hinted searches.
    pub store: CompactStore<S>,
    alloc: IdAllocator,
    /// The network conditions lookups run under; the walk engine takes
    /// lookup indices (the fault-draw keys) from it. Outside the crate,
    /// this and the handle below are set through `Overlay` only.
    pub(crate) net: NetConditions,
    /// The handle the walk engine and maintenance drivers record trace
    /// events and per-phase costs into (see [`crate::obs`]); disabled
    /// by default.
    pub(crate) telemetry: Telemetry,
}

impl<S> Membership<S> {
    /// Empty membership whose identifier allocator is seeded with
    /// `seed`. Network conditions start ideal (no message faults) and
    /// telemetry starts disabled.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            store: CompactStore::new(),
            alloc: IdAllocator::new(seed),
            net: NetConditions::ideal(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Draws a fresh raw identifier from the allocator.
    pub fn next_raw(&mut self) -> u64 {
        self.alloc.next_raw()
    }

    /// Draws a fresh identifier uniform in `[0, space)`.
    pub fn next_in(&mut self, space: u64) -> u64 {
        self.alloc.next_in(space)
    }

    // ------------------------------------------------------------------
    // Wrapping ring searches over the token order
    // ------------------------------------------------------------------

    /// First live token `> point`, wrapping to the smallest.
    #[must_use]
    pub fn successor_after(&self, point: u64) -> Option<NodeToken> {
        match point.checked_add(1) {
            Some(next) => self.store.successor_of(next),
            None => self.store.first_token(),
        }
    }

    /// Last live token `< point`, wrapping to the largest.
    #[must_use]
    pub fn predecessor_of(&self, point: u64) -> Option<NodeToken> {
        let at = self.store.predecessor_from(&mut Pos::default(), point)?;
        Some(self.store.token_at(at))
    }

    /// Ring pointers of position `id`: the live predecessor and the `r`
    /// live successors, nearest first (wrapping, so a small ring repeats).
    /// One search, from `hint`, for `id`'s own place in the order; the
    /// rest are steps. `None` on an empty ring.
    pub fn ring_pointers<const N: usize>(
        &self,
        id: u64,
        r: usize,
        hint: &mut Pos,
    ) -> Option<(NodeToken, InlineVec<NodeToken, N>)> {
        let at = self.store.successor_from(hint, id)?;
        let pred = self.store.token_at(self.store.prev(at));
        // A live `id` is not its own nearest successor.
        let live = self.store.token_at(at) == id;
        let mut cursor = if live { self.store.next(at) } else { at };
        let mut succs = InlineVec::new();
        for _ in 0..r {
            succs.push(self.store.token_at(cursor));
            cursor = self.store.next(cursor);
        }
        Some((pred, succs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CHUNK_CAP;
    use proptest::prelude::*;
    use rand::RngCore;
    use std::collections::BTreeMap;
    use std::ops::Bound::{Excluded, Unbounded};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn membership_tracks_loads_in_lockstep() {
        let mut m: Membership<()> = Membership::new(1);
        m.store.insert(5, ());
        m.store.insert(2, ());
        m.store.insert(9, ());
        assert_eq!(m.store.tokens(), vec![2, 5, 9]);
        assert_eq!(m.store.loads_vec(), vec![0, 0, 0]);
        m.store.add_load(5, 1);
        m.store.add_load(5, 1);
        m.store.add_load(7, 1); // untracked: no-op
        assert_eq!(m.store.loads_vec(), vec![0, 2, 0]);
        assert!(m.store.remove(5).is_some());
        assert_eq!(m.store.loads_vec(), vec![0, 0], "counter departs with node");
        m.store.insert(5, ());
        assert_eq!(m.store.load_of(5), 0, "rejoin starts at zero");
        m.store.reset_loads();
        assert_eq!(m.store.loads_total(), 0);
    }

    #[test]
    fn ring_searches_wrap() {
        let mut m: Membership<()> = Membership::new(2);
        for t in [10u64, 20, 30] {
            m.store.insert(t, ());
        }
        assert_eq!(m.store.successor_of(20), Some(20));
        assert_eq!(m.store.successor_of(31), Some(10), "wraps forward");
        assert_eq!(m.successor_after(30), Some(10));
        assert_eq!(m.successor_after(u64::MAX), Some(10));
        assert_eq!(m.predecessor_of(10), Some(30), "wraps backward");
        let at_or_before = |point| {
            let at = m.store.at_or_before_from(&mut Pos::default(), point);
            at.map(|p| m.store.token_at(p))
        };
        assert_eq!(at_or_before(20), Some(20));
        assert_eq!(at_or_before(5), Some(30), "wraps backward");
    }

    #[test]
    fn ring_pointers_on_small_and_wrapping_rings() {
        let ring = |tokens: &[u64]| {
            let mut m: Membership<()> = Membership::new(3);
            for &t in tokens {
                m.store.insert(t, ());
            }
            m
        };
        let empty = ring(&[]);
        assert_eq!(empty.ring_pointers::<4>(5, 3, &mut Pos::default()), None);

        // One node is its own predecessor and every successor.
        let one = ring(&[7]);
        assert_eq!(
            one.ring_pointers::<4>(7, 3, &mut Pos::default()),
            Some((7, vec![7; 3].into()))
        );

        // Two nodes: the successor list alternates.
        let two = ring(&[7, 40]);
        assert_eq!(
            two.ring_pointers::<4>(7, 3, &mut Pos::default()),
            Some((40, vec![40, 7, 40].into()))
        );

        // Wrap-around at both ends of the space.
        let m = ring(&[0, 10, 20, 50, 60]);
        assert_eq!(
            m.ring_pointers::<4>(60, 3, &mut Pos::default()),
            Some((50, vec![0, 10, 20].into()))
        );
        assert_eq!(
            m.ring_pointers::<4>(0, 2, &mut Pos::default()),
            Some((60, vec![10, 20].into()))
        );
    }

    /// One step of a membership script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Inserts the token; when it is already live the insert must
        /// panic and change nothing.
        Insert(u64),
        Remove(u64),
        /// Overwrites one state through `get_mut`.
        Set(u64),
        AddLoad(u64, u64),
        ResetLoads,
        /// Rewrites every state through `state_at_mut`, position by
        /// position from the first.
        Rewrite,
        /// Asks the hinted searches about a point, starting from the hint.
        Seek(u64, Hint),
        /// Keeps the last answer's position as the stale hint.
        Keep,
    }

    /// Where a hinted search starts.
    #[derive(Debug, Clone, Copy)]
    enum Hint {
        /// Where the last hinted search ended.
        Last,
        /// A position kept since before whatever the script did next.
        Stale,
        /// Anything at all.
        Any(u32, u32),
    }

    /// The positions a script carries from step to step.
    #[derive(Default)]
    struct Kept {
        last: Pos,
        stale: Pos,
    }

    /// The reference: token → (state, query load) in a plain `BTreeMap`.
    type Model = BTreeMap<u64, (u64, u64)>;

    /// Applies `op` to both sides and compares what the write returns.
    /// `step` is the state value an insert or overwrite stores.
    fn apply(m: &mut Membership<u64>, model: &mut Model, op: Op, step: u64, kept: &mut Kept) {
        match op {
            Op::Seek(point, hint) => {
                let from = match hint {
                    Hint::Last => kept.last,
                    Hint::Stale => kept.stale,
                    Hint::Any(chunk, index) => Pos { chunk, index },
                };
                kept.last = check_hinted(m, model, point, from);
            }
            Op::Keep => kept.stale = kept.last,
            Op::Insert(t) if model.contains_key(&t) => {
                let dup = catch_unwind(AssertUnwindSafe(|| m.store.insert(t, step)));
                assert!(dup.is_err(), "duplicate insert of {t} did not panic");
            }
            Op::Insert(t) => {
                m.store.insert(t, step);
                model.insert(t, (step, 0));
            }
            Op::Remove(t) => {
                let want = model.remove(&t).map(|(state, _)| state);
                assert_eq!(m.store.remove(t), want, "remove({t})");
            }
            Op::Set(t) => {
                let ours = m.store.get_mut(t).map(|s| *s = step);
                let theirs = model.get_mut(&t).map(|(s, _)| *s = step);
                assert_eq!(ours, theirs, "get_mut({t})");
            }
            Op::AddLoad(t, k) => {
                m.store.add_load(t, k);
                if let Some((_, load)) = model.get_mut(&t) {
                    *load += k;
                }
            }
            Op::ResetLoads => {
                m.store.reset_loads();
                model.values_mut().for_each(|(_, load)| *load = 0);
            }
            Op::Rewrite => {
                let rewrite = |i: usize, s: &mut u64| *s = s.wrapping_mul(31) + i as u64;
                let mut pos = Pos::default();
                for i in 0..m.store.len() {
                    rewrite(i, m.store.state_at_mut(pos));
                    pos = m.store.next(pos);
                }
                let states = model.values_mut().map(|(s, _)| s);
                states.enumerate().for_each(|(i, s)| rewrite(i, s));
            }
        }
    }

    /// What the model says the wrapping searches answer at `p`: first
    /// token `>= p`, first `> p`, last `< p`, last `<= p`.
    fn model_reads(model: &Model, p: u64) -> [Option<u64>; 4] {
        let token = |(&t, _): (&u64, &(u64, u64))| t;
        let first = model.keys().next().copied();
        let last = model.keys().next_back().copied();
        let after = model.range((Excluded(p), Unbounded)).next();
        [
            model.range(p..).next().map(token).or(first),
            after.map(token).or(first),
            model.range(..p).next_back().map(token).or(last),
            model.range(..=p).next_back().map(token).or(last),
        ]
    }

    /// The three hinted searches at `p`, each started from `hint`, equal
    /// the model whatever `hint` is. Returns where the first one ended.
    fn check_hinted(m: &Membership<u64>, model: &Model, p: u64, hint: Pos) -> Pos {
        let [succ, _, pred, aob] = model_reads(model, p);
        let store = &m.store;
        let mut end = hint;
        let got = store
            .successor_from(&mut end, p)
            .map(|at| store.token_at(at));
        assert_eq!(got, succ, "successor_from({hint:?}, {p})");
        let got = store.predecessor_from(&mut { hint }, p);
        let got = got.map(|at| store.token_at(at));
        assert_eq!(got, pred, "predecessor_from({hint:?}, {p})");
        let got = store.at_or_before_from(&mut { hint }, p);
        let got = got.map(|at| store.token_at(at));
        assert_eq!(got, aob, "at_or_before_from({hint:?}, {p})");
        let live = store
            .position_of(&mut { hint }, p)
            .map(|at| store.token_at(at));
        assert_eq!(live, model.contains_key(&p).then_some(p), "position_of");
        end
    }

    /// Compares every public read of `m` with the model. `points` are
    /// the positions the per-token reads and ordered searches are asked
    /// about, ascending.
    fn check_reads(m: &Membership<u64>, model: &Model, points: &[u64]) {
        m.store.check_invariants();
        let tokens: Vec<u64> = model.keys().copied().collect();
        assert_eq!(m.store.len(), model.len());
        assert_eq!(m.store.is_empty(), model.is_empty());
        assert_eq!(m.store.tokens(), tokens);
        assert_eq!(m.store.token_iter().collect::<Vec<_>>(), tokens);
        assert_eq!(m.store.first_token(), tokens.first().copied());
        for (i, &t) in tokens.iter().enumerate() {
            assert_eq!(m.store.nth_token(i), Some(t), "nth_token({i})");
        }
        assert_eq!(m.store.nth_token(tokens.len()), None);
        let pairs: Vec<(u64, u64)> = model.iter().map(|(&t, &(s, _))| (t, s)).collect();
        assert_eq!(
            m.store.iter().map(|(t, &s)| (t, s)).collect::<Vec<_>>(),
            pairs
        );
        let states: Vec<u64> = model.values().map(|&(s, _)| s).collect();
        assert_eq!(m.store.states().copied().collect::<Vec<_>>(), states);
        let loads: Vec<u64> = model.values().map(|&(_, load)| load).collect();
        assert_eq!(m.store.loads_vec(), loads);
        assert_eq!(m.store.loads_total(), loads.iter().sum::<u64>());

        // One hint carried along the ascending points, as a run carries it.
        let mut run = Pos::default();
        for &p in points {
            assert_eq!(m.store.contains(p), model.contains_key(&p), "contains({p})");
            assert_eq!(m.store.get(p), model.get(&p).map(|(s, _)| s), "get({p})");
            let load = model.get(&p).map_or(0, |&(_, load)| load);
            assert_eq!(m.store.load_of(p), load, "load_of({p})");
            let [succ, after, pred, _] = model_reads(model, p);
            assert_eq!(m.store.successor_of(p), succ, "successor_of({p})");
            assert_eq!(m.successor_after(p), after, "successor_after({p})");
            assert_eq!(m.predecessor_of(p), pred, "predecessor_of({p})");
            run = check_hinted(m, model, p, run);
        }
    }

    /// The tokens random scripts draw from: a dense low run, so that
    /// inserts collide and removals hit, and the top of the `u64` range.
    fn palette(i: u64) -> u64 {
        if i < 24 {
            3 * i
        } else {
            u64::MAX - 5 * (27 - i)
        }
    }

    /// `tokens` and both neighbours of each, ascending.
    fn around(tokens: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut points: Vec<u64> = tokens
            .flat_map(|t| [t.wrapping_sub(1), t, t.wrapping_add(1)])
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    /// Hints of every kind; the made-up ones are mostly near the one
    /// chunk a palette store has, sometimes anywhere.
    fn hint_strategy() -> impl Strategy<Value = Hint> {
        prop_oneof![
            Just(Hint::Last),
            Just(Hint::Stale),
            (0u32..3, 0u32..40).prop_map(|(c, i)| Hint::Any(c, i)),
            (any::<u32>(), any::<u32>()).prop_map(|(c, i)| Hint::Any(c, i)),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let token = || (0u64..28).prop_map(palette);
        prop_oneof![
            token().prop_map(Op::Insert),
            token().prop_map(Op::Insert),
            token().prop_map(Op::Remove),
            token().prop_map(Op::Remove),
            token().prop_map(Op::Set),
            (token(), 1u64..9).prop_map(|(t, k)| Op::AddLoad(t, k)),
            (token(), 1u64..9).prop_map(|(t, k)| Op::AddLoad(t, k)),
            Just(Op::ResetLoads),
            Just(Op::Rewrite),
            Just(Op::Keep),
            (token(), hint_strategy()).prop_map(|(t, h)| Op::Seek(t, h)),
            (token(), hint_strategy()).prop_map(|(t, h)| Op::Seek(t.wrapping_add(1), h)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one reference for the store: an arbitrary script of
        /// inserts, removals, overwrites and load updates leaves
        /// `Membership` and a `BTreeMap` agreeing on every public read
        /// after every step — the hinted searches
        /// among them, from the last answer, from a position kept across
        /// any number of writes, and from positions that never existed.
        #[test]
        fn membership_matches_btreemap_model(
            script in proptest::collection::vec(op_strategy(), 0..80),
        ) {
            let points = around((0..28).map(palette));
            let mut m: Membership<u64> = Membership::new(1);
            let mut model = Model::new();
            let mut kept = Kept::default();
            check_reads(&m, &model, &points);
            for (step, &op) in script.iter().enumerate() {
                apply(&mut m, &mut model, op, step as u64, &mut kept);
                check_reads(&m, &model, &points);
            }
        }
    }

    /// A hinted search at step `step` of a long script: about a token the
    /// script uses, from each kind of hint in turn, the made-up ones
    /// spread over the first few chunks and past the end of any.
    fn seek_op(script: &[u64], step: usize) -> Op {
        let mix = crate::hash::splitmix64(step as u64);
        let hint = match step % 3 {
            0 => Hint::Last,
            1 => Hint::Stale,
            _ => Hint::Any(
                (mix % 8) as u32,
                (mix >> 8) as u32 % (CHUNK_CAP as u32 + 64),
            ),
        };
        Op::Seek(script[(step * 7) % script.len()] + mix % 2, hint)
    }

    /// The same comparison across chunk boundaries: a toggling script
    /// grows the store past two full chunks (so chunks split in the
    /// middle of the order), then removals from the front drain whole
    /// chunks until nothing is left. Hinted searches run at every step,
    /// their stale hint kept across ~100 writes at a time.
    #[test]
    fn model_holds_across_chunk_splits_and_drains() {
        let mut rng = crate::rng::stream(42, "membership-model");
        let script: Vec<u64> = (0..9_000).map(|_| rng.next_u64() % 6_000).collect();
        let points = around(script.iter().step_by(150).copied());
        let mut m: Membership<u64> = Membership::new(1);
        let mut model = Model::new();
        let mut kept = Kept::default();
        let mut peak = 0;
        for (step, &t) in script.iter().enumerate() {
            let op = if model.contains_key(&t) {
                Op::Remove(t)
            } else {
                Op::Insert(t)
            };
            apply(&mut m, &mut model, op, step as u64, &mut kept);
            apply(
                &mut m,
                &mut model,
                Op::AddLoad(script[step / 2], 1),
                0,
                &mut kept,
            );
            apply(&mut m, &mut model, seek_op(&script, step), 0, &mut kept);
            if step % 97 == 0 {
                apply(&mut m, &mut model, Op::Keep, 0, &mut kept);
            }
            peak = peak.max(m.store.len());
            if step % 500 == 0 {
                check_reads(&m, &model, &points);
            }
        }
        assert!(
            peak > 2 * CHUNK_CAP,
            "only {peak} nodes: no chunk ever split"
        );
        check_reads(&m, &model, &points);
        for (step, t) in m.store.tokens().into_iter().enumerate() {
            apply(&mut m, &mut model, Op::Remove(t), 0, &mut kept);
            apply(&mut m, &mut model, seek_op(&script, step), 0, &mut kept);
            if step % 500 == 0 {
                check_reads(&m, &model, &points);
            }
        }
        assert!(m.store.is_empty());
        check_reads(&m, &model, &points);
    }

    /// The counts a bulk build is tried at: empty, tiny, either side of
    /// the ⅞-full chunk `fill` lays and of a full one, and three chunks.
    const FILL_COUNTS: [usize; 9] = [
        0,
        1,
        2,
        CHUNK_CAP / 8 * 7 - 1,
        CHUNK_CAP / 8 * 7 + 1,
        CHUNK_CAP - 1,
        CHUNK_CAP,
        CHUNK_CAP + 1,
        3 * CHUNK_CAP,
    ];

    /// The state a bulk-built node starts with.
    fn state_of(token: u64) -> u64 {
        crate::hash::splitmix64(token)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `CompactStore::fill` builds the store that inserting the same
        /// draws builds, skipping the live ones: it takes as many draws,
        /// answers every read alike (hinted searches from made-up
        /// positions among them), holds the same heap below one full
        /// chunk, creates the states in token order and leaves the slab in
        /// token order. Draws repeat, over a space a little larger than
        /// `count` whose low tokens are the script palette's. The palette's
        /// scripts then run on the bulk-built store as on any other.
        #[test]
        fn fill_builds_what_inserting_the_draws_builds(
            count in (0..FILL_COUNTS.len()).prop_map(|i| FILL_COUNTS[i]),
            seed in any::<u64>(),
            spare in 0u64..64,
            seeks in proptest::collection::vec((any::<u64>(), 0u32..6, 0u32..1100), 0..24),
            script in proptest::collection::vec(op_strategy(), 0..24),
        ) {
            let space = count as u64 + spare;
            let draw_at = |i: u64| 3 * (crate::hash::splitmix64(seed ^ i) % space);
            let mut inserted: Membership<u64> = Membership::new(1);
            let mut model = Model::new();
            let mut draws = 0;
            while inserted.store.len() < count {
                let t = draw_at(draws);
                draws += 1;
                if !inserted.store.contains(t) {
                    inserted.store.insert(t, state_of(t));
                    model.insert(t, (state_of(t), 0));
                }
            }
            let mut m: Membership<u64> = Membership::new(1);
            let (mut calls, mut created) = (0, Vec::new());
            let draw = || {
                calls += 1;
                draw_at(calls - 1)
            };
            m.store = CompactStore::fill(count, draw, |t| {
                created.push(t);
                state_of(t)
            });
            prop_assert_eq!(calls, draws, "draws taken");
            prop_assert_eq!(created, inserted.store.tokens(), "states not made in token order");
            prop_assert!(m.store.slab_is_ordered(), "slots do not ascend");
            if count < CHUNK_CAP {
                prop_assert_eq!(m.store.heap_bytes(), inserted.store.heap_bytes());
            }
            let drawn = model.keys().copied().step_by((count / 64).max(1));
            let points = around((0..28).map(palette).chain(drawn));
            check_reads(&inserted, &model, &points);
            check_reads(&m, &model, &points);
            for &(x, chunk, index) in &seeks {
                check_hinted(&m, &model, x % (3 * space + 3), Pos { chunk, index });
            }
            let mut kept = Kept::default();
            for (step, &op) in script.iter().enumerate() {
                apply(&mut m, &mut model, op, step as u64, &mut kept);
                check_reads(&m, &model, &points);
            }
        }
    }
}
