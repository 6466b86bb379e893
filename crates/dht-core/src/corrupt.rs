//! Deterministic corruption of routing state — the adversary half of
//! the self-stabilization contract.
//!
//! The audit subsystem ([`crate::audit`]) *detects* divergence from
//! paper-specified routing state but repairs nothing. This module
//! supplies the other two pieces needed to prove the repair layer
//! correct: a catalogue of named corruption strategies
//! ([`CorruptionStrategy`]) and a seeded, fully deterministic plan
//! ([`CorruptionPlan`]) for applying one to a chosen fraction of a
//! network, so that a `(strategy, severity, seed)` triple names exactly
//! one corrupted network.
//!
//! Overlays whose nodes hold a *link table* (Chord, Koorde, Pastry,
//! Cycloid) describe it once, as a [`Links`] impl on the node state, and
//! share the rest: [`corrupt_links`] (the victim loop and the only
//! mapping from strategy to written value), [`repair_links`] (refresh a
//! copy of the row, count what changed), [`audit_lazy_links`] (would a
//! round rewrite a link of the row's lazy half?) and [`link_diff`] (the
//! one definition of "entries that differ"). CAN and Viceroy hold zones and
//! level claims, not link tables, and write their own
//! `Protocol::corrupt_state`.
//!
//! Two properties matter for the test harness built on top:
//!
//! - **Exact-count victim selection.** [`CorruptionPlan::victims`]
//!   targets exactly `ceil(severity * n)` nodes for *every* seed — a
//!   per-node coin flip would make "≥25% of nodes corrupted" a
//!   probabilistic claim and the convergence proptests flaky.
//! - **No RNG objects.** All draws are pure [`splitmix64`] chains over
//!   `(seed, token, salt)`. Corruption consumes nothing from the
//!   overlay's seeded RNG streams, so a corrupt-then-repair episode
//!   composes with any workload without perturbing its draws.

use crate::audit::{AuditReport, AuditScope};
use crate::hash::splitmix64;
use crate::overlay::NodeToken;
use crate::sim::{RefreshInto, SimOverlay};
use crate::store::Hints;

/// A named way of damaging routing state. Each overlay maps the
/// strategy onto its own link layout (fingers, de Bruijn pointers,
/// leaf sets, zones…); the strategy names the *shape* of the damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionStrategy {
    /// Overwrite links with arbitrary (live) nodes: routing still lands
    /// somewhere real, but in the wrong place.
    RandomizeLinks,
    /// Point links at identifiers that are *not* live — departed or
    /// never-joined "ghost" nodes, the stale-entry hazard of §4.3.
    GhostLinks,
    /// Swap paired link sets against each other (smaller↔larger leaf
    /// halves, inside↔outside leaf sets), breaking ordering invariants
    /// while keeping every entry individually plausible.
    CrossWireLeafSets,
    /// Zero out long-range state (fingers, de Bruijn pointers, prefix
    /// tables), degrading routing to its fallback paths.
    ZeroLinks,
    /// Rewrite every victim's links to one seeded "attacker" node,
    /// eclipsing a contiguous region of the identifier space behind a
    /// single sink.
    EclipseRegion,
}

impl CorruptionStrategy {
    /// Every strategy, in catalogue order.
    pub const ALL: [CorruptionStrategy; 5] = [
        CorruptionStrategy::RandomizeLinks,
        CorruptionStrategy::GhostLinks,
        CorruptionStrategy::CrossWireLeafSets,
        CorruptionStrategy::ZeroLinks,
        CorruptionStrategy::EclipseRegion,
    ];

    /// Short stable name, used in experiment tables and metric keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CorruptionStrategy::RandomizeLinks => "randomize",
            CorruptionStrategy::GhostLinks => "ghost",
            CorruptionStrategy::CrossWireLeafSets => "crosswire",
            CorruptionStrategy::ZeroLinks => "zero",
            CorruptionStrategy::EclipseRegion => "eclipse",
        }
    }
}

/// A seeded plan: which strategy, what fraction of the network, under
/// which seed. A plan is pure data — applying it twice to identical
/// networks produces identical damage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionPlan {
    /// The damage shape.
    pub strategy: CorruptionStrategy,
    /// Fraction of live nodes to target, in `[0, 1]`. Exactly
    /// `ceil(severity * n)` nodes are selected.
    pub severity: f64,
    /// Master seed for victim selection and value draws.
    pub seed: u64,
}

impl CorruptionPlan {
    /// Builds a plan, clamping `severity` into `[0, 1]`.
    #[must_use]
    pub fn new(strategy: CorruptionStrategy, severity: f64, seed: u64) -> Self {
        Self {
            strategy,
            severity: severity.clamp(0.0, 1.0),
            seed,
        }
    }

    /// Selects exactly `ceil(severity * n)` victim tokens from `tokens`,
    /// returned in ascending token order.
    ///
    /// For [`CorruptionStrategy::EclipseRegion`] the victims are a
    /// contiguous (wrap-around) arc of the ascending token list — a
    /// *region* of identifier space. Every other strategy ranks tokens
    /// by a per-token hash and takes the `k` smallest ranks, i.e. a
    /// seeded uniform sample without replacement.
    #[must_use]
    pub fn victims(&self, tokens: &[u64]) -> Vec<u64> {
        let n = tokens.len();
        let k = ((self.severity * n as f64).ceil() as usize).min(n);
        if k == 0 {
            return Vec::new();
        }
        let mut sorted: Vec<u64> = tokens.to_vec();
        sorted.sort_unstable();
        let mut chosen: Vec<u64> = match self.strategy {
            CorruptionStrategy::EclipseRegion => {
                let start = (splitmix64(self.seed) % n as u64) as usize;
                (0..k).map(|i| sorted[(start + i) % n]).collect()
            }
            _ => {
                let mut ranked: Vec<(u64, u64)> = sorted
                    .iter()
                    .map(|&t| (splitmix64(self.seed ^ splitmix64(t)), t))
                    .collect();
                ranked.sort_unstable();
                ranked.truncate(k);
                ranked.into_iter().map(|(_, t)| t).collect()
            }
        };
        chosen.sort_unstable();
        chosen
    }

    /// A deterministic 64-bit draw for `(victim token, salt)`. Distinct
    /// salts give independent-looking draws for distinct entries of the
    /// same node; no RNG object is involved.
    #[must_use]
    pub fn draw(&self, token: u64, salt: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ splitmix64(token)) ^ splitmix64(salt))
    }

    /// Picks one element of `pool` for `(token, salt)`; `None` when the
    /// pool is empty.
    #[must_use]
    pub fn pick(&self, token: u64, salt: u64, pool: &[u64]) -> Option<u64> {
        if pool.is_empty() {
            return None;
        }
        Some(pool[(self.draw(token, salt) % pool.len() as u64) as usize])
    }

    /// Draws an identifier in `[0, space)` that `is_live` rejects — a
    /// ghost. Probes up to 32 distinct draws before giving up (`None`
    /// only when the space is saturated with live nodes).
    #[must_use]
    pub fn ghost(
        &self,
        token: u64,
        salt: u64,
        space: u64,
        is_live: impl Fn(u64) -> bool,
    ) -> Option<u64> {
        if space == 0 {
            return None;
        }
        (0..32)
            .map(|probe| self.draw(token, salt ^ (0x9e37 + probe)) % space)
            .find(|&cand| !is_live(cand))
    }
}

/// What a corruption pass actually did — the harness uses it to assert
/// the adversary really damaged as much as the plan demanded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorruptionReport {
    /// Nodes the plan selected as victims.
    pub targeted_nodes: usize,
    /// Victims whose state actually changed (a victim whose drawn value
    /// happened to equal the current one stays healthy).
    pub corrupted_nodes: usize,
    /// Total routing entries rewritten across all victims.
    pub mutated_entries: u64,
}

impl CorruptionReport {
    /// Records one visited victim that had `mutated` entries rewritten.
    pub fn note(&mut self, mutated: u64) {
        self.targeted_nodes += 1;
        if mutated > 0 {
            self.corrupted_nodes += 1;
            self.mutated_entries += mutated;
        }
    }
}

/// Salt of the network-wide eclipse attacker draw (not per victim).
const SALT_ATTACKER: u64 = 0xa77a;

/// A node state seen as a table of corruptible links.
///
/// Each entry has a *salt* that keys its deterministic draws; the salts
/// are frozen constants (changing one changes every committed
/// corruption count). Three kinds of entry exist, told apart by what an
/// erase (`f` returning `None`) leaves behind: a mandatory pointer falls
/// back to the node itself, an optional pointer becomes `None`, a list
/// entry is dropped from its list.
pub trait Links: Clone + PartialEq {
    /// The identifier type the links hold.
    type Id: Copy + PartialEq + std::fmt::Debug;

    /// The family [`audit_lazy_links`] reports the entry at `salt` by if
    /// [`RefreshInto::refresh_lazy`] writes it; `None` for the notified
    /// half, which join/leave notifications mend.
    fn lazy_family(salt: u64) -> Option<LazyFamily>;

    /// Visits every corruptible entry of node `own`'s row in strictly
    /// ascending salt order, passing its current value (`None` for an
    /// unset optional pointer), and stores what `f` returns.
    fn rewrite_links(
        &mut self,
        own: NodeToken,
        f: &mut dyn FnMut(u64, Option<Self::Id>) -> Option<Self::Id>,
    );

    /// [`CorruptionStrategy::CrossWireLeafSets`]: swap the paired link
    /// sets against each other.
    fn cross_wire(&mut self);
}

/// How a `Full` audit counts a lazily repaired family, by invariant name.
#[derive(Debug, Clone, Copy)]
pub enum LazyFamily {
    /// One violation per differing entry.
    PerEntry(&'static str),
    /// One per node with any differing entry: a list checked whole.
    PerNode(&'static str),
}

/// Entries [`link_diff`] holds on the stack before spilling to the heap;
/// covers every constant-degree state.
const INLINE_ENTRIES: usize = 32;

/// Number of entries on which two rows of node `own` differ, matched by
/// salt: an entry with different values counts once, and so does an
/// entry only one side has (a list that changed length). `&mut` only
/// because [`Links::rewrite_links`] is the one visitor; neither changes.
pub fn link_diff<S: Links>(own: NodeToken, a: &mut S, b: &mut S) -> u64 {
    let mut differing = 0;
    by_salt(own, a, b, |_, _, _| differing += 1);
    differing
}

/// [`link_diff`]'s walk: `f(salt, in a, in b)` for each differing
/// entry, by ascending salt; the side an entry is missing from reads `None`.
fn by_salt<S: Links, F>(own: NodeToken, a: &mut S, b: &mut S, mut f: F)
where
    F: FnMut(u64, Option<S::Id>, Option<S::Id>),
{
    let mut head = [(0u64, None::<S::Id>); INLINE_ENTRIES];
    let mut tail = Vec::new();
    let mut len = 0;
    a.rewrite_links(own, &mut |salt, cur| {
        match head.get_mut(len) {
            Some(slot) => *slot = (salt, cur),
            None => tail.push((salt, cur)),
        }
        len += 1;
        cur
    });
    let entry = |i: usize| *head.get(i).unwrap_or_else(|| &tail[i - INLINE_ENTRIES]);
    let mut i = 0;
    b.rewrite_links(own, &mut |salt, cur| {
        while i < len && entry(i).0 < salt {
            f(entry(i).0, entry(i).1, None);
            i += 1;
        }
        if i < len && entry(i).0 == salt {
            if entry(i).1 != cur {
                f(salt, entry(i).1, cur);
            }
            i += 1;
        } else {
            f(salt, None, cur);
        }
        cur
    });
    for (salt, held) in (i..len).map(entry) {
        f(salt, held, None);
    }
}

/// Applies `plan` to the link tables of `net`: the victim loop and the
/// one place a strategy becomes a written value. `space` bounds ghost
/// draws; `to_id` maps a drawn token to the overlay's identifier type.
/// Membership and query loads stay untouched, and no RNG stream is
/// drawn from.
pub fn corrupt_links<T>(
    net: &mut T,
    plan: &CorruptionPlan,
    space: u64,
    to_id: impl Fn(NodeToken) -> <T::State as Links>::Id,
) -> CorruptionReport
where
    T: SimOverlay + ?Sized,
    T::State: Links,
{
    let live = net.membership().store.tokens();
    let attacker = plan.pick(SALT_ATTACKER, 0, &live).map(&to_id);
    let is_live = |v: u64| live.binary_search(&v).is_ok();
    let mut report = CorruptionReport::default();
    for tok in plan.victims(&live) {
        let state = net
            .membership_mut()
            .store
            .get_mut(tok)
            .expect("victim chosen from live tokens");
        let mut before = state.clone();
        match plan.strategy {
            CorruptionStrategy::RandomizeLinks => state.rewrite_links(tok, &mut |salt, cur| {
                plan.pick(tok, salt, &live).map(&to_id).or(cur)
            }),
            CorruptionStrategy::GhostLinks => state.rewrite_links(tok, &mut |salt, cur| {
                plan.ghost(tok, salt, space, is_live).map(&to_id).or(cur)
            }),
            CorruptionStrategy::CrossWireLeafSets => state.cross_wire(),
            CorruptionStrategy::ZeroLinks => state.rewrite_links(tok, &mut |_, _| None),
            CorruptionStrategy::EclipseRegion => {
                if let Some(attacker) = attacker {
                    state.rewrite_links(tok, &mut |_, _| Some(attacker));
                }
            }
        }
        report.note(link_diff(tok, &mut before, state));
    }
    report
}

/// One node's repair step for a link-table overlay: refresh a copy of its
/// row ([`RefreshInto::refresh_into`]), write it back if it differs and
/// return the number of entries that changed — 0, through one equality
/// test, on a healthy node. Ignores dead tokens; draws from no RNG.
pub fn repair_links<T>(net: &mut T, node: NodeToken) -> u64
where
    T: RefreshInto + ?Sized,
    T::State: Links,
{
    let Some(mut fresh) = net.membership().store.get(node).cloned() else {
        return 0;
    };
    net.refresh_into(node, &mut Hints::default(), &mut fresh);
    let held = net.membership_mut().store.get_mut(node).expect("live");
    if *held == fresh {
        return 0;
    }
    std::mem::swap(held, &mut fresh);
    link_diff(node, &mut fresh, held)
}

/// The lazily repaired half of a [`AuditScope::Full`] report (an
/// `Online` one is left as it is): would one stabilization round rewrite
/// a lazily repaired link? One ascending pass copies each held row into
/// one scratch row, refreshes its lazy half there with a round's running
/// hints, and diffs the two by salt where they differ, recording each
/// differing entry as its [`Links::lazy_family`] counts.
pub fn audit_lazy_links<T>(net: &T, mut report: AuditReport) -> AuditReport
where
    T: RefreshInto + ?Sized,
    T::State: Links,
{
    if report.scope() != AuditScope::Full {
        return report;
    }
    let (mut hints, mut fresh) = (Hints::default(), T::State::default());
    for (node, held) in net.membership().store.iter() {
        fresh.clone_from(held);
        net.refresh_lazy(node, &mut hints, &mut fresh);
        if *held == fresh {
            continue;
        }
        let mut listed = Vec::new();
        by_salt(node, &mut held.clone(), &mut fresh, |salt, was, now| {
            let name = match T::State::lazy_family(salt).expect("a lazy half salt") {
                LazyFamily::PerEntry(name) => name,
                LazyFamily::PerNode(name) if !listed.contains(&name) => name,
                LazyFamily::PerNode(_) => return,
            };
            listed.push(name);
            let detail = format!("link {salt:#x}: {was:?}, a round writes {now:?}");
            report.record(node, name, detail);
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::InlineVec;
    use crate::lookup::HopPhase;
    use crate::sim::{Membership, StepDecision};

    fn tokens(n: u64) -> Vec<u64> {
        // Deliberately unsorted input: victims() must not rely on order.
        (0..n).map(|i| splitmix64(i) % 10_000).collect()
    }

    /// A state with one entry of each kind, plus a list long enough to
    /// push [`link_diff`] past its inline buffer.
    #[derive(Debug, Clone, PartialEq, Default)]
    struct Toy {
        ptr: u64,
        opt: Option<u64>,
        list: InlineVec<u64, 4>,
        wide: Vec<u64>,
    }

    impl Toy {
        /// What the toy stabilizer converges to.
        fn healthy(id: u64) -> Self {
            Self {
                ptr: id + 1,
                opt: Some(id + 2),
                list: vec![id + 3, id + 4, id + 5].into(),
                wide: Vec::new(),
            }
        }
        fn links(&self) -> impl Iterator<Item = u64> + '_ {
            [self.ptr]
                .into_iter()
                .chain(self.opt)
                .chain(self.list.iter().copied())
        }
    }

    impl Links for Toy {
        type Id = u64;
        fn lazy_family(salt: u64) -> Option<LazyFamily> {
            match salt {
                2 => Some(LazyFamily::PerEntry("toy/opt")),
                0x10..0x100 => Some(LazyFamily::PerNode("toy/list")),
                _ => None,
            }
        }
        fn rewrite_links(&mut self, own: u64, f: &mut dyn FnMut(u64, Option<u64>) -> Option<u64>) {
            self.ptr = f(1, Some(self.ptr)).unwrap_or(own);
            self.opt = f(2, self.opt);
            self.list
                .filter_map_in_place(|i, e| f(0x10 + i as u64, Some(e)));
            let mut i = 0;
            self.wide.retain_mut(|e| {
                i += 1;
                f(0x100 + i, Some(*e)).map(|v| *e = v).is_some()
            });
        }
        fn cross_wire(&mut self) {
            std::mem::swap(&mut self.ptr, &mut self.list[0]);
        }
    }

    /// The least `SimOverlay` that holds `Toy` states: no routing, and a
    /// refresh that computes [`Toy::healthy`], `ptr` and `wide` its
    /// notified half. Not
    /// `sim::fixture::StaleRing`, whose `u64` state has no `Links` to corrupt
    /// and whose stabilizer repairs nothing.
    struct ToyNet(Membership<Toy>);

    impl ToyNet {
        fn with_ids(ids: impl IntoIterator<Item = u64>) -> Self {
            let mut members = Membership::new(1);
            for id in ids {
                members.store.insert(id, Toy::healthy(id));
            }
            Self(members)
        }
        /// Each live token with its row, ascending.
        fn rows(&self) -> Vec<(u64, Toy)> {
            self.0.store.iter().map(|(t, s)| (t, s.clone())).collect()
        }
    }

    /// Corruption needs no audit: every report is clean.
    impl crate::audit::StateAudit for ToyNet {
        fn audit_state(&self, scope: crate::audit::AuditScope) -> crate::audit::AuditReport {
            crate::audit::AuditReport::new("Toy", scope)
        }
    }

    impl crate::overlay::Protocol for ToyNet {
        fn name(&self) -> String {
            "Toy".to_string()
        }
        fn degree_bound(&self) -> Option<usize> {
            None
        }
        fn key_id(&self, raw_key: u64) -> u64 {
            raw_key
        }
        fn owner_of(&self, _raw_key: u64) -> Option<NodeToken> {
            None
        }
        fn join(&mut self, _rng: &mut dyn rand::RngCore) -> Option<NodeToken> {
            None
        }
        fn leave(&mut self, node: NodeToken) -> bool {
            self.0.store.remove(node).is_some()
        }
        fn corrupt_state(&mut self, plan: &CorruptionPlan) -> CorruptionReport {
            corrupt_links(self, plan, 64, |t| t)
        }
        fn repair_node(&mut self, node: NodeToken) -> u64 {
            repair_links(self, node)
        }
        fn maintenance_msgs(&self, _node: NodeToken) -> u64 {
            1
        }
    }

    impl SimOverlay for ToyNet {
        type State = Toy;
        type Walk = ();
        fn membership(&self) -> &Membership<Toy> {
            &self.0
        }
        fn membership_mut(&mut self) -> &mut Membership<Toy> {
            &mut self.0
        }
        fn hop_budget(&self) -> usize {
            0
        }
        fn begin_walk(&self, _src: NodeToken, _raw_key: u64) {}
        fn walk_owner(&self, _walk: &()) -> Option<NodeToken> {
            None
        }
        fn next_hop(
            &self,
            _cur: NodeToken,
            _walk: &mut (),
            _out: &mut Vec<(HopPhase, NodeToken)>,
        ) -> StepDecision {
            StepDecision::Terminate
        }
        fn stabilize_one(&mut self, node: NodeToken, hints: &mut Hints) {
            crate::sim::refresh_in_place(self, node, hints);
        }
    }

    impl RefreshInto for ToyNet {
        type Notified = u64;
        fn notified_half(&self, id: NodeToken, _hint: &mut crate::store::Pos) -> u64 {
            Toy::healthy(id).ptr
        }
        fn store_notified(row: &mut Toy, ptr: u64) {
            row.ptr = ptr;
            row.wide.clear();
        }
        fn refresh_lazy(&self, id: NodeToken, _hints: &mut Hints, out: &mut Toy) {
            let Toy { opt, list, .. } = Toy::healthy(id);
            (out.opt, out.list) = (opt, list);
        }
    }

    #[test]
    fn link_diff_counts_entries_matched_by_salt() {
        let mut a = Toy::healthy(10);
        assert_eq!(link_diff(10, &mut a.clone(), &mut a), 0);

        let mut b = a.clone();
        b.ptr = 99;
        b.opt = None; // an unset optional pointer is still an entry
        assert_eq!(link_diff(10, &mut a, &mut b), 2);

        // An erased list entry shifts its successors down one salt: the
        // moved value differs and the vanished last position counts
        // once, from whichever side holds it.
        let mut c = a.clone();
        c.list = vec![13, 15].into();
        assert_eq!(link_diff(10, &mut a, &mut c), 2);
        assert_eq!(link_diff(10, &mut c, &mut a), 2);
        c.list.clear();
        assert_eq!(link_diff(10, &mut a, &mut c), 3);
        assert_eq!(link_diff(10, &mut c, &mut a), 3);
        assert_eq!(a, Toy::healthy(10), "diffing leaves both sides alone");
    }

    #[test]
    fn link_diff_spills_past_the_inline_buffer() {
        let mut a = Toy::healthy(10);
        a.wide = (0..40).collect(); // 5 + 40 entries > INLINE_ENTRIES
        let mut b = a.clone();
        assert_eq!(link_diff(10, &mut a, &mut b), 0);
        b.wide[3] = 777; // inside the inline part
        b.wide[35] = 777; // inside the spilled part
        b.wide.truncate(38); // two entries only `a` has
        assert_eq!(link_diff(10, &mut a, &mut b), 4);
        assert_eq!(link_diff(10, &mut b, &mut a), 4);
    }

    /// Runs `plan` on a fresh toy network and checks the report against
    /// an independent per-victim [`link_diff`].
    fn corrupt_toy(net: &mut ToyNet, plan: &CorruptionPlan, space: u64) -> Vec<(u64, Toy)> {
        let mut before = net.rows();
        let report = corrupt_links(net, plan, space, |t| t);
        let mut after = net.rows();
        let diffs: Vec<u64> = before
            .iter_mut()
            .zip(&mut after)
            .map(|((t, b), (_, a))| link_diff(*t, b, a))
            .collect();
        assert_eq!(report.mutated_entries, diffs.iter().sum::<u64>());
        assert_eq!(
            report.corrupted_nodes,
            diffs.iter().filter(|&&d| d > 0).count()
        );
        assert_eq!(
            report.targeted_nodes,
            plan.victims(&net.0.store.tokens()).len()
        );
        after
    }

    #[test]
    fn zero_erases_every_entry_by_its_kind() {
        let mut net = ToyNet::with_ids([10, 20, 30, 40]);
        let plan = CorruptionPlan::new(CorruptionStrategy::ZeroLinks, 1.0, 5);
        for (t, s) in corrupt_toy(&mut net, &plan, 64) {
            assert_eq!(s.ptr, t, "mandatory pointer falls back to the node");
            assert_eq!(s.opt, None);
            assert!(s.list.is_empty(), "list entries are dropped");
        }
    }

    #[test]
    fn eclipse_writes_one_live_id_everywhere() {
        let mut net = ToyNet::with_ids([10, 20, 30, 40]);
        net.0.store.get_mut(20).unwrap().opt = None;
        let plan = CorruptionPlan::new(CorruptionStrategy::EclipseRegion, 1.0, 5);
        let after = corrupt_toy(&mut net, &plan, 64);
        let attacker = after[0].1.ptr;
        assert!(net.0.store.contains(attacker));
        for (_, s) in after {
            assert_eq!(s.ptr, attacker);
            assert_eq!(s.opt, Some(attacker), "unset pointers are planted too");
            assert_eq!(s.list, vec![attacker; 3]);
        }
    }

    #[test]
    fn randomize_draws_live_ids_and_ghost_draws_dead_ones() {
        let plan = |strategy| CorruptionPlan::new(strategy, 0.5, 5);
        let mut net = ToyNet::with_ids([10, 20, 30, 40]);
        let after = corrupt_toy(&mut net, &plan(CorruptionStrategy::RandomizeLinks), 64);
        let victims = plan(CorruptionStrategy::RandomizeLinks).victims(&net.0.store.tokens());
        for (t, s) in &after {
            if victims.contains(t) {
                assert!(s.links().all(|l| net.0.store.contains(l)), "{s:?}");
            } else {
                assert_eq!(*s, Toy::healthy(*t), "non-victims are untouched");
            }
        }

        let mut net = ToyNet::with_ids([10, 20, 30, 40]);
        let after = corrupt_toy(&mut net, &plan(CorruptionStrategy::GhostLinks), 64);
        let hit: Vec<&Toy> = after
            .iter()
            .filter(|(t, s)| *s != Toy::healthy(*t))
            .map(|(_, s)| s)
            .collect();
        assert_eq!(hit.len(), 2);
        for s in hit {
            assert!(s.links().all(|l| !net.0.store.contains(l)), "{s:?}");
        }

        // A saturated space has no ghost: every draw is `None` and every
        // entry keeps its current value.
        let mut net = ToyNet::with_ids(0..8);
        let healthy = net.rows();
        let after = corrupt_toy(&mut net, &plan(CorruptionStrategy::GhostLinks), 8);
        assert_eq!(after, healthy);
    }

    #[test]
    fn cross_wire_is_the_states_own_swap() {
        let mut net = ToyNet::with_ids([10]);
        let plan = CorruptionPlan::new(CorruptionStrategy::CrossWireLeafSets, 1.0, 5);
        let after = corrupt_toy(&mut net, &plan, 64);
        assert_eq!((after[0].1.ptr, after[0].1.list[0]), (13, 11));
    }

    #[test]
    fn repair_links_counts_what_the_stabilizer_rewrote() {
        let mut net = ToyNet::with_ids([10, 20, 30, 40]);
        assert_eq!(repair_links(&mut net, 20), 0, "healthy node");
        assert_eq!(repair_links(&mut net, 21), 0, "dead token");
        let plan = CorruptionPlan::new(CorruptionStrategy::ZeroLinks, 1.0, 5);
        let report = corrupt_links(&mut net, &plan, 64, |t| t);
        let repaired: u64 = [10, 20, 30, 40]
            .map(|t| repair_links(&mut net, t))
            .iter()
            .sum();
        assert_eq!(repaired, report.mutated_entries);
        assert_eq!(net.rows(), ToyNet::with_ids([10, 20, 30, 40]).rows());
        assert_eq!(repair_links(&mut net, 20), 0, "idempotent");
    }

    #[test]
    fn lazy_audit_counts_what_a_round_would_rewrite_by_family() {
        let mut net = ToyNet::with_ids([10, 20, 30]);
        let audit = |net: &ToyNet, scope| audit_lazy_links(net, AuditReport::new("Toy", scope));
        assert!(audit(&net, AuditScope::Full).is_clean());
        let state = net.0.store.get_mut(20).unwrap();
        state.ptr = 7; // not in a lazy family: the online sweep's
        state.opt = None;
        state.list = vec![1, 2].into(); // three entries differ, one node
        assert!(audit(&net, AuditScope::Online).is_clean(), "online: no-op");
        let report = audit(&net, AuditScope::Full);
        let found: Vec<_> = report
            .violations()
            .iter()
            .map(|v| (v.node, v.invariant))
            .collect();
        assert_eq!(found, [(20, "toy/opt"), (20, "toy/list")]);
        assert_eq!(
            report.violations()[0].detail,
            "link 0x2: None, a round writes Some(22)"
        );
        assert_eq!(
            net.0.store.get(20).unwrap().ptr,
            7,
            "the audit repairs nothing"
        );
    }

    #[test]
    fn victims_hit_the_exact_ceiling_count() {
        let toks: Vec<u64> = (0..97).collect();
        for &sev in &[0.0, 0.01, 0.25, 0.5, 0.999, 1.0] {
            for seed in 0..8 {
                let plan = CorruptionPlan::new(CorruptionStrategy::RandomizeLinks, sev, seed);
                let want = ((sev * 97.0).ceil() as usize).min(97);
                assert_eq!(plan.victims(&toks).len(), want, "sev={sev} seed={seed}");
            }
        }
    }

    #[test]
    fn victims_are_sorted_deduplicated_members() {
        let toks = tokens(64);
        for strategy in CorruptionStrategy::ALL {
            let plan = CorruptionPlan::new(strategy, 0.4, 9);
            let v = plan.victims(&toks);
            assert!(v.windows(2).all(|w| w[0] < w[1]), "{strategy:?} sorted");
            assert!(v.iter().all(|t| toks.contains(t)), "{strategy:?} members");
            assert_eq!(v, plan.victims(&toks), "{strategy:?} deterministic");
        }
    }

    #[test]
    fn eclipse_selects_a_contiguous_arc() {
        let toks: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let plan = CorruptionPlan::new(CorruptionStrategy::EclipseRegion, 0.3, 123);
        let v = plan.victims(&toks);
        assert_eq!(v.len(), 15);
        // In the ascending token circle, a wrap-around arc has at most
        // one gap between consecutive selected positions.
        let positions: Vec<usize> = v
            .iter()
            .map(|t| toks.iter().position(|x| x == t).unwrap())
            .collect();
        let gaps = positions.windows(2).filter(|w| w[1] != w[0] + 1).count();
        assert!(gaps <= 1, "positions not contiguous: {positions:?}");
    }

    #[test]
    fn distinct_seeds_select_distinct_victims() {
        let toks = tokens(200);
        let a = CorruptionPlan::new(CorruptionStrategy::GhostLinks, 0.25, 1).victims(&toks);
        let b = CorruptionPlan::new(CorruptionStrategy::GhostLinks, 0.25, 2).victims(&toks);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn draw_is_salt_and_token_sensitive() {
        let plan = CorruptionPlan::new(CorruptionStrategy::ZeroLinks, 0.5, 77);
        assert_ne!(plan.draw(1, 0), plan.draw(1, 1));
        assert_ne!(plan.draw(1, 0), plan.draw(2, 0));
        assert_eq!(plan.draw(1, 0), plan.draw(1, 0));
    }

    #[test]
    fn pick_stays_in_pool_and_handles_empty() {
        let plan = CorruptionPlan::new(CorruptionStrategy::RandomizeLinks, 0.5, 5);
        assert_eq!(plan.pick(1, 0, &[]), None);
        let pool = [10, 20, 30];
        for salt in 0..20 {
            let got = plan.pick(7, salt, &pool).unwrap();
            assert!(pool.contains(&got));
        }
    }

    #[test]
    fn ghost_avoids_live_identifiers() {
        let plan = CorruptionPlan::new(CorruptionStrategy::GhostLinks, 0.5, 5);
        let live = |id: u64| id.is_multiple_of(2);
        for salt in 0..20 {
            let g = plan.ghost(3, salt, 1 << 20, live).unwrap();
            assert!(g % 2 == 1, "drew a live id {g}");
            assert!(g < (1 << 20));
        }
        // Saturated space: every id live, no ghost exists.
        assert_eq!(plan.ghost(3, 0, 4, |_| true), None);
        assert_eq!(plan.ghost(3, 0, 0, |_| false), None);
    }

    #[test]
    fn severity_is_clamped() {
        let plan = CorruptionPlan::new(CorruptionStrategy::ZeroLinks, 7.0, 1);
        assert_eq!(plan.severity, 1.0);
        let plan = CorruptionPlan::new(CorruptionStrategy::ZeroLinks, -3.0, 1);
        assert_eq!(plan.severity, 0.0);
        assert!(plan.victims(&[1, 2, 3]).is_empty());
    }

    #[test]
    fn report_counts_targeted_vs_corrupted() {
        let mut rep = CorruptionReport::default();
        rep.note(0);
        rep.note(3);
        rep.note(2);
        assert_eq!(rep.targeted_nodes, 3);
        assert_eq!(rep.corrupted_nodes, 2);
        assert_eq!(rep.mutated_entries, 5);
    }
}
