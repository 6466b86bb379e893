//! Protocol-conformance auditing.
//!
//! Every overlay in this workspace maintains per-node routing state whose
//! correct shape is *specified by its paper*: Cycloid's seven-entry routing
//! state (§2.1 of the Cycloid paper), Chord's successor list and fingers,
//! Koorde's de Bruijn pointer, Pastry's leaf sets and prefix table,
//! Viceroy's level links, CAN's zone-neighbour sets. The simulation only
//! measures *lookup outcomes*, so a silent routing-table bug would surface
//! as mysteriously longer paths rather than a failing assertion.
//!
//! This module defines the vocabulary for checking those invariants:
//!
//! * [`AuditScope`] — which class of invariants to check. `Online`
//!   invariants are eagerly repaired by the graceful join/leave protocol and
//!   must hold at *any* instant; `Full` additionally checks the lazily
//!   stabilized state and is only expected to pass after stabilization.
//! * [`AuditViolation`] — one broken invariant on one node.
//! * [`AuditReport`] — the outcome of an audit pass: how many nodes were
//!   checked plus every violation found.
//! * [`StateAudit`] — the trait each overlay crate implements to check its
//!   own paper-specified invariants against a membership snapshot.
//!
//! [`StateAudit`] is a supertrait of [`crate::overlay::Protocol`], so
//! experiment code can call `audit_state` on any boxed overlay without
//! naming its concrete type.

use std::fmt;

use crate::overlay::NodeToken;

/// Which class of invariants an audit pass checks.
///
/// The split mirrors how the overlays repair state: some pointers are fixed
/// eagerly by the graceful join/leave protocol (leaf sets, ring successor
/// lists), others only by periodic stabilization (finger tables, de Bruijn
/// pointers, prefix tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditScope {
    /// Only the invariants the graceful protocol keeps *always* true.
    ///
    /// An `Online` audit may run at any instant — mid-churn, between
    /// stabilization rounds — and a violation is a protocol bug, not a
    /// staleness artifact. (Ungraceful failures legitimately break online
    /// invariants until stabilization repairs them.)
    Online,
    /// Every invariant, including lazily-stabilized state.
    ///
    /// A `Full` audit is only expected to be clean on a quiescent,
    /// fully-stabilized network.
    Full,
}

impl AuditScope {
    /// Short lowercase label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AuditScope::Online => "online",
            AuditScope::Full => "full",
        }
    }
}

/// One broken invariant on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// The node whose state violates the invariant.
    pub node: NodeToken,
    /// Stable invariant name, `"overlay/invariant"` (e.g.
    /// `"cycloid/inside-leaf-set"`). Tests match on this.
    pub invariant: &'static str,
    /// Human-readable expected-vs-actual detail.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {}: {} — {}",
            self.node, self.invariant, self.detail
        )
    }
}

/// Outcome of an audit pass over an overlay's membership snapshot.
#[derive(Debug, Clone)]
pub struct AuditReport {
    overlay: String,
    scope: AuditScope,
    checked_nodes: usize,
    violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Starts an empty report for `overlay` at the given scope.
    #[must_use]
    pub fn new(overlay: impl Into<String>, scope: AuditScope) -> Self {
        AuditReport {
            overlay: overlay.into(),
            scope,
            checked_nodes: 0,
            violations: Vec::new(),
        }
    }

    /// Display name of the audited overlay.
    #[must_use]
    pub fn overlay(&self) -> &str {
        &self.overlay
    }

    /// Scope the audit ran at.
    #[must_use]
    pub fn scope(&self) -> AuditScope {
        self.scope
    }

    /// Number of nodes whose state was checked, summed over merged passes.
    #[must_use]
    pub fn checked_nodes(&self) -> usize {
        self.checked_nodes
    }

    /// Counts `nodes` additional nodes as checked.
    pub fn note_checked(&mut self, nodes: usize) {
        self.checked_nodes += nodes;
    }

    /// Records a violation of `invariant` on `node`.
    pub fn record(&mut self, node: NodeToken, invariant: &'static str, detail: String) {
        self.violations.push(AuditViolation {
            node,
            invariant,
            detail,
        });
    }

    /// Records a violation unless `ok`; `detail` is only rendered on
    /// failure, so hot audit loops pay nothing for passing checks.
    pub fn check(
        &mut self,
        node: NodeToken,
        invariant: &'static str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        if !ok {
            self.record(node, invariant, detail());
        }
    }

    /// Equality check: records a violation with a rendered
    /// expected-vs-actual detail when `actual != expected`.
    pub fn check_eq<T: PartialEq + fmt::Debug>(
        &mut self,
        node: NodeToken,
        invariant: &'static str,
        actual: &T,
        expected: &T,
    ) {
        self.check(node, invariant, actual == expected, || {
            format!("expected {expected:?}, found {actual:?}")
        });
    }

    /// Every violation found, in discovery order.
    #[must_use]
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// True when no violations were recorded.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Distinct invariant names that were violated, in first-hit order.
    #[must_use]
    pub fn violated_invariants(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for v in &self.violations {
            if !names.contains(&v.invariant) {
                names.push(v.invariant);
            }
        }
        names
    }

    /// Folds `other` into this report: node counts add, violations append.
    ///
    /// Used by the churn engine to accumulate one report across many
    /// per-round audit passes; the receiver keeps its overlay name and
    /// scope.
    pub fn merge(&mut self, other: AuditReport) {
        self.checked_nodes += other.checked_nodes;
        self.violations.extend(other.violations);
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] audit: {} nodes checked, ",
            self.overlay,
            self.scope.label(),
            self.checked_nodes
        )?;
        if self.is_clean() {
            return write!(f, "clean");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        const SHOWN: usize = 8;
        for v in self.violations.iter().take(SHOWN) {
            writeln!(f, "  {v}")?;
        }
        if self.violations.len() > SHOWN {
            writeln!(f, "  … and {} more", self.violations.len() - SHOWN)?;
        }
        Ok(())
    }
}

/// Checks an overlay's paper-specified structural invariants.
///
/// Each overlay crate implements this on its network type by recomputing,
/// from the membership snapshot alone, what every node's routing state
/// *should* be and comparing it with what the protocol actually maintains.
/// The trait is object-safe so simulation drivers can audit a
/// `Box<dyn Overlay>` without knowing the concrete overlay.
pub trait StateAudit {
    /// Audits every live node's state at the given scope.
    fn audit_state(&self, scope: AuditScope) -> AuditReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let r = AuditReport::new("Test", AuditScope::Online);
        assert!(r.is_clean());
        assert_eq!(r.checked_nodes(), 0);
        assert_eq!(r.violations().len(), 0);
        assert_eq!(
            format!("{r}"),
            "Test [online] audit: 0 nodes checked, clean"
        );
    }

    #[test]
    fn record_and_check_collect_violations() {
        let mut r = AuditReport::new("Test", AuditScope::Full);
        r.note_checked(3);
        r.record(7, "test/explicit", "broken".into());
        r.check(8, "test/closure", false, || "lazy detail".into());
        r.check(9, "test/passing", true, || unreachable!());
        r.check_eq(10, "test/eq", &1u32, &2u32);
        r.check_eq(11, "test/eq-pass", &5u32, &5u32);
        assert!(!r.is_clean());
        assert_eq!(r.violations().len(), 3);
        assert_eq!(
            r.violated_invariants(),
            vec!["test/explicit", "test/closure", "test/eq"]
        );
        assert_eq!(r.violations()[2].detail, "expected 2, found 1");
    }

    #[test]
    fn merge_accumulates_counts_and_violations() {
        let mut a = AuditReport::new("Test", AuditScope::Online);
        a.note_checked(5);
        let mut b = AuditReport::new("Other", AuditScope::Full);
        b.note_checked(2);
        b.record(1, "test/x", "boom".into());
        a.merge(b);
        assert_eq!(a.checked_nodes(), 7);
        assert_eq!(a.overlay(), "Test");
        assert_eq!(a.scope(), AuditScope::Online);
        assert_eq!(a.violations().len(), 1);
    }

    #[test]
    fn merging_empty_reports_is_identity() {
        let mut r = AuditReport::new("Test", AuditScope::Full);
        r.note_checked(4);
        r.record(1, "test/x", "boom".into());
        let before = (r.checked_nodes(), r.violations().to_vec());
        // An empty same-scope merge and an empty cross-scope merge both
        // leave the receiver untouched (scope is metadata, not a guard).
        r.merge(AuditReport::new("Test", AuditScope::Full));
        r.merge(AuditReport::new("Elsewhere", AuditScope::Online));
        assert_eq!(r.checked_nodes(), before.0);
        assert_eq!(r.violations(), before.1.as_slice());
        // And a chain of empty-into-empty merges stays clean.
        let mut empty = AuditReport::new("Test", AuditScope::Online);
        empty.merge(AuditReport::new("Test", AuditScope::Online));
        empty.merge(AuditReport::new("Test", AuditScope::Full));
        assert!(empty.is_clean());
        assert_eq!(empty.checked_nodes(), 0);
    }

    #[test]
    fn duplicate_invariant_names_dedup_in_first_hit_order() {
        let mut r = AuditReport::new("Test", AuditScope::Full);
        r.record(1, "test/b", "1".into());
        r.record(2, "test/a", "2".into());
        r.record(3, "test/b", "3".into());
        let mut other = AuditReport::new("Test", AuditScope::Full);
        other.record(4, "test/a", "4".into());
        other.record(5, "test/c", "5".into());
        r.merge(other);
        // Every individual violation is kept...
        assert_eq!(r.violations().len(), 5);
        // ...but the distinct-name view dedups, preserving first-hit
        // order across the merge boundary.
        assert_eq!(r.violated_invariants(), vec!["test/b", "test/a", "test/c"]);
    }

    #[test]
    fn merge_across_scopes_keeps_receiver_identity_but_all_violations() {
        // The churn engine merges per-round Online passes; a Full pass
        // folded in afterwards must not relabel the accumulator, yet its
        // violations still count.
        let mut acc = AuditReport::new("Cycloid(7)", AuditScope::Online);
        acc.note_checked(10);
        let mut full = AuditReport::new("Cycloid(7)", AuditScope::Full);
        full.note_checked(10);
        full.record(3, "cycloid/cubical-neighbor", "stale".into());
        acc.merge(full);
        assert_eq!(acc.scope(), AuditScope::Online);
        assert_eq!(acc.overlay(), "Cycloid(7)");
        assert_eq!(acc.checked_nodes(), 20);
        assert!(!acc.is_clean());
        assert_eq!(acc.violated_invariants(), vec!["cycloid/cubical-neighbor"]);
    }

    #[test]
    fn check_eq_handles_option_and_collection_values() {
        let mut r = AuditReport::new("Test", AuditScope::Full);
        // Equal values — including None == None — record nothing.
        r.check_eq(1, "test/none", &None::<u64>, &None::<u64>);
        r.check_eq(2, "test/vec-eq", &vec![1u64, 2], &vec![1u64, 2]);
        assert!(r.is_clean());
        // None vs Some and length-mismatched collections both render an
        // expected-vs-actual detail.
        r.check_eq(3, "test/opt", &None::<u64>, &Some(9u64));
        r.check_eq(4, "test/vec", &vec![1u64], &vec![1u64, 2]);
        assert_eq!(r.violations().len(), 2);
        assert_eq!(r.violations()[0].detail, "expected Some(9), found None");
        assert_eq!(r.violations()[1].detail, "expected [1, 2], found [1]");
    }

    #[test]
    fn display_lists_violations() {
        let mut r = AuditReport::new("Test", AuditScope::Full);
        r.note_checked(1);
        r.record(42, "test/bad", "expected X, found Y".into());
        let s = format!("{r}");
        assert!(s.contains("1 violation(s)"));
        assert!(s.contains("node 42: test/bad — expected X, found Y"));
    }

    #[test]
    fn display_truncates_long_violation_lists() {
        let mut r = AuditReport::new("Test", AuditScope::Full);
        for i in 0..20 {
            r.record(i, "test/many", "dup".into());
        }
        let s = format!("{r}");
        assert!(s.contains("… and 12 more"));
    }
}
