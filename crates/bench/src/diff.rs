//! Comparing fresh `BENCH_*.json` documents against committed baselines.
//!
//! This is the library side of the `bench-diff` binary — the CI
//! regression gate. Its rule is stated here and in
//! `results/bench/README.md`; everything else links:
//!
//! Every baseline entry — metric or series — must **equal** its fresh
//! counterpart (same type, same fields, same values): everything `repro`
//! exports is seeded simulation on the virtual clock, so a fresh run with
//! the same seed reproduces the baseline exactly. A baseline entry
//! missing from the fresh run fails, because silently dropping
//! instrumentation is itself a regression; an extra fresh entry is
//! counted, not failed. A baseline file whose `quick` flag or `seed`
//! differs from the fresh run is skipped whole: the documents describe
//! different workloads — this is how the committed paper-scale profile
//! coexists with quick CI runs.

use std::collections::BTreeMap;

use crate::json::Json;

/// Outcome of comparing one baseline document against its fresh
/// counterpart.
#[derive(Debug, Default)]
pub struct FileDiff {
    /// Baseline metrics and series compared against a fresh entry.
    pub gated: usize,
    /// Fresh entries with no baseline counterpart (worth a baseline
    /// refresh, but not a regression).
    pub extra: usize,
    /// Human-readable regression descriptions; empty means the file
    /// passed.
    pub failures: Vec<String>,
    /// When set, the whole file was skipped for this reason and no
    /// values were compared.
    pub skipped_file: Option<String>,
}

impl FileDiff {
    /// True when nothing regressed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn index_by_name<'a>(doc: &'a Json, section: &str) -> BTreeMap<&'a str, &'a Json> {
    let name_of = |e: &'a Json| e.get("name").and_then(Json::as_str).unwrap_or("<unnamed>");
    doc.get(section)
        .and_then(Json::as_array)
        .map(|entries| entries.iter().map(|e| (name_of(e), e)).collect())
        .unwrap_or_default()
}

fn show(v: &Json) -> String {
    match v {
        Json::Num(n) => n.to_string(),
        Json::Str(s) => s.clone(),
        Json::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

/// The first place `base` and `fresh` differ, as a path suffix plus what
/// changed (`.points[0].value: changed 0 -> 1`): objects by key, arrays
/// by index. `None` when they are equal.
fn first_difference(base: &Json, fresh: &Json) -> Option<String> {
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(f)) => b
            .iter()
            .find_map(|(key, bv)| match f.get(key) {
                Some(fv) => first_difference(bv, fv).map(|d| format!(".{key}{d}")),
                None => Some(format!(".{key}: missing from fresh run")),
            })
            .or_else(|| {
                let added = f.keys().find(|key| !b.contains_key(*key))?;
                Some(format!(".{added}: not in baseline"))
            }),
        (Json::Arr(b), Json::Arr(f)) => b
            .iter()
            .zip(f)
            .enumerate()
            .find_map(|(i, (bv, fv))| first_difference(bv, fv).map(|d| format!("[{i}]{d}")))
            .or_else(|| {
                (b.len() != f.len()).then(|| format!(": length changed {} -> {}", b.len(), f.len()))
            }),
        _ => (base != fresh).then(|| format!(": changed {} -> {}", show(base), show(fresh))),
    }
}

/// Compares one schema-valid baseline document against its fresh
/// counterpart under the rule in the module docs.
#[must_use]
pub fn compare_docs(baseline: &Json, fresh: &Json) -> FileDiff {
    let mut diff = FileDiff::default();
    for key in ["quick", "seed"] {
        if baseline.get(key).is_none() || baseline.get(key) != fresh.get(key) {
            diff.skipped_file = Some(format!("`{key}` differs; the runs are not comparable"));
            return diff;
        }
    }
    for (section, prefix) in [("metrics", ""), ("series", "series ")] {
        let base_entries = index_by_name(baseline, section);
        let fresh_entries = index_by_name(fresh, section);
        for (name, base) in &base_entries {
            let Some(f) = fresh_entries.get(name) else {
                diff.failures.push(format!(
                    "{prefix}{name}: present in baseline, missing from fresh run"
                ));
                continue;
            };
            diff.gated += 1;
            if let Some(d) = first_difference(base, f) {
                diff.failures.push(format!("{prefix}{name}{d}"));
            }
        }
        diff.extra += fresh_entries
            .keys()
            .filter(|name| !base_entries.contains_key(*name))
            .count();
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn doc(metrics: &str, series: &str) -> Json {
        json::parse(&format!(
            r#"{{"schema_version": 3, "experiment": "x", "git_rev": "abc",
                 "seed": 7, "quick": true, "metrics": [{metrics}],
                 "series": [{series}]}}"#
        ))
        .expect("test document parses")
    }

    const COUNTER: &str = r#"{"name": "a.msgs", "type": "counter", "value": 100}"#;
    const SERIES: &str =
        r#"{"name": "a.live", "points": [{"t_us": 0, "value": 64}, {"t_us": 5, "value": 63}]}"#;

    /// The single failure of a comparison that must produce exactly one.
    fn failure(base: &Json, fresh: &Json) -> String {
        let mut diff = compare_docs(base, fresh);
        assert_eq!(diff.failures.len(), 1, "{:?}", diff.failures);
        diff.failures.remove(0)
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(COUNTER, SERIES);
        let diff = compare_docs(&d, &d);
        assert!(diff.passed(), "{:?}", diff.failures);
        assert_eq!(diff.gated, 2);
    }

    #[test]
    fn perturbed_counter_fails() {
        let base = doc(COUNTER, "");
        let fresh = doc(r#"{"name": "a.msgs", "type": "counter", "value": 101}"#, "");
        assert!(!compare_docs(&base, &fresh).passed());
        assert_eq!(failure(&base, &fresh), "a.msgs.value: changed 100 -> 101");
    }

    #[test]
    fn missing_metric_fails() {
        let base = doc(COUNTER, "");
        let fresh = doc("", "");
        let diff = compare_docs(&base, &fresh);
        assert_eq!(diff.failures.len(), 1);
        assert!(diff.failures[0].contains("missing from fresh run"));
    }

    #[test]
    fn extra_fresh_metric_is_not_a_failure() {
        let base = doc("", "");
        let fresh = doc(COUNTER, SERIES);
        let diff = compare_docs(&base, &fresh);
        assert!(diff.passed());
        assert_eq!(diff.extra, 2);
    }

    #[test]
    fn no_name_exempts_a_gauge() {
        let gauge = |value: f64| {
            doc(
                &format!(
                    r#"{{"name": "a.wall_per_sec_speedup", "type": "gauge", "value": {value}}}"#
                ),
                "",
            )
        };
        let diff = compare_docs(&gauge(123.0), &gauge(999.0));
        assert!(!diff.passed());
        assert_eq!(diff.gated, 1);
    }

    #[test]
    fn changed_type_fails_naming_the_entry_and_the_key() {
        let base = doc(COUNTER, "");
        let fresh = doc(r#"{"name": "a.msgs", "type": "gauge", "value": 100}"#, "");
        assert_eq!(
            failure(&base, &fresh),
            "a.msgs.type: changed counter -> gauge"
        );
    }

    #[test]
    fn gained_or_lost_field_fails_naming_the_entry_and_the_key() {
        let plain = doc(COUNTER, "");
        let wider = doc(
            r#"{"name": "a.msgs", "type": "counter", "value": 100, "unit": "msgs"}"#,
            "",
        );
        assert_eq!(failure(&plain, &wider), "a.msgs.unit: not in baseline");
        assert_eq!(
            failure(&wider, &plain),
            "a.msgs.unit: missing from fresh run"
        );
    }

    #[test]
    fn quick_flag_mismatch_skips_the_file() {
        let base = doc(COUNTER, "");
        let fresh = json::parse(
            r#"{"schema_version": 3, "experiment": "x", "git_rev": "abc",
                "seed": 7, "quick": false, "metrics": [], "series": []}"#,
        )
        .expect("parses");
        let diff = compare_docs(&base, &fresh);
        assert!(diff.passed());
        assert!(diff.skipped_file.expect("skipped").contains("quick"));
    }

    #[test]
    fn series_perturbations_fail() {
        let base = doc("", SERIES);
        let shorter = doc(
            "",
            r#"{"name": "a.live", "points": [{"t_us": 0, "value": 64}]}"#,
        );
        assert!(!compare_docs(&base, &shorter).passed());
        assert_eq!(
            failure(&base, &shorter),
            "series a.live.points: length changed 2 -> 1"
        );
        let moved = doc(
            "",
            r#"{"name": "a.live", "points": [{"t_us": 0, "value": 64}, {"t_us": 6, "value": 63}]}"#,
        );
        assert!(!compare_docs(&base, &moved).passed());
        assert_eq!(
            failure(&base, &moved),
            "series a.live.points[1].t_us: changed 5 -> 6"
        );
        let drifted = doc(
            "",
            r#"{"name": "a.live", "points": [{"t_us": 0, "value": 64}, {"t_us": 5, "value": 99}]}"#,
        );
        assert!(!compare_docs(&base, &drifted).passed());
        assert_eq!(
            failure(&base, &drifted),
            "series a.live.points[1].value: changed 63 -> 99"
        );
    }

    #[test]
    fn histogram_shape_is_gated() {
        let h = |count: u64| {
            format!(
                r#"{{"name": "a.lat", "type": "histogram", "count": {count}, "sum": 10,
                    "min": 1, "max": 9, "mean": 5.0,
                    "buckets": [{{"le": 1, "count": 1}}, {{"le": 16, "count": {rest}}}]}}"#,
                rest = count - 1
            )
        };
        let base = doc(&h(2), "");
        let fresh = doc(&h(3), "");
        assert!(compare_docs(&base, &base).passed());
        assert!(!compare_docs(&base, &fresh).passed());
        assert_eq!(
            failure(&base, &fresh),
            "a.lat.buckets[1].count: changed 1 -> 2"
        );
    }
}
