//! Tables for the `repro` subcommands `all` leaves out (`converge`,
//! `recover`, `scale`, `profile`, `metrics`). The figures of `all` are
//! laid out by their own entries in
//! [`dht_sim::experiments::figures::EXPERIMENTS`].

use dht_sim::experiments::converge::ConvergeRow;
use dht_sim::experiments::profile::ProfileRow;
use dht_sim::experiments::recover::RecoverRow;
use dht_sim::experiments::scale::ScaleRow;
use dht_sim::report::{f, pivot, Table};

use dht_core::obs::ALL_PHASES;

/// Extension: compact-membership footprint and routing quality across
/// populations.
#[must_use]
pub fn scale(rows: &[ScaleRow]) -> Table {
    let mut t = Table::new(
        "Extension: memory footprint and path quality at scale (compact membership)",
        &[
            "system",
            "n",
            "bytes/node",
            "state MiB",
            "mean hops",
            "p99 hops",
            "failures",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            format!("{}", r.n),
            format!("{:.1}", r.bytes_per_node),
            format!("{:.1}", r.state_bytes as f64 / (1024.0 * 1024.0)),
            f(r.agg.path.mean),
            f(r.agg.path.p99),
            format!("{}", r.agg.failures),
        ]);
    }
    t
}

/// Extension: time to stabilize after a mass join and a burst leave, per
/// overlay and stabilization period, on the virtual clock.
#[must_use]
pub fn converge(rows: &[ConvergeRow]) -> Table {
    let clean = |v: Option<u64>| v.map_or_else(|| "—".to_string(), |s| format!("{s}"));
    let mut t = Table::new(
        "Extension: time to audit-clean after membership shocks (simulated seconds)",
        &[
            "T (s)",
            "system",
            "joined",
            "join clean (s)",
            "left",
            "leave clean (s)",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{}", r.period),
            r.label.clone(),
            format!("{}", r.join_added),
            clean(r.join_clean_s),
            format!("{}", r.leave_removed),
            clean(r.leave_clean_s),
        ]);
    }
    t
}

/// Extension: lookup-latency percentiles under continuous-time churn
/// with message delays (base stabilization period only).
#[must_use]
pub fn converge_latency(rows: &[ConvergeRow]) -> Table {
    let mut t = Table::new(
        "Extension: lookup latency under churn on the virtual clock (continuous time)",
        &[
            "system",
            "T (s)",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean ms",
            "timeouts mean",
            "stranded",
            "failures",
            "sim secs",
        ],
    );
    for r in rows {
        let Some(load) = &r.load else {
            continue;
        };
        t.row(vec![
            r.label.clone(),
            format!("{}", r.period),
            f(load.p50_ms),
            f(load.p95_ms),
            f(load.p99_ms),
            f(load.mean_ms),
            f(load.timeouts_mean),
            format!("{}", load.stranded),
            format!("{}", load.failures),
            format!("{:.0}", load.sim_secs),
        ]);
    }
    t
}

/// Per-phase message totals for every profiled overlay: one row per
/// kind, one column per [`dht_core::obs::Phase`].
#[must_use]
pub fn profile_messages(rows: &[ProfileRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .flat_map(|r| {
            ALL_PHASES.iter().map(move |&p| {
                (
                    r.label.clone(),
                    p.label().to_string(),
                    r.phases.get(p).msgs.to_string(),
                )
            })
        })
        .collect();
    pivot(
        "Profile: messages billed per phase under default churn",
        "Overlay",
        &triples,
    )
}

/// Per-phase routine invocations for every profiled overlay.
#[must_use]
pub fn profile_calls(rows: &[ProfileRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .flat_map(|r| {
            ALL_PHASES.iter().map(move |&p| {
                (
                    r.label.clone(),
                    p.label().to_string(),
                    r.phases.get(p).calls.to_string(),
                )
            })
        })
        .collect();
    pivot(
        "Profile: phase invocations under default churn",
        "Overlay",
        &triples,
    )
}

/// Simulated lookup-latency quantiles from the log₂-bucket histogram
/// (nearest-rank; mid-range values carry a factor-of-two error bound,
/// extremes are exact — see [`dht_core::obs::Histogram::quantile`]).
#[must_use]
pub fn profile_latency(rows: &[ProfileRow]) -> Table {
    let mut t = Table::new(
        "Profile: simulated lookup latency quantiles (µs)",
        &["Overlay", "p50", "p90", "p99", "max", "lookups"],
    );
    for r in rows {
        let q = |q: f64| {
            r.latency
                .quantile(q)
                .map_or_else(|| "—".to_string(), |v| v.to_string())
        };
        t.row(vec![
            r.label.clone(),
            q(0.5),
            q(0.9),
            q(0.99),
            q(1.0),
            r.latency.count().to_string(),
        ]);
    }
    t
}

/// Extension: time and cost to recover from seeded routing-state
/// corruption, with the full-scope audit as the recovery oracle.
#[must_use]
pub fn recover(rows: &[RecoverRow]) -> Table {
    let clean = |v: Option<u64>| v.map_or_else(|| "—".to_string(), |s| format!("{s}"));
    let mut t = Table::new(
        "Extension: self-stabilizing recovery from corrupted routing state",
        &[
            "strategy",
            "severity",
            "T (s)",
            "system",
            "targeted",
            "entries hit",
            "clean (s)",
            "repair calls",
            "entries fixed",
            "post failures",
        ],
    );
    for r in rows {
        t.row(vec![
            r.strategy.label().to_string(),
            format!("{:.2}", r.severity),
            format!("{}", r.period),
            r.label.clone(),
            format!("{}", r.targeted),
            format!("{}", r.mutated_entries),
            clean(r.clean_s),
            format!("{}", r.repair_calls),
            format!("{}", r.repaired_entries),
            format!("{}", r.post.failures),
        ]);
    }
    t
}

/// The `repro metrics` summary: one row per metric across every loaded
/// `BENCH_*.json` document, with a compact type-appropriate value cell.
#[must_use]
pub fn metrics_summary(files: &[crate::metrics_io::BenchFile]) -> Table {
    use dht_core::obs::json::Json;
    let mut t = Table::new(
        "Benchmark metrics (BENCH_*.json)",
        &["experiment", "metric", "type", "value"],
    );
    for file in files {
        let experiment = file
            .doc
            .get("experiment")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let metrics = file
            .doc
            .get("metrics")
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let kind = m.get("type").and_then(Json::as_str).unwrap_or("?");
            let num = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let value = match kind {
                "counter" => format!("{}", num("value")),
                "gauge" => f(num("value")),
                "histogram" => {
                    format!(
                        "n={} mean={} max={}",
                        num("count"),
                        f(num("mean")),
                        num("max")
                    )
                }
                _ => "-".to_string(),
            };
            t.row(vec![
                experiment.clone(),
                name.to_string(),
                kind.to_string(),
                value,
            ]);
        }
    }
    t
}
