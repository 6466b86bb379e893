//! Turns experiment rows into the paper's table/figure layouts.

use dht_sim::chart::{chart_from_triples, Chart};
use dht_sim::experiments::churn_exp::ChurnRow;
use dht_sim::experiments::converge::ConvergeRow;
use dht_sim::experiments::fault_tolerance::FaultToleranceRow;
use dht_sim::experiments::key_distribution::KeyDistributionRow;
use dht_sim::experiments::mass_departure::MassDepartureRow;
use dht_sim::experiments::path_length::PathLengthRow;
use dht_sim::experiments::profile::ProfileRow;
use dht_sim::experiments::query_load::QueryLoadRow;
use dht_sim::experiments::recover::RecoverRow;
use dht_sim::experiments::scale::ScaleRow;
use dht_sim::experiments::sparsity::SparsityRow;
use dht_sim::experiments::static_tables;
use dht_sim::experiments::ungraceful::UngracefulRow;
use dht_sim::report::{audit_cell, f, mean_p01_p99, Table};

use dht_core::lookup::HopPhase;
use dht_core::obs::ALL_PHASES;

/// Pivots `(x, series, value)` triples into a table with one row per `x`
/// and one column per series, preserving first-appearance order.
fn pivot(title: &str, x_header: &str, triples: &[(String, String, String)]) -> Table {
    let mut xs: Vec<String> = Vec::new();
    let mut series: Vec<String> = Vec::new();
    for (x, s, _) in triples {
        if !xs.contains(x) {
            xs.push(x.clone());
        }
        if !series.contains(s) {
            series.push(s.clone());
        }
    }
    let mut headers: Vec<&str> = vec![x_header];
    headers.extend(series.iter().map(String::as_str));
    let mut table = Table::new(title, &headers);
    for x in &xs {
        let mut cells = vec![x.clone()];
        for s in &series {
            let v = triples
                .iter()
                .find(|(tx, ts, _)| tx == x && ts == s)
                .map_or("-".to_string(), |(_, _, v)| v.clone());
            cells.push(v);
        }
        table.row(cells);
    }
    table
}

/// Table 1: architectural comparison.
#[must_use]
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: comparison of representative P2P DHTs",
        &[
            "System",
            "Base network",
            "Lookup complexity",
            "Routing table size",
        ],
    );
    for r in static_tables::table1() {
        t.row(vec![
            r.system.to_string(),
            r.base.to_string(),
            r.lookup.to_string(),
            r.table_size,
        ]);
    }
    t
}

/// Table 2: routing state of node (4, 10110110) in a complete 8-d Cycloid.
#[must_use]
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: routing table state of Cycloid node (4,10110110), d = 8",
        &["Entry", "Value"],
    );
    for e in static_tables::table2() {
        t.row(vec![e.entry.to_string(), e.value]);
    }
    t
}

/// Table 3: node identification and key assignment.
#[must_use]
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: node identification and key assignment",
        &["Property", "Cycloid", "Viceroy", "Koorde"],
    );
    for r in static_tables::table3() {
        t.row(vec![
            r.property.to_string(),
            r.cycloid.to_string(),
            r.viceroy.to_string(),
            r.koorde.to_string(),
        ]);
    }
    t
}

/// Fig. 5: mean lookup path length vs network size.
#[must_use]
pub fn fig5(rows: &[PathLengthRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| (r.n.to_string(), r.agg.label.clone(), f(r.agg.path.mean)))
        .collect();
    pivot(
        "Fig 5: mean path length vs network size (n = d*2^d)",
        "n",
        &triples,
    )
}

/// Fig. 6: mean lookup path length vs network dimension.
#[must_use]
pub fn fig6(rows: &[PathLengthRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                r.dimension.to_string(),
                r.agg.label.clone(),
                f(r.agg.path.mean),
            )
        })
        .collect();
    pivot("Fig 6: mean path length vs dimension d", "d", &triples)
}

/// Fig. 7: per-phase path-length breakdown for one overlay.
#[must_use]
pub fn fig7(rows: &[PathLengthRow], label: &str, phases: &[HopPhase]) -> Table {
    let mut headers: Vec<String> = vec!["n".to_string()];
    for p in phases {
        headers.push(format!("{} hops", p.label()));
        headers.push(format!("{} %", p.label()));
    }
    headers.push("total".to_string());
    let mut t = Table::new(
        &format!("Fig 7: path-length breakdown — {label}"),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for r in rows.iter().filter(|r| r.agg.label == label) {
        let mut cells = vec![r.n.to_string()];
        for &p in phases {
            cells.push(f(r.agg.breakdown.mean_hops(p)));
            cells.push(format!("{:.1}", 100.0 * r.agg.breakdown.share(p)));
        }
        cells.push(f(r.agg.breakdown.mean_path_len()));
        t.row(cells);
    }
    t
}

/// Figs. 8/9: keys per node, `mean (p01, p99)`.
#[must_use]
pub fn fig_keys(rows: &[KeyDistributionRow], title: &str) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                r.keys.to_string(),
                r.label.clone(),
                mean_p01_p99(&r.per_node),
            )
        })
        .collect();
    pivot(title, "keys", &triples)
}

/// Fig. 10: query load per node, `mean (p01, p99)`.
#[must_use]
pub fn fig10(rows: &[QueryLoadRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| (r.n.to_string(), r.label.clone(), mean_p01_p99(&r.load)))
        .collect();
    pivot(
        "Fig 10: query load per node, mean (1st pct, 99th pct)",
        "n",
        &triples,
    )
}

/// Fig. 11: mean path length vs departure probability.
#[must_use]
pub fn fig11(rows: &[MassDepartureRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.1}", r.p),
                r.agg.label.clone(),
                f(r.agg.path.mean),
            )
        })
        .collect();
    pivot(
        "Fig 11: mean path length vs node departure probability p",
        "p",
        &triples,
    )
}

/// Table 4: timeouts per lookup vs departure probability.
#[must_use]
pub fn table4(rows: &[MassDepartureRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.1}", r.p),
                r.agg.label.clone(),
                mean_p01_p99(&r.agg.timeouts),
            )
        })
        .collect();
    pivot(
        "Table 4: timeouts per lookup, mean (1st pct, 99th pct)",
        "p",
        &triples,
    )
}

/// Companion of Table 4: lookup failures per run (§4.3's Koorde counts).
#[must_use]
pub fn table4_failures(rows: &[MassDepartureRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.1}", r.p),
                r.agg.label.clone(),
                r.agg.failures.to_string(),
            )
        })
        .collect();
    pivot("Lookup failures under mass departures", "p", &triples)
}

/// Fig. 12: mean path length vs node join/leave rate.
#[must_use]
pub fn fig12(rows: &[ChurnRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| (format!("{:.2}", r.rate), r.label.clone(), f(r.path.mean)))
        .collect();
    pivot(
        "Fig 12: mean path length vs node join/leave rate R (per second)",
        "R",
        &triples,
    )
}

/// Table 5: timeouts per lookup vs churn rate.
#[must_use]
pub fn table5(rows: &[ChurnRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.2}", r.rate),
                r.label.clone(),
                format!(
                    "{:.4} ({:.0}, {:.0})",
                    r.timeouts.mean, r.timeouts.p01, r.timeouts.p99
                ),
            )
        })
        .collect();
    pivot(
        "Table 5: timeouts per lookup under churn, mean (1st pct, 99th pct)",
        "R",
        &triples,
    )
}

/// Online-audit outcome for every churn cell: `clean (N)` after `N` node
/// checks, or the violation count. Emitted when the churn sweep ran with
/// [`dht_sim::experiments::churn_exp::ChurnExpParams::audit`] enabled.
#[must_use]
pub fn churn_audit(rows: &[ChurnRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.2}", r.rate),
                r.label.clone(),
                audit_cell(r.audit.as_ref()),
            )
        })
        .collect();
    pivot(
        "Online protocol-invariant audit under churn (nodes checked)",
        "R",
        &triples,
    )
}

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

/// Extension: the loss-rate sweep — success, retries, and latency per
/// overlay under message-level faults.
#[must_use]
pub fn fault(rows: &[FaultToleranceRow]) -> Table {
    let mut t = Table::new(
        "Extension: lookup resilience under message loss (retry w/ backoff)",
        &[
            "loss %",
            "system",
            "success %",
            "path mean",
            "retries mean (p99)",
            "msg timeouts mean",
            "latency ms mean (p50, p99)",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.0}", 100.0 * r.loss),
            r.label.clone(),
            format!("{:.2}", 100.0 * r.success_rate()),
            f(r.agg.path.mean),
            format!("{:.3} ({:.0})", r.agg.retries.mean, r.agg.retries.p99),
            format!("{:.4}", r.agg.msg_timeouts.mean),
            format!(
                "{:.1} ({:.1}, {:.1})",
                r.agg.latency_ms.mean, r.agg.latency_ms.p50, r.agg.latency_ms.p99
            ),
        ]);
    }
    t
}

/// Routing-state audit after every lossy cell: message faults must never
/// mutate routing tables, so every cell must stay clean.
#[must_use]
pub fn fault_audit(rows: &[FaultToleranceRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.0}%", 100.0 * r.loss),
                r.label.clone(),
                audit_cell(r.audit.as_ref()),
            )
        })
        .collect();
    pivot(
        "Routing-state audit after lossy lookups (nodes checked)",
        "loss",
        &triples,
    )
}

/// Fig. 13: mean path length vs degree of sparsity.
#[must_use]
pub fn fig13(rows: &[SparsityRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| {
            (
                format!("{:.0}%", 100.0 * r.sparsity),
                r.agg.label.clone(),
                f(r.agg.path.mean),
            )
        })
        .collect();
    pivot(
        "Fig 13: mean path length vs degree of network sparsity",
        "sparsity",
        &triples,
    )
}

/// Fig. 14: Koorde's de Bruijn/successor breakdown vs sparsity.
#[must_use]
pub fn fig14(rows: &[SparsityRow]) -> Table {
    let mut t = Table::new(
        "Fig 14: Koorde path-length breakdown vs sparsity",
        &["sparsity", "debruijn hops", "successor hops", "successor %"],
    );
    for r in rows.iter().filter(|r| r.agg.label == "Koorde") {
        t.row(vec![
            format!("{:.0}%", 100.0 * r.sparsity),
            f(r.agg.breakdown.mean_hops(HopPhase::DeBruijn)),
            f(r.agg.breakdown.mean_hops(HopPhase::Successor)),
            format!("{:.1}", 100.0 * r.agg.breakdown.share(HopPhase::Successor)),
        ]);
    }
    t
}

/// Chart versions of the line figures (for `repro --chart`).
pub mod charts {
    use super::*;
    use dht_sim::experiments::churn_exp::ChurnRow;
    use dht_sim::experiments::mass_departure::MassDepartureRow;
    use dht_sim::experiments::path_length::PathLengthRow;
    use dht_sim::experiments::sparsity::SparsityRow;

    /// Fig. 5 as a terminal chart.
    #[must_use]
    pub fn fig5(rows: &[PathLengthRow]) -> Chart {
        let triples: Vec<_> = rows
            .iter()
            .map(|r| (r.n.to_string(), r.agg.label.clone(), r.agg.path.mean))
            .collect();
        chart_from_triples("Fig 5 (chart): mean path length vs n", &triples)
    }

    /// Fig. 6 as a terminal chart.
    #[must_use]
    pub fn fig6(rows: &[PathLengthRow]) -> Chart {
        let triples: Vec<_> = rows
            .iter()
            .map(|r| {
                (
                    r.dimension.to_string(),
                    r.agg.label.clone(),
                    r.agg.path.mean,
                )
            })
            .collect();
        chart_from_triples("Fig 6 (chart): mean path length vs d", &triples)
    }

    /// Fig. 11 as a terminal chart.
    #[must_use]
    pub fn fig11(rows: &[MassDepartureRow]) -> Chart {
        let triples: Vec<_> = rows
            .iter()
            .map(|r| (format!("{:.1}", r.p), r.agg.label.clone(), r.agg.path.mean))
            .collect();
        chart_from_triples(
            "Fig 11 (chart): mean path length vs departure probability",
            &triples,
        )
    }

    /// Fig. 12 as a terminal chart.
    #[must_use]
    pub fn fig12(rows: &[ChurnRow]) -> Chart {
        let triples: Vec<_> = rows
            .iter()
            .map(|r| (format!("{:.2}", r.rate), r.label.clone(), r.path.mean))
            .collect();
        chart_from_triples("Fig 12 (chart): mean path length vs churn rate R", &triples)
    }

    /// The loss sweep as a terminal chart: success rate vs loss.
    #[must_use]
    pub fn fault(rows: &[FaultToleranceRow]) -> Chart {
        let triples: Vec<_> = rows
            .iter()
            .map(|r| {
                (
                    format!("{:.0}%", 100.0 * r.loss),
                    r.label.clone(),
                    100.0 * r.success_rate(),
                )
            })
            .collect();
        chart_from_triples(
            "Fault sweep (chart): lookup success % vs message loss",
            &triples,
        )
    }

    /// Fig. 13 as a terminal chart.
    #[must_use]
    pub fn fig13(rows: &[SparsityRow]) -> Chart {
        let triples: Vec<_> = rows
            .iter()
            .map(|r| {
                (
                    format!("{:.0}%", 100.0 * r.sparsity),
                    r.agg.label.clone(),
                    r.agg.path.mean,
                )
            })
            .collect();
        chart_from_triples("Fig 13 (chart): mean path length vs sparsity", &triples)
    }
}

/// Extension: mean path length of the paper's systems plus the Pastry and
/// CAN baselines of Table 1, at equal sizes.
#[must_use]
pub fn ext_path(rows: &[PathLengthRow]) -> Table {
    let triples: Vec<_> = rows
        .iter()
        .map(|r| (r.n.to_string(), r.agg.label.clone(), f(r.agg.path.mean)))
        .collect();
    pivot(
        "Extension: mean path length incl. Pastry (hypercube) and CAN (mesh)",
        "n",
        &triples,
    )
}

/// Extension: hot spots under Zipf key popularity.
#[must_use]
pub fn ext_hotspot(rows: &[dht_sim::experiments::hotspot::HotspotRow]) -> Table {
    let mut t = Table::new(
        "Extension: query load under uniform vs Zipf(1.0) key popularity",
        &[
            "system",
            "uniform mean (p01, p99)",
            "uniform max",
            "zipf mean (p01, p99)",
            "zipf max",
            "hot-spot amplification",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            mean_p01_p99(&r.uniform),
            format!("{:.0}", r.uniform.max),
            mean_p01_p99(&r.zipf),
            format!("{:.0}", r.zipf.max),
            format!("{:.2}x", r.amplification()),
        ]);
    }
    t
}

/// Extension: maintenance burden — out-degree (state per node) and
/// in-degree (pointers dangling on departure) distributions.
#[must_use]
pub fn ext_degree(rows: &[dht_sim::experiments::maintenance::MaintenanceRow]) -> Table {
    let mut t = Table::new(
        "Extension: routing-state degree and departure repair bill",
        &[
            "system",
            "n",
            "out-degree mean",
            "out max",
            "in-degree p99",
            "in max",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.n.to_string(),
            f(r.out_degree.mean),
            format!("{:.0}", r.out_degree.max),
            format!("{:.0}", r.in_degree.p99),
            format!("{:.0}", r.in_degree.max),
        ]);
    }
    t
}

/// Extension: lookup success under ungraceful failures, before/after one
/// stabilization round.
#[must_use]
pub fn ext_failures(rows: &[UngracefulRow]) -> Table {
    let mut t = Table::new(
        "Extension: ungraceful failures — lookup success rate and timeouts",
        &[
            "p",
            "system",
            "survivors",
            "success % (pre-stab)",
            "timeouts (pre-stab)",
            "success % (post-stab)",
        ],
    );
    for r in rows {
        let pre_ok = 100.0 * (r.before_stabilize.path.n - r.before_stabilize.failures) as f64
            / r.before_stabilize.path.n.max(1) as f64;
        let post_ok = 100.0 * (r.after_stabilize.path.n - r.after_stabilize.failures) as f64
            / r.after_stabilize.path.n.max(1) as f64;
        t.row(vec![
            format!("{:.1}", r.p),
            r.before_stabilize.label.clone(),
            r.survivors.to_string(),
            format!("{pre_ok:.2}"),
            mean_p01_p99(&r.before_stabilize.timeouts),
            format!("{post_ok:.2}"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert!(table1().render().contains("Cycloid"));
        assert!(table2().render().contains("cubical neighbor"));
        assert!(table3().render().contains("Key placement"));
    }

    #[test]
    fn pivot_fills_missing_with_dash() {
        let triples = vec![
            ("1".to_string(), "A".to_string(), "x".to_string()),
            ("2".to_string(), "B".to_string(), "y".to_string()),
        ];
        let t = pivot("t", "k", &triples);
        let s = t.render();
        assert!(s.contains('-'), "missing cells dashed:\n{s}");
    }
}
