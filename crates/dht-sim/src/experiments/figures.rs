//! Every table and figure `repro` prints, one [`Experiment`] each, in
//! print order: the paper's Tables 1–5 and Figs 5–14 (§4) and the
//! extensions `repro all` adds, then `converge`, `recover`, `scale` and
//! `profile`, which `all` leaves out.
//!
//! Every entry says what `{x}` sweeps. Paper-scale grids follow the
//! paper's setup, which each cell function's comment quotes; quick grids
//! shrink them for CI.

use std::collections::BTreeMap;

use chord::ChordNetwork;
use cycloid::state::Link;
use cycloid::{CycloidConfig, CycloidId, CycloidNetwork};
use dht_core::audit::AuditScope;
use dht_core::clock::SECOND;
use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy, Links};
use dht_core::lookup::HopPhase;
use dht_core::net::{DelayModel, FaultPlan, NetConditions, RetryPolicy};
use dht_core::obs::{Phase, Telemetry, ALL_PHASES};
use dht_core::overlay::{key_counts, Overlay};
use dht_core::rng::{stream, stream_indexed};
use dht_core::sim::SimOverlay;
use dht_core::stats::{percentile_sorted, Histogram, Summary};
use dht_core::workload::{
    key_population, per_node_uniform, random_pairs, zipf_pairs, LookupRequest, ZipfKeys,
};
use koorde::KoordeNetwork;
use pastry::PastryNetwork;
use rand::Rng;
use viceroy::ViceroyNetwork;

use super::{run_requests_jobs, At, Cell, Experiment, Grid, LookupAggregate, Measured, Value};
use crate::churn::{run_churn, run_until_clean, BucketIndex, ChurnParams, ChurnSample, TimeModel};
use crate::factory::{
    build_overlay_spaced, cycloid_dim_for, OverlayKind, ALL_KINDS, EXTENDED_KINDS, PAPER_KINDS,
};
use crate::report::{f, mean_p01_p99, Column, Layout, Table};

use OverlayKind::{Can, Chord, Cycloid7, Koorde, Pastry, Viceroy};

/// Every experiment `repro` runs, in print order.
pub static EXPERIMENTS: &[Experiment] = &[
    // {x}: the network size the degrees are measured at.
    Experiment {
        name: "static_tables",
        what: "regenerating tables 1-3...",
        quick: TABLE1_GRID,
        paper: TABLE1_GRID,
        metric: |c| format!("table1.{}", c.label),
        measure: table1,
        layouts: &[
            (
                "table1",
                Layout::Flat {
                    title: "Table 1: comparison of representative P2P DHTs",
                    rows: |_| true,
                    cols: &[
                        ("System", |c| c.label.clone()),
                        ("Base network", |c| c.text("base").into()),
                        ("Lookup complexity", |c| c.text("lookup").into()),
                        ("Routing table size", |c| c.text("size").into()),
                    ],
                },
            ),
            ("table2", Layout::Fixed(table2)),
            ("table3", Layout::Fixed(table3)),
        ],
        check: |_| Ok(()),
    },
    // {x}: network size n = d·2^d.
    Experiment {
        name: "path_length",
        what: "running path-length sweep (figs 5-7)...",
        quick: Grid {
            kinds: &PAPER_KINDS,
            axis: &[24.0, 64.0, 160.0, 384.0, 896.0, 2048.0],
            lookups: 8,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: &[24.0, 64.0, 160.0, 384.0, 896.0, 2048.0],
            lookups: 512,
            ..NONE
        },
        metric: |c| format!("{}/n={}", c.label, c.x),
        measure: path_length,
        layouts: &[
            (
                "fig5",
                Layout::Pivot {
                    title: "Fig 5: mean path length vs network size (n = d*2^d)",
                    x_header: "n",
                    x: int,
                    cell: |c| f(mean_path(c)),
                },
            ),
            (
                "fig5",
                Layout::Chart {
                    title: "Fig 5 (chart): mean path length vs n",
                    x: int,
                    y: mean_path,
                },
            ),
            (
                "fig6",
                Layout::Pivot {
                    title: "Fig 6: mean path length vs dimension d",
                    x_header: "d",
                    x: dim,
                    cell: |c| f(mean_path(c)),
                },
            ),
            (
                "fig6",
                Layout::Chart {
                    title: "Fig 6 (chart): mean path length vs d",
                    x: dim,
                    y: mean_path,
                },
            ),
            (
                "fig7",
                Layout::Flat {
                    title: "Fig 7: path-length breakdown — Cycloid(7)",
                    rows: |c| c.label == "Cycloid(7)",
                    cols: CYCLOID_PHASES,
                },
            ),
            (
                "fig7",
                Layout::Flat {
                    title: "Fig 7: path-length breakdown — Cycloid(11)",
                    rows: |c| c.label == "Cycloid(11)",
                    cols: CYCLOID_PHASES,
                },
            ),
            (
                "fig7",
                Layout::Flat {
                    title: "Fig 7: path-length breakdown — Viceroy",
                    rows: |c| c.label == "Viceroy",
                    cols: CYCLOID_PHASES,
                },
            ),
            (
                "fig7",
                Layout::Flat {
                    title: "Fig 7: path-length breakdown — Koorde",
                    rows: |c| c.label == "Koorde",
                    cols: KOORDE_PHASES,
                },
            ),
        ],
        check: |_| Ok(()),
    },
    // {x}: keys distributed.
    Experiment {
        name: "key_distribution_dense",
        what: "running key-distribution sweep (fig 8, dense)...",
        quick: Grid {
            kinds: &[Cycloid7, Viceroy, Koorde],
            axis: &[10_000.0, 50_000.0, 100_000.0],
            nodes: 2000,
            space: 2048,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: KEY_COUNTS,
            nodes: 2000,
            space: 2048,
            ..NONE
        },
        metric: |c| format!("{}/keys={}", c.label, c.x),
        measure: key_distribution,
        layouts: &[(
            "fig8",
            Layout::Pivot {
                title: "Fig 8: keys per node, 2000 nodes in a 2048-slot space, mean (p01, p99)",
                x_header: "keys",
                x: int,
                cell: |c| mean_p01_p99(c.summary(".keys_per_node")),
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: keys distributed.
    Experiment {
        name: "key_distribution_sparse",
        what: "running key-distribution sweep (fig 9, sparse)...",
        quick: Grid {
            kinds: &[Cycloid7, Viceroy, Koorde],
            axis: &[10_000.0, 50_000.0, 100_000.0],
            nodes: 1000,
            space: 2048,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: KEY_COUNTS,
            nodes: 1000,
            space: 2048,
            ..NONE
        },
        metric: |c| format!("{}/keys={}", c.label, c.x),
        measure: key_distribution,
        layouts: &[(
            "fig9",
            Layout::Pivot {
                title: "Fig 9: keys per node, 1000 nodes in a 2048-slot space, mean (p01, p99)",
                x_header: "keys",
                x: int,
                cell: |c| mean_p01_p99(c.summary(".keys_per_node")),
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: network size.
    Experiment {
        name: "query_load",
        what: "running query-load sweep (fig 10)...",
        quick: Grid {
            kinds: &PAPER_KINDS,
            axis: &[64.0, 512.0],
            lookups: 16,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: &[64.0, 2048.0],
            lookups: 512,
            ..NONE
        },
        metric: |c| format!("{}/n={}", c.label, c.x),
        measure: query_load,
        layouts: &[(
            "fig10",
            Layout::Pivot {
                title: "Fig 10: query load per node, mean (1st pct, 99th pct)",
                x_header: "n",
                x: int,
                cell: |c| mean_p01_p99(c.summary(".load")),
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: departure probability p.
    Experiment {
        name: "mass_departure",
        what: "running mass-departure sweep (fig 11 / table 4)...",
        quick: Grid {
            kinds: &PAPER_KINDS,
            axis: &[0.2, 0.5],
            nodes: 2048,
            lookups: 2_000,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: &[0.1, 0.2, 0.3, 0.4, 0.5],
            nodes: 2048,
            lookups: 10_000,
            ..NONE
        },
        metric: |c| format!("{}/p={}", c.label, c.x),
        measure: mass_departure,
        layouts: &[
            (
                "fig11",
                Layout::Pivot {
                    title: "Fig 11: mean path length vs node departure probability p",
                    x_header: "p",
                    x: dec1,
                    cell: |c| f(mean_path(c)),
                },
            ),
            (
                "fig11",
                Layout::Chart {
                    title: "Fig 11 (chart): mean path length vs departure probability",
                    x: dec1,
                    y: mean_path,
                },
            ),
            (
                "table4",
                Layout::Pivot {
                    title: "Table 4: timeouts per lookup, mean (1st pct, 99th pct)",
                    x_header: "p",
                    x: dec1,
                    cell: |c| mean_p01_p99(&c.lookups("").timeouts),
                },
            ),
            (
                "table4",
                Layout::Pivot {
                    title: "Lookup failures under mass departures",
                    x_header: "p",
                    x: dec1,
                    cell: |c| c.lookups("").failures.to_string(),
                },
            ),
        ],
        check: |_| Ok(()),
    },
    // {x}: churn rate R, joins and leaves per second each.
    Experiment {
        name: "churn",
        what: "running churn sweep (fig 12 / table 5)...",
        quick: Grid {
            kinds: &PAPER_KINDS,
            axis: &[0.05, 0.20, 0.40],
            nodes: 512,
            lookups: 1_000,
            audit: true,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: &[0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40],
            nodes: 2048,
            lookups: 10_000,
            ..NONE
        },
        metric: |c| format!("{}/R={}", c.label, c.x),
        measure: churn,
        layouts: &[
            (
                "fig12",
                Layout::Pivot {
                    title: "Fig 12: mean path length vs node join/leave rate R (per second)",
                    x_header: "R",
                    x: dec2,
                    cell: |c| f(c.num(".mean_path")),
                },
            ),
            (
                "fig12",
                Layout::Chart {
                    title: "Fig 12 (chart): mean path length vs churn rate R",
                    x: dec2,
                    y: |c| c.num(".mean_path"),
                },
            ),
            (
                "table5",
                Layout::Pivot {
                    title: "Table 5: timeouts per lookup under churn, mean (1st pct, 99th pct)",
                    x_header: "R",
                    x: dec2,
                    cell: |c| {
                        let t = c.summary("timeouts");
                        format!("{:.4} ({:.0}, {:.0})", t.mean, t.p01, t.p99)
                    },
                },
            ),
            (
                "",
                Layout::Audit {
                    title: "Online protocol-invariant audit under churn (nodes checked)",
                    x_header: "R",
                    x: dec2,
                },
            ),
        ],
        check: |_| Ok(()),
    },
    // {x}: sparsity, the fraction of the identifier space left empty.
    Experiment {
        name: "sparsity",
        what: "running sparsity sweep (figs 13-14)...",
        quick: Grid {
            kinds: &PAPER_KINDS,
            axis: &[0.0, 0.3, 0.6, 0.9],
            space: 2048,
            lookups: 2_000,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            space: 2048,
            lookups: 10_000,
            ..NONE
        },
        metric: |c| format!("{}/sparsity={}", c.label, c.x),
        measure: sparsity,
        layouts: &[
            (
                "fig13",
                Layout::Pivot {
                    title: "Fig 13: mean path length vs degree of network sparsity",
                    x_header: "sparsity",
                    x: pct,
                    cell: |c| f(mean_path(c)),
                },
            ),
            (
                "fig13",
                Layout::Chart {
                    title: "Fig 13 (chart): mean path length vs sparsity",
                    x: pct,
                    y: mean_path,
                },
            ),
            (
                "fig14",
                Layout::Flat {
                    title: "Fig 14: Koorde path-length breakdown vs sparsity",
                    rows: |c| c.label == "Koorde",
                    cols: &[
                        ("sparsity", |c| pct(c.x)),
                        ("debruijn hops", |c| hops(c, HopPhase::DeBruijn)),
                        ("successor hops", |c| hops(c, HopPhase::Successor)),
                        ("successor %", |c| share(c, HopPhase::Successor)),
                    ],
                },
            ),
        ],
        check: |_| Ok(()),
    },
    // {x}: network size. Fig 5's sweep over Table 1's baselines too.
    Experiment {
        name: "ext_path",
        what: "running extended path-length comparison (Pastry, CAN)...",
        quick: Grid {
            kinds: &EXTENDED_KINDS,
            axis: &[64.0, 160.0, 384.0],
            lookups: 8,
            ..NONE
        },
        paper: Grid {
            kinds: &EXTENDED_KINDS,
            axis: &[64.0, 160.0, 384.0],
            lookups: 32,
            ..NONE
        },
        metric: |c| format!("{}/n={}", c.label, c.x),
        measure: path_length,
        layouts: &[(
            "extpath",
            Layout::Pivot {
                title: "Extension: mean path length incl. Pastry (hypercube) and CAN (mesh)",
                x_header: "n",
                x: int,
                cell: |c| f(mean_path(c)),
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: catalogue size of the Zipf workload.
    Experiment {
        name: "hotspot",
        what: "running hot-spot workload extension...",
        quick: Grid {
            kinds: &[Cycloid7, Chord],
            axis: &[2_000.0],
            nodes: 256,
            lookups: 5_000,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: &[10_000.0],
            nodes: 2048,
            lookups: 50_000,
            ..NONE
        },
        metric: |c| c.label.clone(),
        measure: hotspot,
        layouts: &[(
            "exthotspot",
            Layout::Flat {
                title: "Extension: query load under uniform vs Zipf(1.0) key popularity",
                rows: |_| true,
                cols: &[
                    ("system", |c| c.label.clone()),
                    ("uniform mean (p01, p99)", |c| {
                        mean_p01_p99(c.summary(".uniform"))
                    }),
                    ("uniform max", |c| {
                        format!("{:.0}", c.summary(".uniform").max)
                    }),
                    ("zipf mean (p01, p99)", |c| mean_p01_p99(c.summary(".zipf"))),
                    ("zipf max", |c| format!("{:.0}", c.summary(".zipf").max)),
                    ("hot-spot amplification", |c| {
                        format!("{:.2}x", c.num(".amplification"))
                    }),
                ],
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: network size.
    Experiment {
        name: "maintenance",
        what: "measuring maintenance degrees (extension)...",
        quick: Grid {
            kinds: &[Cycloid7, Viceroy, Koorde, Chord, Pastry],
            axis: &[256.0],
            ..NONE
        },
        paper: Grid {
            kinds: &[Cycloid7, Viceroy, Koorde, Chord, Pastry],
            axis: &[2048.0],
            ..NONE
        },
        metric: |c| format!("{}/n={}", c.label, c.x),
        measure: maintenance,
        layouts: &[(
            "extdegree",
            Layout::Flat {
                title: "Extension: routing-state degree and departure repair bill",
                rows: |_| true,
                cols: &[
                    ("system", |c| c.label.clone()),
                    ("n", |c| int(c.x)),
                    ("out-degree mean", |c| f(c.summary(".out_degree").mean)),
                    ("out max", |c| {
                        format!("{:.0}", c.summary(".out_degree").max)
                    }),
                    ("in-degree p99", |c| {
                        format!("{:.0}", c.summary(".in_degree").p99)
                    }),
                    ("in max", |c| format!("{:.0}", c.summary(".in_degree").max)),
                ],
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: per-message loss probability.
    Experiment {
        name: "fault",
        what: "running message-loss sweep (fault extension)...",
        quick: Grid {
            kinds: &ALL_KINDS,
            axis: LOSSES,
            nodes: 128,
            lookups: 200,
            audit: true,
            ..NONE
        },
        paper: Grid {
            kinds: &ALL_KINDS,
            axis: LOSSES,
            nodes: 1024,
            lookups: 2_000,
            ..NONE
        },
        metric: |c| format!("{}/loss={}", c.label, c.x),
        measure: fault,
        layouts: &[
            (
                "fault",
                Layout::Flat {
                    title: "Extension: lookup resilience under message loss (retry w/ backoff)",
                    rows: |_| true,
                    cols: &[
                        ("loss %", |c| format!("{:.0}", 100.0 * c.x)),
                        ("system", |c| c.label.clone()),
                        ("success %", |c| {
                            format!("{:.2}", 100.0 * c.num(".success_rate"))
                        }),
                        ("path mean", |c| f(c.lookups("").path.mean)),
                        ("retries mean (p99)", |c| {
                            let r = &c.lookups("").retries;
                            format!("{:.3} ({:.0})", r.mean, r.p99)
                        }),
                        ("msg timeouts mean", |c| {
                            format!("{:.4}", c.lookups("").msg_timeouts.mean)
                        }),
                        ("latency ms mean (p50, p99)", |c| {
                            let l = &c.lookups("").latency_ms;
                            format!("{:.1} ({:.1}, {:.1})", l.mean, l.p50, l.p99)
                        }),
                    ],
                },
            ),
            (
                "fault",
                Layout::Chart {
                    title: "Fault sweep (chart): lookup success % vs message loss",
                    x: pct,
                    y: |c| 100.0 * c.num(".success_rate"),
                },
            ),
            (
                "fault",
                Layout::Audit {
                    title: "Routing-state audit after lossy lookups (nodes checked)",
                    x_header: "loss",
                    x: pct,
                },
            ),
        ],
        check: |_| Ok(()),
    },
    // {x}: crash probability p.
    Experiment {
        name: "ungraceful",
        what: "running ungraceful-failure extension...",
        quick: Grid {
            kinds: &[Cycloid7, Koorde, Chord],
            axis: &[0.2, 0.4],
            nodes: 512,
            lookups: 800,
            ..NONE
        },
        paper: Grid {
            kinds: &PAPER_KINDS,
            axis: &[0.1, 0.2, 0.3, 0.4, 0.5],
            nodes: 2048,
            lookups: 10_000,
            ..NONE
        },
        metric: |c| format!("{}/p={}", c.label, c.x),
        measure: ungraceful,
        layouts: &[(
            "extfail",
            Layout::Flat {
                title: "Extension: ungraceful failures — lookup success rate and timeouts",
                rows: |_| true,
                cols: &[
                    ("p", |c| dec1(c.x)),
                    ("system", |c| c.label.clone()),
                    ("survivors", |c| c.num(".survivors").to_string()),
                    ("success % (pre-stab)", |c| ok_pct(c.lookups("/before"))),
                    ("timeouts (pre-stab)", |c| {
                        mean_p01_p99(&c.lookups("/before").timeouts)
                    }),
                    ("success % (post-stab)", |c| ok_pct(c.lookups("/after"))),
                ],
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: stabilization period T, seconds.
    Experiment {
        name: "converge",
        what: "running stabilization-convergence sweep (virtual clock)...",
        quick: Grid {
            kinds: &ALL_KINDS,
            axis: &[10.0, 30.0],
            nodes: 128,
            space: 192,
            lookups: 300,
            ..NONE
        },
        paper: Grid {
            kinds: &ALL_KINDS,
            axis: &[10.0, 30.0, 60.0],
            nodes: 1024,
            space: 1536,
            lookups: 2_000,
            ..NONE
        },
        metric: |c| format!("{}/T={}", c.label, c.x),
        measure: converge,
        layouts: &[
            (
                "converge",
                Layout::Flat {
                    title: "Extension: time to audit-clean after membership shocks (simulated seconds)",
                    rows: |_| true,
                    cols: &[
                        ("T (s)", |c| int(c.x)),
                        ("system", |c| c.label.clone()),
                        ("joined", |c| count(c, ".join_added")),
                        ("join clean (s)", |c| clean(c, ".join_clean_s")),
                        ("left", |c| count(c, ".leave_removed")),
                        ("leave clean (s)", |c| clean(c, ".leave_clean_s")),
                    ],
                },
            ),
            (
                "converge",
                Layout::Flat {
                    title: "Extension: lookup latency under churn on the virtual clock (continuous time)",
                    rows: |c| c.has(".load.sim_secs"),
                    cols: &[
                        ("system", |c| c.label.clone()),
                        ("T (s)", |c| int(c.x)),
                        ("p50 ms", |c| f(c.num(".load.latency_p50_ms"))),
                        ("p95 ms", |c| f(c.num(".load.latency_p95_ms"))),
                        ("p99 ms", |c| f(c.num(".load.latency_p99_ms"))),
                        ("mean ms", |c| f(c.num(".load.latency_mean_ms"))),
                        ("timeouts mean", |c| f(c.num(".load.timeouts_mean"))),
                        ("stranded", |c| count(c, ".load.stranded")),
                        ("failures", |c| count(c, ".load.failures")),
                        ("sim secs", |c| format!("{:.0}", c.num(".load.sim_secs"))),
                    ],
                },
            ),
        ],
        check: |_| Ok(()),
    },
    // {x}: a point of the recovery sweep, see `recovery`.
    Experiment {
        name: "recover",
        what: "running corruption-recovery sweep (virtual clock)...",
        quick: Grid {
            kinds: &ALL_KINDS,
            axis: &[0.0, 2.0, 4.0, 6.0, 8.0],
            nodes: 96,
            space: 144,
            lookups: 150,
            ..NONE
        },
        paper: Grid {
            kinds: &ALL_KINDS,
            axis: &[
                0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0,
                15.0, 16.0, 17.0, 18.0, 19.0,
            ],
            nodes: 512,
            space: 768,
            lookups: 1_000,
            ..NONE
        },
        metric: |c| {
            let (period, strategy, severity) = recovery(c.x);
            let strategy = strategy.label();
            format!("{}/{strategy}/s={severity}/T={period}", c.label)
        },
        measure: recover,
        layouts: &[(
            "recover",
            Layout::Flat {
                title: "Extension: self-stabilizing recovery from corrupted routing state",
                rows: |_| true,
                cols: &[
                    ("strategy", |c| recovery(c.x).1.label().into()),
                    ("severity", |c| format!("{:.2}", recovery(c.x).2)),
                    ("T (s)", |c| recovery(c.x).0.to_string()),
                    ("system", |c| c.label.clone()),
                    ("targeted", |c| count(c, ".targeted")),
                    ("entries hit", |c| count(c, ".mutated_entries")),
                    ("clean (s)", |c| clean(c, ".clean_s")),
                    ("repair calls", |c| count(c, ".repair_calls")),
                    ("entries fixed", |c| count(c, ".repaired_entries")),
                    ("post failures", |c| count(c, ".post_failures")),
                ],
            },
        )],
        check: recovered,
    },
    // {x}: network size before `nodes` more nodes join.
    Experiment {
        name: "scale",
        what: "running large-population scale sweep...",
        quick: Grid {
            kinds: &ALL_KINDS,
            axis: &[10_000.0],
            nodes: 16,
            lookups: 1_000,
            ..NONE
        },
        paper: Grid {
            kinds: &ALL_KINDS,
            axis: &[10_000.0, 100_000.0, 1_000_000.0],
            nodes: 64,
            lookups: 5_000,
            ..NONE
        },
        metric: |c| format!("{}/n={}", c.label, c.num(".nodes")),
        measure: scale,
        layouts: &[(
            "scale",
            Layout::Flat {
                title: "Extension: memory footprint and path quality at scale (compact membership)",
                rows: |_| true,
                cols: &[
                    ("system", |c| c.label.clone()),
                    ("n", |c| count(c, ".nodes")),
                    ("bytes/node", |c| format!("{:.1}", c.num(".bytes_per_node"))),
                    ("state MiB", |c| {
                        format!("{:.1}", c.num(".state_bytes") / (1024.0 * 1024.0))
                    }),
                    ("mean hops", |c| f(c.lookups("").path.mean)),
                    ("p99 hops", |c| f(c.lookups("").path.p99)),
                    ("failures", |c| c.lookups("").failures.to_string()),
                ],
            },
        )],
        check: |_| Ok(()),
    },
    // {x}: the telemetry sampling period, seconds.
    Experiment {
        name: "profile",
        what: "running per-phase cost profile (all kinds, default churn)...",
        quick: Grid {
            kinds: &ALL_KINDS,
            axis: &[30.0],
            nodes: 128,
            lookups: 300,
            ..NONE
        },
        paper: Grid {
            kinds: &ALL_KINDS,
            axis: &[60.0],
            nodes: 4096,
            lookups: 10_000,
            ..NONE
        },
        metric: |c| c.label.clone(),
        measure: profile,
        layouts: &[
            (
                "profile",
                Layout::Flat {
                    title: "Profile: messages billed per phase under default churn",
                    rows: |_| true,
                    cols: &[
                        ("Overlay", |c| c.label.clone()),
                        ("lookup", |c| count(c, ".phase.lookup.msgs")),
                        ("stabilize", |c| count(c, ".phase.stabilize.msgs")),
                        ("repair", |c| count(c, ".phase.repair.msgs")),
                        ("join", |c| count(c, ".phase.join.msgs")),
                        ("leave", |c| count(c, ".phase.leave.msgs")),
                        ("audit", |c| count(c, ".phase.audit.msgs")),
                    ],
                },
            ),
            (
                "profile",
                Layout::Flat {
                    title: "Profile: phase invocations under default churn",
                    rows: |_| true,
                    cols: &[
                        ("Overlay", |c| c.label.clone()),
                        ("lookup", |c| count(c, ".phase.lookup.calls")),
                        ("stabilize", |c| count(c, ".phase.stabilize.calls")),
                        ("repair", |c| count(c, ".phase.repair.calls")),
                        ("join", |c| count(c, ".phase.join.calls")),
                        ("leave", |c| count(c, ".phase.leave.calls")),
                        ("audit", |c| count(c, ".phase.audit.calls")),
                    ],
                },
            ),
            (
                "profile",
                Layout::Flat {
                    title: "Profile: simulated lookup latency quantiles (µs)",
                    rows: |_| true,
                    cols: &[
                        ("Overlay", |c| c.label.clone()),
                        ("p50", |c| quantile(c, 0.5)),
                        ("p90", |c| quantile(c, 0.9)),
                        ("p99", |c| quantile(c, 0.99)),
                        ("max", |c| quantile(c, 1.0)),
                        ("lookups", |c| c.histogram(".latency_us").count().to_string()),
                    ],
                },
            ),
        ],
        check: billed,
    },
];

/// The grid fields an experiment leaves unset.
const NONE: Grid = Grid {
    kinds: &[],
    axis: &[],
    nodes: 0,
    space: 0,
    lookups: 0,
    audit: false,
};

/// Table 1's systems, in [`TABLE1`]'s order; `repro --quick` changes
/// nothing in a static table.
const TABLE1_GRID: Grid = Grid {
    kinds: &[Chord, Can, Pastry, Viceroy, Koorde, Cycloid7],
    axis: &[64.0],
    ..NONE
};

/// §4.2: "from 10^4 to 10^5 in increments of 10^4".
const KEY_COUNTS: &[f64] = &[
    10_000.0, 20_000.0, 30_000.0, 40_000.0, 50_000.0, 60_000.0, 70_000.0, 80_000.0, 90_000.0,
    100_000.0,
];

/// The loss rates of the fault sweep, 0 to 20 %.
const LOSSES: &[f64] = &[0.0, 0.01, 0.02, 0.05, 0.10, 0.20];

/// Table 1's text per system, in [`TABLE1_GRID`]'s kind order: name,
/// base network, lookup complexity, and the routing-table size where it
/// is asymptotic (`None`: the live implementation's degree bound).
const TABLE1: [(&str, &str, &str, Option<&str>); 6] = [
    ("Chord", "Cycle", "O(log n)", None),
    ("CAN", "Mesh", "O(d n^(1/d))", Some("O(d)")),
    (
        "Pastry/Tapestry",
        "Hypercube",
        "O(log n)",
        Some("O(|L|)+O(|M|)+O(log n)"),
    ),
    ("Viceroy", "Butterfly", "O(log n)", None),
    ("Koorde", "de Bruijn", "O(log n)", None),
    ("Cycloid", "CCC", "O(d)", None),
];

/// Table 1: the constant-degree rows report the degree bound measured on
/// the live implementation, exported as `table1.{system}.degree`.
fn table1(g: &Grid, at: At) -> Measured {
    let (system, base, lookup, size) = TABLE1[at.k];
    let degree = size
        .is_none()
        .then(|| g.build(at.kind, at.x as usize, 1).degree_bound())
        .flatten();
    let size = size.map_or_else(
        || degree.map_or("O(log n)".to_string(), |d| d.to_string()),
        String::from,
    );
    let mut cols = vec![
        ("base".into(), Value::Text(base.into())),
        ("lookup".into(), Value::Text(lookup.into())),
        ("size".into(), Value::Text(size)),
    ];
    if let Some(d) = degree {
        cols.push((".degree".into(), Value::Gauge(d as f64)));
    }
    (system.into(), cols)
}

/// Table 2: the routing state of node (4, 10110110), read off a live
/// complete eight-dimensional Cycloid.
fn table2() -> Table {
    let net = CycloidNetwork::complete(CycloidConfig::seven_entry(8));
    let node = CycloidId::new(4, 0b1011_0110);
    let state = net.node(node).expect("node exists in complete network");
    let fmt = |id: CycloidId| format!("({},{:08b})", id.cyclic, id.cubical);
    let fmt_opt = |link: Link| link.get().map_or("-".to_string(), fmt);
    let mut t = Table::new(
        "Table 2: routing table state of Cycloid node (4,10110110), d = 8",
        &["Entry", "Value"],
    );
    for (entry, value) in [
        ("node", fmt(node)),
        ("cubical neighbor", fmt_opt(state.cubical_neighbor)),
        ("cyclic neighbor (larger)", fmt_opt(state.cyclic_larger)),
        ("cyclic neighbor (smaller)", fmt_opt(state.cyclic_smaller)),
        ("inside leaf set (pred)", fmt(state.inside_left[0])),
        ("inside leaf set (succ)", fmt(state.inside_right[0])),
        (
            "outside leaf set (preceding primary)",
            fmt(state.outside_left[0]),
        ),
        (
            "outside leaf set (succeeding primary)",
            fmt(state.outside_right[0]),
        ),
    ] {
        t.row(vec![entry.into(), value]);
    }
    t
}

/// Table 3: node identification and key assignment (definitional).
fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: node identification and key assignment",
        &["Property", "Cycloid", "Viceroy", "Koorde"],
    );
    for row in [
        ["Base network", "CCC", "Butterfly", "de Bruijn"],
        [
            "ID space",
            "([0,d), [0,d*2^d))",
            "([0,3 log n), [0,1))",
            "[0,2^d)",
        ],
        [
            "Node identity",
            "(k, a_{d-1}..a_0), k static",
            "(level, id), level dynamic",
            "id",
        ],
        [
            "Key placement",
            "Numerically closest node",
            "Successor",
            "Successor",
        ],
    ] {
        t.row(row.map(String::from).to_vec());
    }
    t
}

/// Figs 5–7, §4.1: "we simulated networks with n = d·2^d nodes and
/// varied the dimension d from 3 to 8. Each node made a total of n/4
/// lookup requests to random destinations", at most `lookups` a node.
fn path_length(g: &Grid, at: At) -> Measured {
    let n = at.x as usize;
    let mut net = g.build(at.kind, n, at.seed ^ (at.i as u64) << 8);
    let mut rng = stream_indexed(at.seed, "path-length", at.i as u64);
    let reqs = per_node_uniform(net.as_ref(), (n / 4).min(g.lookups).max(1), &mut rng);
    let agg = lookups(net.as_mut(), &reqs, at.jobs);
    (at.kind.label().into(), vec![("".into(), agg)])
}

/// Figs 8/9, §4.2: "we simulated different DHT networks of 2000 nodes
/// each... Assume the network ID space is of 2048 nodes"; Fig 9 has 1000
/// participants. One key population per count, shared by every kind.
fn key_distribution(g: &Grid, at: At) -> Measured {
    let net = g.build(at.kind, g.nodes, at.seed ^ (at.k as u64) << 16);
    let keys = key_population(at.x as usize, &mut stream(at.seed, "keys"));
    let per_node = Summary::of_counts(&key_counts(net.as_ref(), &keys));
    (
        at.kind.label().into(),
        vec![(".keys_per_node".into(), Value::Summary(per_node))],
    )
}

/// Fig 10, §4.2: "the number of queries received by a node for lookup
/// requests from different nodes", under Fig 5's n/4-per-node workload.
fn query_load(g: &Grid, at: At) -> Measured {
    let n = at.x as usize;
    let mut net = g.build(at.kind, n, at.seed ^ (at.i as u64) << 24);
    let mut rng = stream_indexed(at.seed, "query-load", at.i as u64);
    let reqs = per_node_uniform(net.as_ref(), (n / 4).min(g.lookups).max(1), &mut rng);
    let load = loads(net.as_mut(), &reqs, at.jobs);
    (
        at.kind.label().into(),
        vec![(".load".into(), Value::Summary(load))],
    )
}

/// Fig 11 / Table 4, §4.3: "each node is made to fail with probability
/// p... After a failure occurs, we performed 10,000 lookups with random
/// sources and destinations." Departures are graceful, the departure
/// pattern is the same for every kind, and no stabilization runs.
fn mass_departure(g: &Grid, at: At) -> Measured {
    let mut net = g.build(at.kind, g.nodes, at.seed ^ (at.i as u64) << 32);
    let mut depart = stream(at.seed, &format!("depart-{}", at.x));
    for token in net.node_tokens() {
        if depart.gen_bool(at.x) {
            net.leave(token);
        }
    }
    let survivors = net.len() as f64;
    let mut rng = stream_indexed(at.seed, "mass-lookups", at.i as u64);
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let agg = lookups(net.as_mut(), &reqs, at.jobs);
    (
        at.kind.label().into(),
        vec![
            ("".into(), agg),
            (".survivors".into(), Value::Gauge(survivors)),
        ],
    )
}

/// Fig 12 / Table 5, §4.4: lookups arrive at one per second, joins and
/// leaves each at rate R, and every node stabilizes every 30 s.
fn churn(g: &Grid, at: At) -> Measured {
    let mut net = g.build(at.kind, g.nodes, at.seed ^ (at.i as u64) << 40);
    let mut rng = stream_indexed(at.seed, "churn-run", at.i as u64);
    let params = ChurnParams {
        churn_rate: at.x,
        lookups: g.lookups,
        warmup_lookups: g.lookups / 50,
        audit: g.audit,
        jobs: at.jobs,
        ..ChurnParams::default()
    };
    let out = run_churn(net.as_mut(), params, &mut rng);
    let path = Summary::of_lens(&out.path_lens);
    let timeouts = Summary::of_counts(&out.timeouts);
    let mut cols = vec![
        (".lookups".into(), Value::Count(path.n as u64)),
        (".failures".into(), Value::Count(out.failures as u64)),
        (".joins".into(), Value::Count(out.joins as u64)),
        (".leaves".into(), Value::Count(out.leaves as u64)),
        (".stabilize_calls".into(), Value::Count(out.stabilize_calls)),
        (
            ".stabilize_rounds".into(),
            Value::Count(out.stabilize_rounds),
        ),
        (".peak_size".into(), Value::Gauge(out.peak_size as f64)),
        (".final_size".into(), Value::Gauge(out.final_size as f64)),
        (".mean_path".into(), Value::Gauge(path.mean)),
        (".mean_timeouts".into(), Value::Gauge(timeouts.mean)),
        ("timeouts".into(), Value::Summary(timeouts)),
    ];
    cols.extend(out.audit.map(|a| ("audit".into(), Value::Audit(a))));
    (at.kind.label().into(), cols)
}

/// Figs 13/14, §4.5: "We tested a total of 10,000 lookups in different
/// DHT networks with an ID space of 2048 nodes", a fraction `{x}` of it
/// left empty.
fn sparsity(g: &Grid, at: At) -> Measured {
    let n = ((g.space as f64 * (1.0 - at.x)).round() as usize).max(2);
    let mut net = g.build(at.kind, n, at.seed ^ (at.i as u64) << 48);
    let mut rng = stream_indexed(at.seed, "sparsity", at.i as u64);
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let agg = lookups(net.as_mut(), &reqs, at.jobs);
    (
        at.kind.label().into(),
        vec![("".into(), agg), (".nodes".into(), Value::Gauge(n as f64))],
    )
}

/// §2 names hot spots "for too frequently accessed files" as a weakness
/// of structured DHTs. The same lookup volume runs with uniform keys and
/// with Zipf(1.0)-popular keys from a catalogue of `{x}` objects;
/// `.amplification` is the ratio of the two maximum loads.
fn hotspot(g: &Grid, at: At) -> Measured {
    let mut net = g.build(at.kind, g.nodes, at.seed ^ (at.k as u64) << 12);
    let mut rng = stream_indexed(at.seed, "hotspot", at.k as u64);
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let uniform = loads(net.as_mut(), &reqs, at.jobs);
    let catalogue = ZipfKeys::new(at.x as usize, 1.0, &mut rng);
    let reqs = zipf_pairs(net.as_ref(), &catalogue, g.lookups, &mut rng);
    let zipf = loads(net.as_mut(), &reqs, at.jobs);
    let amplification = if uniform.max == 0.0 {
        0.0
    } else {
        zipf.max / uniform.max
    };
    let cols = vec![
        (".uniform".into(), Value::Summary(uniform)),
        (".zipf".into(), Value::Summary(zipf)),
        (".amplification".into(), Value::Gauge(amplification)),
    ];
    (at.kind.label().into(), cols)
}

/// The maintenance overhead §4 lists but never quantifies. A node's
/// in-degree is how many nodes hold a pointer to it: the pointers that
/// dangle when it departs, whether a departure repairs them eagerly
/// (Viceroy) or leaves them to stabilization. Each holder counts a
/// target once, and never itself.
fn maintenance(g: &Grid, at: At) -> Measured {
    let net = g.build(at.kind, at.x as usize, at.seed);
    let mut degrees: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (id, mut targets) in links(net.as_ref()) {
        targets.sort_unstable();
        targets.dedup();
        targets.retain(|&t| t != id);
        degrees.entry(id).or_default().0 += targets.len() as u64;
        for t in targets {
            degrees.entry(t).or_default().1 += 1;
        }
    }
    let (out, inc): (Vec<u64>, Vec<u64>) = degrees.into_values().unzip();
    let cols = vec![
        (
            ".out_degree".into(),
            Value::Summary(Summary::of_counts(&out)),
        ),
        (
            ".in_degree".into(),
            Value::Summary(Summary::of_counts(&inc)),
        ),
    ];
    (at.kind.label().into(), cols)
}

/// Every node's routing-state entries as tokens, repeats included: the
/// link table [`Links`] visits, and Viceroy's seven resolved links.
/// Cycloid's rows are typed by leaf radius, so each of the factory's
/// two radii is its own type to try.
fn links(net: &dyn Overlay) -> Vec<(u64, Vec<u64>)> {
    fn cycloid<const R: usize>(net: &CycloidNetwork<R>) -> Vec<(u64, Vec<u64>)> {
        let dim = net.dim();
        link_table(net, |id| id.linear(dim))
    }
    let any = net.as_any();
    if let Some(net) = any.downcast_ref::<CycloidNetwork<1>>() {
        return cycloid(net);
    }
    if let Some(net) = any.downcast_ref::<CycloidNetwork<2>>() {
        return cycloid(net);
    }
    if let Some(net) = any.downcast_ref::<KoordeNetwork>() {
        return link_table(net, |id| id);
    }
    if let Some(net) = any.downcast_ref::<ChordNetwork>() {
        return link_table(net, |id| id);
    }
    if let Some(net) = any.downcast_ref::<PastryNetwork>() {
        return link_table(net, |id| id);
    }
    let Some(net) = any.downcast_ref::<ViceroyNetwork>() else {
        panic!("{} has no link table to count", net.name());
    };
    let links = |id| {
        [
            net.succ_link(id),
            net.pred_link(id),
            net.level_next_link(id),
            net.level_prev_link(id),
            net.up_link(id),
            net.down_left_link(id),
            net.down_right_link(id),
        ]
    };
    let tokens = net.membership().store.token_iter();
    tokens
        .map(|id| (id, links(id).into_iter().flatten().collect()))
        .collect()
}

/// The entries [`Links::rewrite_links`] visits, node by node.
fn link_table<O: SimOverlay>(
    net: &O,
    token: impl Fn(<O::State as Links>::Id) -> u64,
) -> Vec<(u64, Vec<u64>)>
where
    O::State: Links,
{
    let entries = |id, state: &O::State| {
        let mut targets = Vec::new();
        state.clone().rewrite_links(id, &mut |_, link| {
            targets.extend(link.map(&token));
            link
        });
        targets
    };
    let store = &net.membership().store;
    store
        .iter()
        .map(|(id, state)| (id, entries(id, state)))
        .collect()
}

/// Message loss beyond §4.3–4.4's node failures: every per-hop contact is
/// lost with probability `{x}`, retried with exponential backoff, delayed
/// by a 20–80 ms RTT draw and duplicated 1 % of the time. Every cell of a
/// kind sees the same network and workload, so loss alone differs.
fn fault(g: &Grid, at: At) -> Measured {
    let kind_seed = at.seed ^ u64::from(at.kind as u8) << 40;
    let mut net = g.build(at.kind, g.nodes, kind_seed);
    let mut rng = stream_indexed(kind_seed, "fault-load", 0);
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let plan = FaultPlan {
        seed: at.seed ^ at.i as u64,
        loss: at.x,
        delay: DelayModel::Uniform(20_000, 80_000),
        duplicate: 0.01,
    };
    net.set_net_conditions(NetConditions::new(plan, RetryPolicy::standard()));
    let agg = run_requests_jobs(net.as_mut(), &reqs, at.jobs);
    let success = if agg.path.n == 0 {
        1.0
    } else {
        1.0 - agg.failures as f64 / agg.path.n as f64
    };
    let mut cols = vec![
        ("".into(), Value::Lookups(Box::new(agg))),
        (".success_rate".into(), Value::Gauge(success)),
    ];
    if g.audit {
        cols.push((
            "audit".into(),
            Value::Audit(net.audit_state(AuditScope::Full)),
        ));
    }
    (at.kind.label().into(), cols)
}

/// §3.4 assumes "nodes must notify others before leaving", and §5 names
/// unannounced departures as constant-degree DHTs' common weakness. A
/// fraction `{x}` of the nodes crash without notice; lookups run before
/// and after one stabilization round. Our Viceroy repairs eagerly, so its
/// "before" is an upper bound.
fn ungraceful(g: &Grid, at: At) -> Measured {
    let mut net = g.build(at.kind, g.nodes, at.seed ^ (at.i as u64) << 56);
    let mut crash = stream(at.seed, &format!("crash-{}", at.x));
    for token in net.node_tokens() {
        if crash.gen_bool(at.x) {
            net.fail(token);
        }
    }
    let survivors = net.len() as f64;
    let mut rng = stream_indexed(at.seed, "ungraceful", at.i as u64);
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let before = lookups(net.as_mut(), &reqs, at.jobs);
    net.stabilize();
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let after = lookups(net.as_mut(), &reqs, at.jobs);
    let cols = vec![
        ("/before".into(), before),
        ("/after".into(), after),
        (".survivors".into(), Value::Gauge(survivors)),
    ];
    (at.kind.label().into(), cols)
}

/// §3.3's stabilization, timed. A mass join of half the population, then
/// an ungraceful burst departure of two thirds of it (the case §5 calls
/// hard), each followed by per-second stabilization buckets of period
/// `{x}` until the full-scope audit is clean, within six periods. Only the
/// full scope goes dirty: graceful protocols keep the online invariants
/// at every instant. `space` leaves room for the joiners. At the sweep's
/// middle period a fresh overlay also runs continuous-time churn with
/// message delays, where a lookup's latency is virtual-clock time.
fn converge(g: &Grid, at: At) -> Measured {
    let period = at.x as u64;
    let cell = at.i as u64;
    let mut rng = stream_indexed(at.seed, "converge", cell);
    let mut net = g.build(at.kind, g.nodes, at.seed ^ (cell << 40));
    let joined = (0..g.space - g.nodes)
        .filter(|_| net.join(&mut rng).is_some())
        .count();
    let join = run_until_clean(net.as_mut(), period, 6 * period, false);
    let mut left = 0u64;
    for token in net.node_tokens() {
        if net.len() <= 8 {
            break;
        }
        if rng.gen_bool(2.0 / 3.0) && net.fail(token) {
            left += 1;
        }
    }
    let leave = run_until_clean(net.as_mut(), period, 6 * period, false);
    let mut cols = vec![
        (".join_added".into(), Value::Count(joined as u64)),
        (".join_clean_s".into(), clean_s(join.clean_s)),
        (".join_violations".into(), trajectory(&join.trajectory)),
        (".leave_removed".into(), Value::Count(left)),
        (".leave_clean_s".into(), clean_s(leave.clean_s)),
        (".leave_violations".into(), trajectory(&leave.trajectory)),
    ];
    if at.x == g.axis[(g.axis.len() - 1) / 2] {
        let mut fresh = g.build(at.kind, g.nodes, at.seed ^ (cell << 40) ^ 1);
        let mut rng = stream_indexed(at.seed, "converge-load", cell);
        let params = ChurnParams {
            churn_rate: 0.2,
            stabilization_period_secs: period,
            lookups: g.lookups,
            warmup_lookups: g.lookups / 50,
            conditions: NetConditions::new(FaultPlan::lossy(11, 0.01), RetryPolicy::standard()),
            time: TimeModel::Continuous,
            ..ChurnParams::default()
        };
        let out = run_churn(fresh.as_mut(), params, &mut rng);
        let mut ms: Vec<f64> = out.latency_us.iter().map(|&us| us as f64 / 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let mean = |sum: f64, n: usize| if n == 0 { 0.0 } else { sum / n as f64 };
        let timeouts = out.timeouts.iter().sum::<u64>() as f64;
        let gauge = |name: &str, v: f64| (format!(".load.{name}"), Value::Gauge(v));
        cols.extend([
            gauge("latency_p50_ms", percentile_sorted(&ms, 0.50)),
            gauge("latency_p95_ms", percentile_sorted(&ms, 0.95)),
            gauge("latency_p99_ms", percentile_sorted(&ms, 0.99)),
            gauge("latency_mean_ms", mean(ms.iter().sum(), ms.len())),
            gauge("timeouts_mean", mean(timeouts, out.timeouts.len())),
            (".load.stranded".into(), Value::Count(out.stranded as u64)),
            (".load.failures".into(), Value::Count(out.failures as u64)),
            gauge("sim_secs", out.sim_end_us as f64 / SECOND as f64),
        ]);
    }
    (at.kind.label().into(), cols)
}

/// The points of the recovery sweep, in paper order: repair period,
/// then strategy, then severity, the fraction of nodes corrupted.
fn recovery(x: f64) -> (u64, CorruptionStrategy, f64) {
    let (j, strategies) = (x as usize, CorruptionStrategy::ALL.len());
    let strategy = CorruptionStrategy::ALL[j / 2 % strategies];
    ([10, 30][j / (2 * strategies)], strategy, [0.25, 0.5][j % 2])
}

/// Self-stabilization from corrupted state, in the sense of Feldmann &
/// Scheideler: a seeded plan scrambles the routing state of a fraction
/// of the nodes, then per-node repair timers run on the virtual clock
/// until the full-scope audit is clean, within eight periods. A lookup
/// batch then checks that the repaired overlay routes. `space` is 1.5×
/// the population: an exact fit can fill a power-of-two ring (512 nodes
/// in a 2⁹ Chord space) and leave ghost links no dead token to point at.
fn recover(g: &Grid, at: At) -> Measured {
    let (period, strategy, severity) = recovery(at.x);
    let cell = at.i as u64;
    let mut net = g.build(at.kind, g.nodes, at.seed ^ (cell << 40));
    let hit = net.corrupt_state(&CorruptionPlan::new(strategy, severity, at.seed ^ cell));
    let repair = run_until_clean(net.as_mut(), period, 8 * period, true);
    let mut rng = stream_indexed(at.seed, "recover", cell);
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let post = run_requests_jobs(net.as_mut(), &reqs, at.jobs);
    let cols = vec![
        (".targeted".into(), Value::Count(hit.targeted_nodes as u64)),
        (
            ".corrupted".into(),
            Value::Count(hit.corrupted_nodes as u64),
        ),
        (".mutated_entries".into(), Value::Count(hit.mutated_entries)),
        (".clean_s".into(), clean_s(repair.clean_s)),
        (".repair_calls".into(), Value::Count(repair.calls)),
        (".repaired_entries".into(), Value::Count(repair.entries)),
        (".post_failures".into(), Value::Count(post.failures as u64)),
        (".post_path_mean".into(), Value::Gauge(post.path.mean)),
        (".violations".into(), trajectory(&repair.trajectory)),
    ];
    (at.kind.label().into(), cols)
}

/// `repro recover` fails unless every cell recovered within its horizon
/// and then routed every lookup.
fn recovered(cells: &[Cell]) -> Result<(), String> {
    let strategy = |c: &Cell| recovery(c.x).1.label();
    if let Some(c) = cells.iter().find(|c| c.num(".clean_s") < 0.0) {
        return Err(format!(
            "{} did not recover from {} within the horizon",
            c.label,
            strategy(c)
        ));
    }
    if let Some(c) = cells.iter().find(|c| c.num(".post_failures") > 0.0) {
        return Err(format!(
            "{} failed {} lookups after recovering from {}",
            c.label,
            c.num(".post_failures"),
            strategy(c)
        ));
    }
    Ok(())
}

/// The paper stops at 2048 nodes (§4.1); this takes the same overlays to
/// 10⁴–10⁶ for the per-node footprint of the compact membership store.
/// `nodes` graceful joins, each followed by the joiner's own
/// stabilization (the per-node unit the churn engine fires), precede a
/// uniform lookup batch; the space holds the joiners.
fn scale(g: &Grid, at: At) -> Measured {
    let n = at.x as usize;
    let cell = at.i as u64;
    let mut rng = stream_indexed(at.seed, "scale", cell);
    let mut net = build_overlay_spaced(at.kind, n, n + g.nodes, at.seed ^ (cell << 32));
    for _ in 0..g.nodes {
        if let Some(token) = net.join(&mut rng) {
            net.stabilize_node(token);
        }
    }
    let reqs = random_pairs(net.as_ref(), g.lookups, &mut rng);
    let agg = lookups(net.as_mut(), &reqs, at.jobs);
    let bytes = net.state_bytes() as f64;
    let cols = vec![
        ("".into(), agg),
        (".nodes".into(), Value::Count(net.len() as u64)),
        (".state_bytes".into(), Value::Gauge(bytes)),
        (".bytes_per_node".into(), Value::Gauge(net.bytes_per_node())),
    ];
    (at.kind.label().into(), cols)
}

/// Where each overlay spends its messages: §4.4's churn at the default
/// rate with telemetry and the sampler on, under
/// delay-only conditions (20–80 ms round trips, nothing lost, so routing
/// matches the ideal network while latency measures something real).
/// Churn repairs entries only on use, which leaves lazily derived links
/// (Viceroy's) at zero, so one full repair sweep closes the run.
fn profile(g: &Grid, at: At) -> Measured {
    let cell = at.i as u64;
    let mut net = g.build(at.kind, g.nodes, at.seed ^ (cell << 40));
    let mut rng = stream_indexed(at.seed, "profile", cell);
    let telemetry = Telemetry::enabled();
    let plan = FaultPlan {
        seed: at.seed ^ (cell << 32),
        loss: 0.0,
        delay: DelayModel::Uniform(20_000, 80_000),
        duplicate: 0.0,
    };
    let params = ChurnParams {
        lookups: g.lookups,
        warmup_lookups: g.lookups / 50,
        audit: true,
        conditions: NetConditions::new(plan, RetryPolicy::standard()),
        jobs: at.jobs,
        telemetry: telemetry.clone(),
        sample_every_us: at.x as u64 * SECOND,
        ..ChurnParams::default()
    };
    let out = run_churn(net.as_mut(), params, &mut rng);
    BucketIndex::new(net.as_ref(), 1).fire(net.as_mut(), 0, true);
    let mut cols = Vec::new();
    let table = telemetry.read(|r| r.phases.clone()).expect("enabled");
    for (phase, c) in table.iter() {
        for (name, n) in [
            ("calls", c.calls),
            ("msgs", c.msgs),
            ("retries", c.retries),
            ("timeouts", c.timeouts),
            ("repair_entries", c.repair_entries),
            ("time_us", c.time_us),
        ] {
            cols.push((format!(".phase.{}.{name}", phase.label()), Value::Count(n)));
        }
    }
    let mut latency = Histogram::new();
    for &us in &out.latency_us {
        latency.record(us);
    }
    cols.extend([
        (".failures".into(), Value::Count(out.failures as u64)),
        (".final_size".into(), Value::Gauge(out.final_size as f64)),
        (".peak_size".into(), Value::Gauge(out.peak_size as f64)),
        (".latency_us".into(), Value::Histogram(Box::new(latency))),
    ]);
    if !out.samples.is_empty() {
        let series = |value: &dyn Fn(&ChurnSample) -> f64| {
            Value::Series(out.samples.iter().map(|s| (s.t_us, value(s))).collect())
        };
        for (i, phase) in ALL_PHASES.iter().enumerate() {
            let msgs = series(&|s| s.phase_msgs[i] as f64);
            cols.push((format!(".msgs.{}", phase.label()), msgs));
        }
        cols.extend([
            (".live_nodes".into(), series(&|s| s.live_nodes as f64)),
            (".load_p50".into(), series(&|s| s.load_p50 as f64)),
            (".load_p99".into(), series(&|s| s.load_p99 as f64)),
            (
                ".audit_violations".into(),
                series(&|s| s.audit_violations as f64),
            ),
            (".bytes_per_node".into(), series(&|s| s.bytes_per_node)),
        ]);
    }
    (at.kind.label().into(), cols)
}

/// `repro profile` fails when a kind bills no lookup, stabilize or
/// repair messages: the accounting lost a billing site, and the export
/// would have a hole.
fn billed(cells: &[Cell]) -> Result<(), String> {
    for c in cells {
        for phase in [Phase::Lookup, Phase::Stabilize, Phase::Repair] {
            if c.num(&format!(".phase.{}.msgs", phase.label())) == 0.0 {
                return Err(format!("{} billed no {} messages", c.label, phase.label()));
            }
        }
    }
    Ok(())
}

/// One lookup batch as a column.
fn lookups(net: &mut dyn Overlay, reqs: &[LookupRequest], jobs: usize) -> Value {
    Value::Lookups(Box::new(run_requests_jobs(net, reqs, jobs)))
}

/// The per-node query loads one batch of lookups leaves.
fn loads(net: &mut dyn Overlay, reqs: &[LookupRequest], jobs: usize) -> Summary {
    net.reset_query_loads();
    let pairs: Vec<_> = reqs.iter().map(|r| (r.src, r.raw_key)).collect();
    let _ = net.lookup_batch(&pairs, jobs);
    Summary::of_counts(&net.query_loads())
}

/// Fig 7's columns: hops and share per routing phase, then the whole
/// path.
const CYCLOID_PHASES: &[Column] = &[
    ("n", |c| int(c.x)),
    ("ascending hops", |c| hops(c, HopPhase::Ascending)),
    ("ascending %", |c| share(c, HopPhase::Ascending)),
    ("descending hops", |c| hops(c, HopPhase::Descending)),
    ("descending %", |c| share(c, HopPhase::Descending)),
    ("traverse hops", |c| hops(c, HopPhase::TraverseCycle)),
    ("traverse %", |c| share(c, HopPhase::TraverseCycle)),
    ("total", |c| f(c.lookups("").path_hist.mean())),
];

/// Fig 7's columns for Koorde's two phases.
const KOORDE_PHASES: &[Column] = &[
    ("n", |c| int(c.x)),
    ("debruijn hops", |c| hops(c, HopPhase::DeBruijn)),
    ("debruijn %", |c| share(c, HopPhase::DeBruijn)),
    ("successor hops", |c| hops(c, HopPhase::Successor)),
    ("successor %", |c| share(c, HopPhase::Successor)),
    ("total", |c| f(c.lookups("").path_hist.mean())),
];

fn hops(c: &Cell, phase: HopPhase) -> String {
    f(c.lookups("").phase_mean_hops(phase))
}

fn share(c: &Cell, phase: HopPhase) -> String {
    format!("{:.1}", 100.0 * c.lookups("").phase_share(phase))
}

fn mean_path(c: &Cell) -> f64 {
    c.lookups("").path.mean
}

fn ok_pct(agg: &LookupAggregate) -> String {
    let ok = 100.0 * (agg.path.n - agg.failures) as f64 / agg.path.n.max(1) as f64;
    format!("{ok:.2}")
}

fn int(x: f64) -> String {
    x.to_string()
}

fn dim(n: f64) -> String {
    cycloid_dim_for(n as usize).to_string()
}

fn dec1(x: f64) -> String {
    format!("{x:.1}")
}

fn dec2(x: f64) -> String {
    format!("{x:.2}")
}

fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

/// A time-to-clean column: `-1` when the horizon passed first.
fn clean_s(secs: Option<u64>) -> Value {
    Value::Gauge(secs.map_or(-1.0, |s| s as f64))
}

/// Shows a time-to-clean column; `—` when the horizon passed first.
fn clean(c: &Cell, name: &str) -> String {
    let secs = c.num(name);
    if secs < 0.0 {
        "—".into()
    } else {
        secs.to_string()
    }
}

/// Open audit violations over virtual time, as a series.
fn trajectory(points: &[(u64, u64)]) -> Value {
    Value::Series(points.iter().map(|&(t_us, v)| (t_us, v as f64)).collect())
}

fn quantile(c: &Cell, q: f64) -> String {
    let latency = c.histogram(".latency_us");
    latency
        .quantile(q)
        .map_or_else(|| "—".into(), |v| v.to_string())
}

fn count(c: &Cell, name: &str) -> String {
    c.num(name).to_string()
}
