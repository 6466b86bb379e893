//! The `repro metrics` summary table. Every experiment's tables are laid
//! out by its own entry in
//! [`dht_sim::experiments::figures::EXPERIMENTS`].

use dht_sim::report::{f, Table};

/// The `repro metrics` summary: one row per metric across every loaded
/// `BENCH_*.json` document, with a compact type-appropriate value cell.
#[must_use]
pub fn metrics_summary(files: &[crate::metrics_io::BenchFile]) -> Table {
    use crate::json::Json;
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
