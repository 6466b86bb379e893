//! `--repeat k`: repeatability, measured. Two sets of `k` untraced runs of
//! this same binary per workload, seeds `seed..seed+k` in both sets, so
//! that
//!
//! * each set's quartile spread is the spread over seeds the driver sees,
//! * the two sets' medians can be compared against each metric's bound,
//! * every sim metric and fingerprint can be compared, seed by seed,
//!   between the sets: they must be byte-identical.

use std::process::{Command, ExitCode};

use crate::metrics::{end_to_end_defs, Better, Def};
use crate::plan::WORKLOAD_NAMES;
use crate::stats::{quartiles, spread};

/// One child run: its metrics as printed, and its fingerprint line.
struct Run {
    metrics: Vec<(String, String)>,
    fingerprint: String,
}

/// Splits the driver's result line into `(name, value as printed)`.
fn parse_result_line(line: &str) -> Option<Vec<(String, String)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let (head, tail) = entry.split_once("\": {\"value\": ")?;
        let name = head.rsplit_once('"')?.1;
        let value = tail.split_once(',')?.0;
        metrics.push((name.to_owned(), value.to_owned()));
    }
    Some(metrics)
}

fn child(workload: &str, seed: u64, seconds: f64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {}:\n{stdout}",
            output.status
        ));
    }
    let metrics = stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{workload} seed {seed}: no result line"))?;
    let fingerprint = stdout
        .lines()
        .find(|l| l.starts_with("fingerprint "))
        .ok_or_else(|| format!("{workload} seed {seed}: no fingerprint line"))?
        .to_owned();
    Ok(Run {
        metrics,
        fingerprint,
    })
}

fn values_of(set: &[Run], name: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name))
        .filter_map(|(_, v)| v.parse().ok())
        .collect()
}

/// By how large a share of `first` the median `second` is worse.
fn worse_by(def: &Def, first: f64, second: f64) -> f64 {
    match def.better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

pub fn run(k: usize, only: Option<&str>, seed: u64, seconds: f64) -> ExitCode {
    let workloads: Vec<&str> = match only {
        Some(name) if WORKLOAD_NAMES.contains(&name) => vec![name],
        Some(name) => {
            eprintln!("unknown workload {name}");
            return ExitCode::from(2);
        }
        None => WORKLOAD_NAMES.to_vec(),
    };
    let defs = end_to_end_defs();
    let mut ok = true;
    for workload in workloads {
        let mut sets: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for i in 0..k {
                match child(workload, seed + i as u64, seconds) {
                    Ok(run) => set.push(run),
                    Err(msg) => {
                        eprintln!("{msg}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!();
        println!(
            "{workload}: 2 sets of {k} runs, seeds {seed}..{}, --seconds {seconds}",
            seed + k as u64 - 1
        );
        println!(
            "{:<24} {:<5} {:>12} {:>12} {:>12} {:>7} | {:>12} {:>7} | {:>8} {:>6}",
            "metric",
            "kind",
            "A q1",
            "A median",
            "A q3",
            "spread",
            "B median",
            "spread",
            "B worse",
            "bound"
        );
        for def in &defs {
            let (a, b) = (
                values_of(&sets[0], &def.name),
                values_of(&sets[1], &def.name),
            );
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let (sa, sb) = (spread(&a), spread(&b));
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let shift = worse_by(def, qa[1], qb[1]);
            let mut notes = Vec::new();
            if shift.abs() > bound {
                notes.push("MEDIANS DISAGREE");
                ok = false;
            }
            // The driver exempts set-up time from the spread rule.
            if def.name != "setup_s" {
                if sa.max(sb) > bound {
                    notes.push("SPREAD ABOVE BOUND");
                    ok = false;
                } else if sa.max(sb) > bound / 3.0 {
                    notes.push("spread above a third of the bound");
                }
            }
            println!(
                "{:<24} {:<5} {:>12.5} {:>12.5} {:>12.5} {:>6.2}% | {:>12.5} {:>6.2}% | {:>+7.2}% {:>5.1}%  {}",
                def.name, def.domain, qa[0], qa[1], qa[2], 100.0 * sa, qb[1], 100.0 * sb,
                100.0 * shift, 100.0 * bound, notes.join(", ")
            );
        }
        let mut identical = true;
        for (a, b) in sets[0].iter().zip(&sets[1]) {
            if a.fingerprint != b.fingerprint {
                println!(
                    "FINGERPRINTS DIFFER: {} vs {}",
                    a.fingerprint, b.fingerprint
                );
                identical = false;
            }
            for def in defs.iter().filter(|d| d.domain == "sim") {
                let printed = |r: &Run| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| *n == def.name)
                        .map(|(_, v)| v.clone())
                };
                if printed(a) != printed(b) {
                    println!(
                        "SIM METRIC {} DIFFERS: {:?} vs {:?}",
                        def.name,
                        printed(a),
                        printed(b)
                    );
                    identical = false;
                }
            }
        }
        println!(
            "sim metrics and fingerprints identical, seed by seed, across both sets: {}",
            if identical { "yes" } else { "NO" }
        );
        ok &= identical;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_names_and_printed_values() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
                    \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
                    \"lookups_per_s\": {\"value\": 123456.789, \"unit\": \"1/s\"}}}";
        let parsed = parse_result_line(line).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("setup_s".to_owned(), "0.8127".to_owned()),
                ("lookups_per_s".to_owned(), "123456.789".to_owned()),
            ]
        );
        assert!(parse_result_line("no json here").is_none());
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let defs = end_to_end_defs();
        let lower = defs.iter().find(|d| d.name == "setup_s").unwrap();
        let higher = defs.iter().find(|d| d.name == "lookups_per_s").unwrap();
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(higher, 10.0, 11.0) < 0.0);
    }
}
