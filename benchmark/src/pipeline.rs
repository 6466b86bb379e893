//! The pipeline every workload runs, kind by kind: build, lookups,
//! membership cycles, repair, audit, churn. It calls public functions
//! only, checks every answer it can check from outside, and times each
//! call into a layer through the span recorder.

use std::hash::{Hash, Hasher};

use dht_core::audit::AuditScope;
use dht_core::hash::{hash_str, splitmix64};
use dht_core::lookup::{LookupOutcome, LookupTrace};
use dht_core::net::{DelayModel, FaultPlan, NetConditions, RetryPolicy};
use dht_core::overlay::{NodeToken, Overlay};
use dht_core::rng::stream;
use dht_core::stats::percentile_sorted;
use dht_core::workload::random_pairs;
use dht_sim::churn::{run_churn, ChurnOutcome, ChurnParams, TimeModel};
use dht_sim::factory::build_overlay_spaced;

use crate::plan::{overlay_kind, KindPlan, Workload, BATCHES, CHURN_LOOKUPS_PER_S_PER_10K};
use crate::probes::{self, ClockProbe, KindProbes};
use crate::spans::{NameId, Recorder};
use crate::stats::median;

/// At most this many correctness errors are kept verbatim.
const MAX_ERRORS: usize = 20;

pub struct RunConfig {
    pub seed: u64,
    /// Worker-thread cap of the parallel pass: `min(nproc, 4)`.
    pub jobs: usize,
}

/// The delay-only network of the continuous churn run: nothing is lost,
/// round trips are uniform in 20-80 ms.
pub fn delay_plan(seed: u64) -> NetConditions {
    NetConditions::new(
        FaultPlan {
            seed,
            loss: 0.0,
            delay: DelayModel::Uniform(20_000, 80_000),
            duplicate: 0.0,
        },
        RetryPolicy::standard(),
    )
}

#[derive(Debug, Default, Clone)]
pub struct LookupStats {
    /// Median over kept batches of owner-terminated lookups per second.
    pub per_s: f64,
    /// The same batches once more at `jobs` threads, median over kept ones.
    pub par_per_s: f64,
    pub hops_mean: f64,
    /// Median over kept batches of batch wall / hops in the batch.
    pub ns_per_hop: f64,
    /// Wall of the sequential batches, warm-up included.
    pub wall_ns: u64,
}

#[derive(Debug, Default, Clone)]
pub struct MemberStats {
    /// Median over kept batches without per-call spans.
    pub cycles_per_s: f64,
    /// Median per-cycle ns over batches with / without per-call spans
    /// (equal in an untraced run).
    pub cycle_ns_spanned: f64,
    pub cycle_ns_plain: f64,
    pub cycles: usize,
    pub audit_nodes_per_s: f64,
    pub audit_online_ns_per_node: f64,
    /// Per-call durations in us, traced run only.
    pub join_us: Vec<f64>,
    pub stabilize_us: Vec<f64>,
    pub repair_us: Vec<f64>,
}

#[derive(Debug, Default, Clone)]
pub struct ChurnStats {
    pub sim_s_per_wall_s: f64,
    pub sim_s_per_wall_s_rounds: f64,
    /// p99 of `elapsed_us` of the continuous run, in ms, and its samples.
    pub latency_ms_p99: f64,
    pub latency_samples: usize,
    /// Sums over both runs.
    pub wall_ns: u64,
    pub audit_us: u64,
    pub ops: u64,
    pub stranded: u64,
    pub failures: u64,
    pub lookups: u64,
}

#[derive(Debug, Default, Clone)]
pub struct KindOutcome {
    pub slug: &'static str,
    pub nodes: usize,
    pub build_s: f64,
    pub gen_ns: u64,
    pub requests: usize,
    pub bytes_per_node: f64,
    pub audit_full_ns_per_node: Option<f64>,
    pub lookups: Option<LookupStats>,
    pub member: Option<MemberStats>,
    pub churn: Option<ChurnStats>,
    pub probes: KindProbes,
    /// Operations attempted / failed, for the per-kind failure table.
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub kinds: Vec<KindOutcome>,
    pub attempted: u64,
    /// Operations the simulator got wrong: a lookup on a quiet network that
    /// did not end at the key's owner, a refused join or leave.
    pub failed: u64,
    /// Lookups the *modelled* overlay lost under churn (stranded or
    /// misrouted). A correct simulation of a lossy system: counted in
    /// `ok_share`, not in `failed`.
    pub lost_under_churn: u64,
    /// Hash over every trace and churn outcome; identical for every run
    /// with the same `(workload, seed, seconds)`, traced or not.
    pub fingerprint: u64,
    /// Failed correctness checks. Any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Traced run only.
    pub clock: Option<ClockProbe>,
}

impl Outcome {
    fn error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        } else if self.errors.len() == MAX_ERRORS {
            self.errors.push("... more errors suppressed".to_owned());
        }
    }

    fn fold(&mut self, value: u64) {
        self.fingerprint = splitmix64(self.fingerprint ^ value);
    }
}

fn outcome_code(outcome: LookupOutcome) -> u64 {
    match outcome {
        LookupOutcome::Found => 0,
        LookupOutcome::WrongOwner => 1,
        LookupOutcome::Stuck => 2,
        LookupOutcome::HopBudgetExhausted => 3,
    }
}

/// Hash of everything a trace holds, for the jobs=1 vs jobs=N comparison.
fn trace_hash(t: &LookupTrace) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hops.hash(&mut h);
    t.timeouts.hash(&mut h);
    outcome_code(t.outcome).hash(&mut h);
    t.terminal.hash(&mut h);
    (
        t.net.retries,
        t.net.msg_timeouts,
        t.net.duplicates,
        t.net.latency_us,
    )
        .hash(&mut h);
    h.finish()
}

/// Runs `w` (already scaled) and returns everything measured.
pub fn run(w: &Workload, cfg: &RunConfig, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome {
        fingerprint: hash_str(w.name),
        ..Outcome::default()
    };
    let root = rec.name("harness.workload");
    rec.span(root, 0, |rec| {
        for plan in &w.kinds {
            let kind = run_kind(w, plan, cfg, rec, &mut out);
            out.kinds.push(kind);
        }
        if rec.is_on() {
            out.clock = Some(probes::clock_probe(cfg.seed, rec));
        }
    });
    out
}

fn run_kind(
    w: &Workload,
    plan: &KindPlan,
    cfg: &RunConfig,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> KindOutcome {
    let slug = plan.slug;
    let mut kind = KindOutcome {
        slug,
        nodes: w.n,
        ..KindOutcome::default()
    };
    let (attempted0, failed0, lost0) = (out.attempted, out.failed, out.lost_under_churn);

    // Build. Every build of a kind has the same seed, so the spare
    // networks the churn runs consume are identical to the first.
    let build_name = rec.name(&format!("factory.build_{slug}"));
    let mut nets: Vec<Box<dyn Overlay>> = Vec::new();
    let mut build_s = Vec::new();
    for i in 0..w.builds {
        let (net, ns) = rec.timed(build_name, i as u64, |_| {
            build_overlay_spaced(overlay_kind(slug), w.n, w.id_space, cfg.seed)
        });
        build_s.push(ns as f64 / 1e9);
        nets.push(net);
    }
    kind.build_s = median(&build_s);
    let mut net = nets.remove(0);
    if net.len() != w.n {
        out.error(format!("{slug}: built {} nodes, wanted {}", net.len(), w.n));
    }

    if rec.is_on() && w.full_audit {
        let name = rec.name(&format!("audit.full_{slug}"));
        let (report, ns) = rec.timed(name, 0, |_| net.audit_state(AuditScope::Full));
        if !report.is_clean() {
            out.error(format!(
                "{slug}: full audit of a fresh build found {} violations",
                report.violations().len()
            ));
        }
        kind.audit_full_ns_per_node = Some(ns as f64 / report.checked_nodes().max(1) as f64);
    }

    if plan.lookups > 0 {
        let reqs = generate_requests(net.as_ref(), plan, cfg, rec, &mut kind);
        kind.lookups = Some(lookup_phase(net.as_mut(), slug, &reqs, cfg, rec, out));
        if rec.is_on() {
            kind.probes = probes::kind_probes(net.as_mut(), slug, &reqs, cfg.seed, rec);
        }
    }
    if plan.churn_lookups > 0 {
        // A fresh network per run when there is one, else the one at hand:
        // before the membership cycles, whose leaves strand links that only
        // a later stabilization round would mend.
        let [cont, rounds] = [TimeModel::Continuous, TimeModel::Rounds].map(|time| {
            let mut fresh = nets.pop();
            let net = fresh.as_deref_mut().unwrap_or(net.as_mut());
            churn_run(net, w, plan, time, cfg, rec, out)
        });
        kind.churn = Some(churn_stats(&cont, &rounds));
    }

    if plan.cycles > 0 {
        kind.member = Some(member_phase(net.as_mut(), w, plan, cfg, rec, out));
    }
    kind.bytes_per_node = net.bytes_per_node();
    kind.attempted = out.attempted - attempted0;
    kind.failed = (out.failed - failed0) + (out.lost_under_churn - lost0);
    kind
}

fn generate_requests(
    net: &dyn Overlay,
    plan: &KindPlan,
    cfg: &RunConfig,
    rec: &mut Recorder,
    kind: &mut KindOutcome,
) -> Vec<(NodeToken, u64)> {
    let name = rec.name("workload.random_pairs");
    let mut rng = stream(cfg.seed, &format!("bench/requests/{}", plan.slug));
    let (reqs, ns) = rec.timed(name, 0, |_| random_pairs(net, plan.lookups, &mut rng));
    kind.gen_ns = ns;
    kind.requests = reqs.len();
    reqs.iter().map(|r| (r.src, r.raw_key)).collect()
}

/// Sequential batches, then the same batches at `jobs` threads; every
/// trace is checked against the owner oracle and the two passes against
/// each other.
fn lookup_phase(
    net: &mut dyn Overlay,
    slug: &'static str,
    reqs: &[(NodeToken, u64)],
    cfg: &RunConfig,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> LookupStats {
    let seq_name = rec.name(&format!("{slug}.lookup_batch"));
    let par_name = rec.name("sim.executor_batch");
    let batch_len = reqs.len() / BATCHES;
    let mut hashes = Vec::with_capacity(reqs.len());
    let (mut rates, mut hop_costs) = (Vec::new(), Vec::new());
    let (mut ok_hops, mut ok_total, mut wall_ns) = (0u64, 0u64, 0u64);
    let mut batch_ok = Vec::with_capacity(BATCHES);

    net.reset_query_loads();
    for (b, chunk) in reqs.chunks(batch_len).enumerate() {
        let (traces, ns) = rec.timed(seq_name, b as u64, |_| net.lookup_batch(chunk, 1));
        wall_ns += ns;
        let (mut ok, mut hops) = (0u64, 0u64);
        for (trace, &(_, raw_key)) in traces.iter().zip(chunk) {
            hashes.push(trace_hash(trace));
            out.fold(trace.path_len() as u64);
            out.fold(outcome_code(trace.outcome));
            out.fold(trace.terminal);
            hops += trace.path_len() as u64;
            if trace.outcome.is_success() && net.owner_of(raw_key) == Some(trace.terminal) {
                ok += 1;
                ok_hops += trace.path_len() as u64;
            } else {
                out.failed += 1;
                out.error(format!(
                    "{slug}: lookup of key {raw_key:#x} ended {:?} at {}, owner is {:?}",
                    trace.outcome,
                    trace.terminal,
                    net.owner_of(raw_key)
                ));
            }
        }
        out.attempted += chunk.len() as u64;
        ok_total += ok;
        batch_ok.push(ok);
        if b > 0 {
            rates.push(ok as f64 / (ns as f64 / 1e9));
            hop_costs.push(ns as f64 / hops.max(1) as f64);
        }
    }

    // The same batches again at `jobs` threads. Traces and query loads must
    // match the sequential pass exactly.
    let seq_loads = net.query_loads();
    net.reset_query_loads();
    let mut par_rates = Vec::new();
    let mut same_traces = true;
    for (b, (chunk, want)) in reqs
        .chunks(batch_len)
        .zip(hashes.chunks(batch_len))
        .enumerate()
    {
        let (traces, ns) = rec.timed(par_name, b as u64, |_| net.lookup_batch(chunk, cfg.jobs));
        same_traces &= traces.len() == want.len()
            && traces
                .iter()
                .zip(want)
                .all(|(trace, &hash)| trace_hash(trace) == hash);
        if b > 0 {
            par_rates.push(batch_ok[b] as f64 / (ns as f64 / 1e9));
        }
    }
    if !same_traces {
        out.error(format!(
            "{slug}: jobs={} traces differ from jobs=1",
            cfg.jobs
        ));
    }
    if net.query_loads() != seq_loads {
        out.error(format!(
            "{slug}: jobs={} query loads differ from jobs=1",
            cfg.jobs
        ));
    }
    net.reset_query_loads();

    LookupStats {
        per_s: median(&rates),
        par_per_s: median(&par_rates),
        hops_mean: ok_hops as f64 / ok_total.max(1) as f64,
        ns_per_hop: median(&hop_costs),
        wall_ns,
    }
}

/// Runs `f`, inside a span of its own when `per_call` is set.
fn call<T>(
    rec: &mut Recorder,
    per_call: bool,
    name: NameId,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    if per_call {
        rec.span(name, request, |_| f())
    } else {
        f()
    }
}

/// join -> stabilize_node -> leave cycles, then repairs, then three online
/// audit passes. In a traced run every other kept batch records one span
/// per call, so the same run yields per-call latencies and the cost of
/// recording them.
fn member_phase(
    net: &mut dyn Overlay,
    w: &Workload,
    plan: &KindPlan,
    cfg: &RunConfig,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> MemberStats {
    let slug = plan.slug;
    let batch_name = rec.name(&format!("{slug}.member_batch"));
    let join_name = rec.name(&format!("{slug}.join"));
    let stabilize_name = rec.name(&format!("{slug}.stabilize_node"));
    let leave_name = rec.name(&format!("{slug}.leave"));
    let repair_batch_name = rec.name(&format!("{slug}.repair_batch"));
    let repair_name = rec.name(&format!("{slug}.repair_node"));
    let audit_name = rec.name(&format!("audit.online_{slug}"));

    let mut rng = stream(cfg.seed, &format!("bench/member/{slug}"));
    let per_batch = plan.cycles / BATCHES;
    let (mut plain_ns, mut spanned_ns) = (Vec::new(), Vec::new());
    let mut cycle = 0u64;
    for b in 0..BATCHES {
        let per_call = rec.is_on() && b % 2 == 1;
        let ((), ns) = rec.timed(batch_name, b as u64, |rec| {
            for _ in 0..per_batch {
                cycle += 1;
                out.attempted += 2;
                let joined = call(rec, per_call, join_name, cycle, || net.join(&mut rng));
                match joined {
                    Some(token) => call(rec, per_call, stabilize_name, cycle, || {
                        net.stabilize_node(token);
                    }),
                    None => {
                        out.failed += 1;
                        out.error(format!("{slug}: join refused at {} nodes", net.len()));
                    }
                }
                let left = net.random_node(&mut rng).is_some_and(|victim| {
                    call(rec, per_call, leave_name, cycle, || net.leave(victim))
                });
                if !left {
                    out.failed += 1;
                    out.error(format!("{slug}: leave refused at {} nodes", net.len()));
                }
            }
        });
        if b > 0 {
            let per_cycle = ns as f64 / per_batch as f64;
            if per_call {
                spanned_ns.push(per_cycle);
            } else {
                plain_ns.push(per_cycle);
            }
        }
    }
    if net.len() != w.n {
        out.error(format!(
            "{slug}: {} nodes after the cycles, started with {}",
            net.len(),
            w.n
        ));
    }

    rec.span(repair_batch_name, 0, |rec| {
        for i in 0..w.repairs {
            if let Some(token) = net.random_node(&mut rng) {
                rec.span(repair_name, i as u64, |_| net.repair_node(token));
            }
        }
    });

    let mut pass_ns = Vec::new();
    let mut checked = 0usize;
    for pass in 0..3 {
        let (report, ns) = rec.timed(audit_name, pass, |_| net.audit_state(AuditScope::Online));
        if !report.is_clean() {
            out.error(format!(
                "{slug}: online audit after the cycles found {} violations, first: {:?}",
                report.violations().len(),
                report.violations().first()
            ));
        }
        checked = report.checked_nodes();
        pass_ns.push(ns as f64);
    }
    let audit_ns = median(&pass_ns);

    let us = |name| -> Vec<f64> {
        rec.durations_ns(name)
            .into_iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    let cycle_ns_plain = median(&plain_ns);
    MemberStats {
        cycles_per_s: 1e9 / cycle_ns_plain,
        cycle_ns_spanned: if spanned_ns.is_empty() {
            cycle_ns_plain
        } else {
            median(&spanned_ns)
        },
        cycle_ns_plain,
        cycles: plan.cycles,
        audit_nodes_per_s: checked as f64 / (audit_ns / 1e9),
        audit_online_ns_per_node: audit_ns / checked.max(1) as f64,
        join_us: us(join_name),
        stabilize_us: us(stabilize_name),
        repair_us: us(repair_name),
    }
}

struct ChurnRun {
    outcome: ChurnOutcome,
    wall_ns: u64,
}

fn churn_run(
    net: &mut dyn Overlay,
    w: &Workload,
    plan: &KindPlan,
    time: TimeModel,
    cfg: &RunConfig,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> ChurnRun {
    let slug = plan.slug;
    let (label, conditions) = match time {
        TimeModel::Continuous => ("continuous", delay_plan(cfg.seed)),
        TimeModel::Rounds => ("rounds", NetConditions::ideal()),
    };
    let name = rec.name(&format!("churn.run_{label}_{slug}"));
    let per_10k = w.n as f64 / 10_000.0;
    let params = ChurnParams {
        lookup_rate: CHURN_LOOKUPS_PER_S_PER_10K * per_10k,
        churn_rate: w.churn_rate_per_10k * per_10k,
        stabilization_period_secs: 30,
        lookups: plan.churn_lookups,
        warmup_lookups: w.churn_warmup,
        audit: true,
        conditions,
        jobs: 1,
        time,
        ..ChurnParams::default()
    };
    let mut rng = stream(cfg.seed, &format!("bench/churn/{slug}"));
    let (outcome, wall_ns) = rec.timed(name, 0, |_| run_churn(net, params, &mut rng));

    for &len in &outcome.path_lens {
        out.fold(len as u64);
    }
    for v in [
        outcome.failures as u64,
        outcome.joins as u64,
        outcome.leaves as u64,
        outcome.stabilize_calls,
    ] {
        out.fold(v);
    }
    out.attempted += (outcome.path_lens.len() + outcome.joins + outcome.leaves) as u64;
    out.lost_under_churn += outcome.failures as u64;
    if outcome.path_lens.len() != plan.churn_lookups {
        out.error(format!(
            "{slug}: {label} churn measured {} lookups, wanted {}",
            outcome.path_lens.len(),
            plan.churn_lookups
        ));
    }
    if let Some(report) = outcome.audit.as_ref().filter(|r| !r.is_clean()) {
        out.error(format!(
            "{slug}: {label} churn broke {} online invariants, first: {:?}",
            report.violations().len(),
            report.violations().first()
        ));
    }
    ChurnRun { outcome, wall_ns }
}

fn churn_stats(cont: &ChurnRun, rounds: &ChurnRun) -> ChurnStats {
    let rate = |run: &ChurnRun| (run.outcome.sim_end_us as f64 / 1e6) / (run.wall_ns as f64 / 1e9);
    let ops = |run: &ChurnRun| {
        let o = &run.outcome;
        o.path_lens.iter().sum::<usize>() as u64 + o.stabilize_calls + (o.joins + o.leaves) as u64
    };
    let mut elapsed: Vec<f64> = cont.outcome.elapsed_us.iter().map(|&u| u as f64).collect();
    elapsed.sort_by(f64::total_cmp);
    ChurnStats {
        sim_s_per_wall_s: rate(cont),
        sim_s_per_wall_s_rounds: rate(rounds),
        latency_ms_p99: percentile_sorted(&elapsed, 0.99) / 1e3,
        latency_samples: elapsed.len(),
        wall_ns: cont.wall_ns + rounds.wall_ns,
        audit_us: cont.outcome.audit_us + rounds.outcome.audit_us,
        ops: ops(cont) + ops(rounds),
        stranded: (cont.outcome.stranded + rounds.outcome.stranded) as u64,
        failures: (cont.outcome.failures + rounds.outcome.failures) as u64,
        lookups: (cont.outcome.path_lens.len() + rounds.outcome.path_lens.len()) as u64,
    }
}
