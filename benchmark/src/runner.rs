//! Runs one workload for a time budget and turns the reps into metrics.
//!
//! A run repeats *reps* — set-up, measured phase, output check, drop —
//! until the budget is spent. Every rep runs the same amount of the same
//! kind of work against the same world; the operations themselves are
//! drawn from a per-rep *op seed* derived from `--seed`, so the medians
//! over reps average over many draws instead of magnifying one (one draw
//! of `dht_perf`'s 240 keys moves its time by ±5 %). Rep 1 repeats rep 0's
//! op seed: two reps of one op seed must agree on digest and counts, which
//! is the determinism check. A traced run runs each op seed twice, once
//! untraced and once traced, so the tracing overhead compares like with like
//! (and every pair is a determinism check), then runs the layer probes.

use crate::metrics::{CALLS, END_TO_END, PER_LAYER};
use crate::probes::{self, status_kib};
use crate::stats::{median, tail};
use crate::trace::{self, Span, Spans};
use crate::workloads::dht_perf::DhtPerf;
use crate::workloads::gateway_day::GatewayDay;
use crate::workloads::pdes_world::PdesWorld;
use crate::workloads::reprovide_sweep::ReprovideSweep;
use crate::workloads::swarm_fetch::SwarmFetch;
use crate::workloads::{splitmix64, Outcome, Workload};
use crate::{json, provenance};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Spans the recorder has room for before the first rep starts.
const SPAN_CAPACITY: usize = 1 << 18;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Time budget in seconds: reps start until it is spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
    /// Tiny sizes: same code paths and checks, timings not comparable.
    pub quick: bool,
    /// Where a traced run writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

/// The op seed of rep `rep`: a plain run repeats the first draw once
/// (reps 0 and 1), then draws afresh each rep; a traced run gives each
/// draw an untraced and a traced rep.
fn op_seed(seed: u64, rep: usize, trace: bool) -> u64 {
    let draw = if trace { rep / 2 } else { rep.saturating_sub(1) };
    splitmix64(seed ^ splitmix64(draw as u64))
}

/// A metric of a run: (name, value, unit).
pub type Metric = (&'static str, f64, &'static str);

/// The sample behind a percentile metric: (metric name, n, percentile
/// actually reported in ‰).
pub type Sample = (&'static str, usize, u32);

/// One rep's measurements.
#[derive(Debug, Clone)]
struct Rep {
    op_seed: u64,
    traced: bool,
    setup_s: f64,
    run_s: f64,
    outcome: Outcome,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// What one op of the workload is.
    pub op: &'static str,
    /// Outputs were right and all reps agreed.
    pub correct: bool,
    /// What went wrong, when `correct` is false.
    pub errors: Vec<String>,
    /// Ops attempted, summed over the reps of the run.
    pub attempted: u64,
    /// Ops failed, summed over the reps of the run.
    pub failed: u64,
    /// Rep 0's digest (rep 1 reproduced it, or the run is incorrect).
    pub digest: u64,
    /// Per-rep raw values: (traced, setup_s, run_s).
    pub reps: Vec<(bool, f64, f64)>,
    /// The metrics of this run.
    pub metrics: Vec<Metric>,
    /// Sample sizes behind the percentile metrics.
    pub samples: Vec<Sample>,
    /// The workload's sizes (JSON object).
    pub sizes_json: String,
}

/// Runs the workload `args` names.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    match args.workload.as_str() {
        DhtPerf::NAME => run_workload::<DhtPerf>(args),
        SwarmFetch::NAME => run_workload::<SwarmFetch>(args),
        GatewayDay::NAME => run_workload::<GatewayDay>(args),
        ReprovideSweep::NAME => run_workload::<ReprovideSweep>(args),
        PdesWorld::NAME => run_workload::<PdesWorld>(args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            crate::workloads::NAMES.join(", ")
        )),
    }
}

/// What the traced reps of a run add up to.
#[derive(Default)]
struct SpanTotals {
    /// Self time per span name, ns.
    self_ns: HashMap<&'static str, u64>,
    /// Inclusive durations of the op spans, ns, per name.
    op_ns: HashMap<&'static str, Vec<u64>>,
    /// `op.cycle` durations of the last traced rep, in order.
    cycles_ns: Vec<u64>,
    /// Wall-clock of the traced reps, ns.
    wall_ns: u64,
}

impl SpanTotals {
    fn add(&mut self, spans: &[Span]) {
        for (name, ns) in trace::self_ns_by_name(spans) {
            *self.self_ns.entry(name).or_default() += ns;
        }
        self.cycles_ns.clear();
        for s in spans {
            if s.name.starts_with("op.") {
                self.op_ns.entry(s.name).or_default().push(s.dur_ns());
            }
            if s.name == "op.cycle" {
                self.cycles_ns.push(s.dur_ns());
            }
            if s.parent == trace::NO_PARENT {
                self.wall_ns += s.dur_ns();
            }
        }
    }

    /// Self time of `call` as a share of the traced wall-clock. `serve`
    /// stands for every `op.serve.<tier>` span (a request is one call);
    /// `harness` is what no call accounts for.
    fn self_share(&self, call: &str) -> f64 {
        let ns: u64 = match call {
            "serve" => self
                .self_ns
                .iter()
                .filter(|(n, _)| n.starts_with("op.serve"))
                .map(|(_, v)| *v)
                .sum(),
            "harness" => self
                .self_ns
                .iter()
                .filter(|(n, _)| !n.starts_with("op.serve") && !CALLS.contains(n))
                .map(|(_, v)| *v)
                .sum(),
            call => self.self_ns.get(call).copied().unwrap_or(0),
        };
        ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// What the rep loop of a run produced.
struct Measured {
    reps: Vec<Rep>,
    errors: Vec<String>,
    /// Span sums over the traced reps.
    totals: SpanTotals,
    /// Spans of the last traced rep, for the trace file.
    last_spans: Vec<Span>,
}

/// Runs reps of `W` until the budget is spent, checking each.
fn measure_reps<W: Workload>(args: &RunArgs) -> Measured {
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let min_reps = if args.trace { 4 } else { 2 };
    let started = Instant::now();
    let mut m = Measured {
        reps: Vec::new(),
        errors: Vec::new(),
        totals: SpanTotals::default(),
        last_spans: Vec::new(),
    };

    while m.reps.len() < min_reps || started.elapsed() < budget {
        let rep = m.reps.len();
        // A traced run measures each op seed as a pair, untraced and
        // traced; which goes first alternates from pair to pair, so that
        // going second (warmer) favours neither.
        let (pair, second) = (rep / 2, rep % 2 == 1);
        let traced = args.trace && (second != (pair % 2 == 1));
        let mut t = if traced { Spans::enabled(SPAN_CAPACITY) } else { Spans::disabled() };
        let rep_span = t.enter("rep", rep as u64);

        let clock = Instant::now();
        let span = t.enter("setup", 0);
        let op_seed = op_seed(args.seed, rep, args.trace);
        let mut world = W::setup(op_seed, args.quick, &mut t);
        t.exit(span);
        let setup_s = clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        let span = t.enter("run", 0);
        let outcome = world.run(&mut t);
        t.exit(span);
        let run_s = clock.elapsed().as_secs_f64();

        let span = t.enter("verify", 0);
        if let Err(e) = world.verify(&mut t) {
            m.errors.push(format!("rep {rep}: {e}"));
        }
        t.exit(span);
        // Freeing a world is part of what a rep costs its user.
        t.span("drop", 0, || drop(world));
        t.exit(rep_span);

        if outcome.attempted == 0 {
            m.errors.push(format!("rep {rep}: the measured phase attempted no operation"));
        }
        if let Some((twin, same)) = m.reps.iter().enumerate().find(|(_, r)| r.op_seed == op_seed) {
            let same = &same.outcome;
            if *same != outcome {
                m.errors.push(format!(
                    "rep {rep} disagrees with rep {twin} on the same op seed: digest {:016x} vs \
                     {:016x}, {} vs {} events, {}/{} vs {}/{} failed",
                    outcome.digest,
                    same.digest,
                    outcome.events,
                    same.events,
                    outcome.failed,
                    outcome.attempted,
                    same.failed,
                    same.attempted,
                ));
            }
        }
        if traced {
            m.totals.add(t.spans());
            m.last_spans = t.into_spans();
        }
        m.reps.push(Rep { op_seed, traced, setup_s, run_s, outcome });
    }
    m
}

/// Median over the untraced reps of `f`.
fn untraced_median(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().filter(|r| !r.traced).map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of a plain run, in declared order.
fn end_to_end_metrics(reps: &[Rep]) -> Vec<Metric> {
    let value = |name: &str| match name {
        "setup_s" => untraced_median(reps, |r| r.setup_s),
        "run_s" => untraced_median(reps, |r| r.run_s),
        "ops_per_s" => {
            untraced_median(reps, |r| (r.outcome.attempted - r.outcome.failed) as f64 / r.run_s)
        }
        "peak_rss_mib" => status_kib("VmHWM:") as f64 / 1024.0,
        other => unreachable!("undeclared end-to-end metric {other}"),
    };
    END_TO_END.iter().map(|m| (m.name, value(m.name), m.unit)).collect()
}

/// One memory probe in a child process (a resident-set delta needs a heap
/// nothing else has grown).
fn rss_probe_child(name: &str, args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = provenance::scrubbed_command(&exe);
    cmd.args(["rss-probe", name, &args.seed.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("rss-probe {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("rss-probe {name} exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("rss-probe {name} printed no number: {e}"))
}

/// The per-layer metrics of a traced run, in declared order, plus the
/// sample sizes behind the percentiles.
fn per_layer_metrics(args: &RunArgs, m: &Measured) -> Result<(Vec<Metric>, Vec<Sample>), String> {
    let reps = &m.reps;
    let mut values: HashMap<&'static str, f64> =
        probes::run_all(args.seed, args.quick, &|name| rss_probe_child(name, args))?
            .into_iter()
            .collect();

    values.extend(reps[0].outcome.counts.iter().copied());
    let attempted: u64 = reps.iter().map(|r| r.outcome.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.outcome.failed).sum();
    values.insert("run.failed_share", failed as f64 / attempted.max(1) as f64);
    values.insert("run.events_per_s", untraced_median(reps, |r| r.outcome.events as f64 / r.run_s));
    values.insert(
        "run.events_per_op",
        untraced_median(reps, |r| r.outcome.events as f64 / r.outcome.attempted.max(1) as f64),
    );

    // Reps 2k and 2k+1 did the same work, one of them traced.
    let ratios: Vec<f64> = reps
        .chunks_exact(2)
        .map(|pair| {
            let (traced, plain) =
                if pair[0].traced { (&pair[0], &pair[1]) } else { (&pair[1], &pair[0]) };
            traced.run_s / plain.run_s
        })
        .collect();
    values.insert("harness.trace_overhead", median(&ratios) - 1.0);

    for metric in PER_LAYER.iter().filter(|m| m.name.starts_with("span.")) {
        let call = &metric.name["span.".len()..metric.name.len() - ".self_share".len()];
        values.insert(metric.name, m.totals.self_share(call));
    }
    let mut samples = Vec::new();
    for (name, op, wanted) in [
        ("op.publish.us_p50", "op.publish", 500),
        ("op.publish.us_p95", "op.publish", 950),
        ("op.retrieve.us_p50", "op.retrieve", 500),
        ("op.retrieve.us_p99", "op.retrieve", 990),
        ("op.serve.nginx.us_p50", "op.serve.nginx", 500),
        ("op.serve.node_store.us_p50", "op.serve.node_store", 500),
        ("op.serve.network.us_p50", "op.serve.network", 500),
        ("op.serve.network.us_p99", "op.serve.network", 990),
    ] {
        let durs = m.totals.op_ns.get(op).map(Vec::as_slice).unwrap_or(&[]);
        let (ns, used) = if durs.is_empty() { (0.0, wanted) } else { tail(durs, wanted) };
        values.insert(name, ns / 1e3);
        samples.push((name, durs.len(), used));
    }
    let ms = |ns: Option<&u64>| ns.map_or(0.0, |&ns| ns as f64 / 1e6);
    values.insert("op.cycle.ms_first", ms(m.totals.cycles_ns.first()));
    values.insert("op.cycle.ms_last", ms(m.totals.cycles_ns.last()));

    // Every declared name, in declared order; what this workload never
    // touches reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    Ok((metrics, samples))
}

fn run_workload<W: Workload>(args: &RunArgs) -> Result<RunReport, String> {
    let measured = measure_reps::<W>(args);
    let (metrics, samples) = if args.trace {
        write_trace_file::<W>(args, &measured.reps, &measured.last_spans)?;
        per_layer_metrics(args, &measured)?
    } else {
        (end_to_end_metrics(&measured.reps), Vec::new())
    };
    let reps = &measured.reps;
    Ok(RunReport {
        workload: W::NAME,
        op: W::OP,
        correct: measured.errors.is_empty(),
        attempted: reps.iter().map(|r| r.outcome.attempted).sum(),
        failed: reps.iter().map(|r| r.outcome.failed).sum(),
        digest: reps[0].outcome.digest,
        reps: reps.iter().map(|r| (r.traced, r.setup_s, r.run_s)).collect(),
        metrics,
        samples,
        sizes_json: W::sizes_json(args.quick),
        errors: measured.errors,
    })
}

/// Writes the last traced rep's spans, with what produced them.
fn write_trace_file<W: Workload>(
    args: &RunArgs,
    reps: &[Rep],
    spans: &[Span],
) -> Result<(), String> {
    let path = args.out_dir.join(format!("trace_{}.json", W::NAME));
    let reps_json: Vec<String> = reps
        .iter()
        .map(|r| {
            format!(
                "{{\"traced\": {}, \"setup_s\": {}, \"run_s\": {}}}",
                r.traced,
                json::number(r.setup_s),
                json::number(r.run_s)
            )
        })
        .collect();
    let doc = format!(
        "{{\n\"provenance\": {},\n\"workload\": {},\n\"seed\": {},\n\"seconds\": {},\n\
         \"quick\": {},\n\"sizes\": {},\n\"digest\": \"{:016x}\",\n\"reps\": [{}],\n\
         \"note\": \"spans of the last traced rep; times are ns since that rep began; \
         self_ns = duration minus direct children\",\n\"spans\": {}\n}}\n",
        provenance::json(),
        json::quote(W::NAME),
        args.seed,
        json::number(args.seconds),
        args.quick,
        W::sizes_json(args.quick),
        reps[0].outcome.digest,
        reps_json.join(", "),
        trace::spans_json(spans),
    );
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

impl RunReport {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// What the result line has no room for (digest, per-rep raw values,
    /// sizes), as one JSON object; `suite` stores it beside the metrics.
    pub fn detail_line(&self) -> String {
        let reps: Vec<String> = self
            .reps
            .iter()
            .map(|(traced, setup, run)| {
                format!("[{traced}, {}, {}]", json::number(*setup), json::number(*run))
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"digest\": \"{:016x}\", \"reps_traced_setup_run\": [{}], \
             \"sizes\": {}, \"errors\": [{}]}}",
            json::quote(self.workload),
            self.digest,
            reps.join(", "),
            self.sizes_json,
            self.errors.iter().map(|e| json::quote(e)).collect::<Vec<_>>().join(", ")
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn human(&self) -> String {
        let mut out = format!(
            "{}: {} reps, {} ops attempted ({}), {} failed, digest of rep 0 {:016x}\n",
            self.workload,
            self.reps.len(),
            self.attempted,
            self.op,
            self.failed,
            self.digest
        );
        for (name, value, unit) in &self.metrics {
            // How a per-layer number was obtained: probe, span or count.
            let kind = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .map_or(String::new(), |m| format!("  [{}]", m.kind.as_str()));
            out.push_str(&format!("  {name:<44} {value:>16.6} {unit}{kind}\n"));
        }
        for (name, n, used) in self.samples.iter().filter(|(_, n, _)| *n > 0) {
            out.push_str(&format!(
                "  n({name}) = {n}, percentile reported: p{}\n",
                *used as f64 / 10.0
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("  WRONG: {e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A workload whose every rep reports another digest.
    struct Flaky;
    static FLAKY_REPS: AtomicU64 = AtomicU64::new(0);

    impl Workload for Flaky {
        const NAME: &'static str = "flaky";
        const OP: &'static str = "nothing";
        fn sizes_json(_quick: bool) -> String {
            "{}".into()
        }
        fn setup(_seed: u64, _quick: bool, _t: &mut Spans) -> Flaky {
            Flaky
        }
        fn run(&mut self, _t: &mut Spans) -> Outcome {
            let digest = FLAKY_REPS.fetch_add(1, Ordering::SeqCst);
            Outcome { attempted: 1, failed: 0, events: 1, digest, counts: Vec::new() }
        }
        fn verify(&mut self, _t: &mut Spans) -> Result<(), String> {
            Ok(())
        }
    }

    /// A workload whose output check fails.
    struct Wrong;

    impl Workload for Wrong {
        const NAME: &'static str = "wrong";
        const OP: &'static str = "nothing";
        fn sizes_json(_quick: bool) -> String {
            "{}".into()
        }
        fn setup(_seed: u64, _quick: bool, _t: &mut Spans) -> Wrong {
            Wrong
        }
        fn run(&mut self, _t: &mut Spans) -> Outcome {
            Outcome { attempted: 1, failed: 0, events: 1, digest: 7, counts: Vec::new() }
        }
        fn verify(&mut self, _t: &mut Spans) -> Result<(), String> {
            Err("one byte differs".into())
        }
    }

    fn args() -> RunArgs {
        RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: true,
            out_dir: PathBuf::from("unused"),
        }
    }

    #[test]
    fn reps_that_disagree_on_the_digest_make_the_run_incorrect() {
        let report = run_workload::<Flaky>(&args()).unwrap();
        assert!(!report.correct);
        assert!(report.errors[0].contains("disagrees with rep 0"), "{:?}", report.errors);
        assert!(report.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_failed_output_check_makes_the_run_incorrect() {
        let report = run_workload::<Wrong>(&args()).unwrap();
        assert!(!report.correct);
        assert_eq!(report.errors.len(), report.reps.len(), "every rep is checked");
        assert!(report.errors[0].contains("one byte differs"));
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let report = run_workload::<Wrong>(&args()).unwrap();
        let doc = json::Json::parse(&report.result_line()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(json::Json::parse(&report.detail_line()).is_ok());
    }
}
