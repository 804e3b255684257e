//! `suite`: every workload × a list of seeds, one child process per run,
//! gathered into one result set with what produced it.
//!
//! A child per run keeps `peak_rss_mib` that run's own, and is how the
//! driver runs the benchmark too. Children never run concurrently.

use crate::json::{self, Json};
use crate::metrics::END_TO_END;
use crate::provenance;
use crate::stats::{iqr_share, median};
use crate::workloads::NAMES;
use std::path::PathBuf;

/// What to run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// One run per workload per seed.
    pub seeds: Vec<u64>,
    /// Time budget of each run.
    pub seconds: f64,
    /// Tiny sizes.
    pub quick: bool,
    /// Where the result set goes.
    pub out: PathBuf,
}

/// A finished child run: its result line, detail line and seed.
struct Run {
    seed: u64,
    result: Json,
    detail: Json,
}

fn run_child(workload: &str, seed: u64, args: &SuiteArgs) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = provenance::scrubbed_command(&exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "0"]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or_else(|| format!("{workload} seed {seed}: no output"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{workload} seed {seed}: no detail line"))?;
    // A run whose outputs were wrong exits non-zero but still reports;
    // it goes into the set as `"correct": false`.
    match (Json::parse(result), Json::parse(detail)) {
        (Ok(result), Ok(detail)) => Ok(Run { seed, result, detail }),
        _ => Err(format!("{workload} seed {seed}: exited with {} and no result", out.status)),
    }
}

fn metric(run: &Run, name: &str) -> Result<f64, String> {
    run.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("seed {}: metric {name} missing", run.seed))
}

fn workload_json(runs: &[Run]) -> Result<String, String> {
    let mut run_docs = Vec::new();
    for run in runs {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| Ok(format!("{}: {}", json::quote(m.name), json::number(metric(run, m.name)?))))
            .collect::<Result<_, String>>()?;
        let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
        run_docs.push(format!(
            "{{\"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"digest\": {}, \"reps_traced_setup_run\": {}, \"metrics\": {{{}}}}}",
            run.seed,
            field(&run.result, "correct").render(),
            field(&run.result, "attempted").render(),
            field(&run.result, "failed").render(),
            field(&run.detail, "digest").render(),
            field(&run.detail, "reps_traced_setup_run").render(),
            metrics.join(", ")
        ));
    }
    let mut medians = Vec::new();
    let mut spreads = Vec::new();
    for m in END_TO_END {
        let values: Vec<f64> = runs.iter().map(|r| metric(r, m.name)).collect::<Result<_, _>>()?;
        medians.push(format!("{}: {}", json::quote(m.name), json::number(median(&values))));
        if values.len() >= 2 {
            spreads.push(format!("{}: {}", json::quote(m.name), json::number(iqr_share(&values))));
        }
    }
    let sizes = runs.first().and_then(|r| r.detail.get("sizes")).cloned().unwrap_or(Json::Null);
    Ok(format!(
        "{{\n  \"sizes\": {},\n  \"runs\": [\n    {}\n  ],\n  \"median\": {{{}}},\n  \
         \"iqr_share\": {{{}}}\n }}",
        sizes.render(),
        run_docs.join(",\n    "),
        medians.join(", "),
        spreads.join(", ")
    ))
}

/// Runs the suite and writes the result set. `Ok(false)` when a run's
/// outputs were wrong.
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    if args.seeds.is_empty() {
        return Err("suite needs at least one seed".into());
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in NAMES {
        let mut runs = Vec::new();
        for &seed in &args.seeds {
            let run = run_child(workload, seed, args)?;
            let correct = run.result.get("correct") == Some(&Json::Bool(true));
            all_correct &= correct;
            let values: Vec<String> = END_TO_END
                .iter()
                .map(|m| Ok(format!("{} {:.4} {}", m.name, metric(&run, m.name)?, m.unit)))
                .collect::<Result<_, String>>()?;
            println!(
                "{workload:<16} seed {seed:<6} {}  {}",
                if correct { "correct" } else { "WRONG  " },
                values.join("  ")
            );
            runs.push(run);
        }
        workloads.push(format!(" {}: {}", json::quote(workload), workload_json(&runs)?));
    }
    let seeds: Vec<String> = args.seeds.iter().map(u64::to_string).collect();
    let doc = format!(
        "{{\n\"provenance\": {},\n\"seconds\": {},\n\"quick\": {},\n\"seeds\": [{}],\n\
         \"workloads\": {{\n{}\n}}\n}}\n",
        provenance::json(),
        json::number(args.seconds),
        args.quick,
        seeds.join(", "),
        workloads.join(",\n")
    );
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, doc).map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    Ok(all_correct)
}
