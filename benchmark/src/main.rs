//! `ipfs-benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! ipfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out-dir <dir>]
//! ipfs-benchmark suite --out <file> [--seeds 1,2,3] [--seconds <s>] [--quick]
//! ipfs-benchmark compare <a.json> <b.json>
//! ipfs-benchmark manifest
//! ```

use ipfs_benchmark::compare::{compare_files, Verdict};
use ipfs_benchmark::runner::{self, RunArgs};
use ipfs_benchmark::suite::{run_suite, SuiteArgs};
use ipfs_benchmark::{metrics, probes, provenance};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  ipfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out-dir <dir>]
  ipfs-benchmark suite --out <file> [--seeds <a,b,..>] [--seconds <s>] [--quick]
  ipfs-benchmark compare <a.json> <b.json>
  ipfs-benchmark manifest        (prints BENCHMARK.json from the metric tables)
workloads: dht_perf swarm_fetch gateway_day reprovide_sweep pdes_world";

/// Flags of a command line: `--name value` pairs, bare `--quick`, and
/// positional words.
struct Flags {
    pairs: Vec<(String, String)>,
    quick: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags { pairs: Vec::new(), quick: false, positional: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => flags.quick = true,
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.pairs.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

fn run_command(flags: &Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags.get("workload").ok_or("--workload is required")?.to_string(),
        seed: flags.number("seed", 2022u64)?,
        seconds: flags.number("seconds", metrics::RUN_SECONDS as f64)?,
        trace: match flags.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        quick: flags.quick,
        out_dir: PathBuf::from(flags.get("out-dir").unwrap_or("benchmark/out")),
    };
    let report = runner::run(&args)?;
    print!("{}", report.human());
    println!("detail {}", report.detail_line());
    println!("{}", report.result_line());
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn suite_command(flags: &Flags) -> Result<ExitCode, String> {
    let seeds = flags
        .get("seeds")
        .unwrap_or("2022")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("--seeds: cannot read {s:?}")))
        .collect::<Result<Vec<u64>, String>>()?;
    let args = SuiteArgs {
        seeds,
        seconds: flags.number("seconds", metrics::RUN_SECONDS as f64)?,
        quick: flags.quick,
        out: PathBuf::from(flags.get("out").ok_or("suite: --out is required")?),
    };
    Ok(if run_suite(&args)? { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare_command(flags: &Flags) -> Result<ExitCode, String> {
    let [_, a, b] = &flags.positional[..] else {
        return Err("compare needs two result-set files".into());
    };
    let (report, worst) = compare_files(a, b)?;
    print!("{report}");
    Ok(match worst {
        Verdict::Ok => ExitCode::SUCCESS,
        Verdict::Worse => ExitCode::from(1),
        Verdict::Unresolved => ExitCode::from(2),
    })
}

/// Child side of a memory probe: prints one number.
fn rss_probe_command(flags: &Flags) -> Result<ExitCode, String> {
    let [_, name, seed] = &flags.positional[..] else {
        return Err("rss-probe needs a probe name and a seed".into());
    };
    let seed = seed.parse().map_err(|_| format!("rss-probe: cannot read seed {seed:?}"))?;
    let value = probes::run_rss_probe(name, seed, flags.quick)
        .ok_or_else(|| format!("rss-probe: unknown probe {name:?}"))?;
    println!("{value}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Before anything reads the environment or starts a thread.
    provenance::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        Flags::parse(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            None => run_command(&flags),
            Some("suite") => suite_command(&flags),
            Some("compare") => compare_command(&flags),
            Some("rss-probe") => rss_probe_command(&flags),
            Some("manifest") => {
                print!("{}", metrics::manifest_json());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other:?}")),
        });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ipfs-benchmark: {message}\n{USAGE}");
            ExitCode::from(3)
        }
    }
}
