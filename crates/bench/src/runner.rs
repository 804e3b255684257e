//! Shared scaffolding for the experiment binaries: the parsed run
//! configuration, scale selection and common printing.

use std::path::PathBuf;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast, CI-friendly runs that preserve every distribution's shape.
    Small,
    /// Populations and iteration counts close to the paper's (slow).
    Paper,
}

/// The six `IPFS_REPRO_*` knobs, parsed once in each binary's `main` and
/// passed down. This is the only place the crate reads the environment,
/// and the value [`crate::export::BenchDoc`] stamps into every
/// `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// `IPFS_REPRO_SEED`: master seed (default 2022).
    pub seed: u64,
    /// `IPFS_REPRO_SCALE`: `small` (default) or `paper`.
    pub scale: Scale,
    /// `IPFS_REPRO_JOBS`: worker threads for independent experiment
    /// cells, at least 1 (`1` forces the serial path; default: available
    /// cores).
    pub jobs: usize,
    /// `IPFS_REPRO_SHARDS`: region shards for the PDES cells, clamped to
    /// `1..=10` (`1` forces the exact serial path; default: `min(6,
    /// available cores)`). Results are byte-identical at every value —
    /// the knob only trades wall-clock time.
    pub shards: usize,
    /// `IPFS_REPRO_CSV_DIR`: where CSV/JSON artifacts are also written
    /// (default: nowhere).
    pub csv_dir: Option<PathBuf>,
    /// `IPFS_REPRO_DTRACE`: `1` arms distributed tracing in `throughput`'s
    /// sim section (default `0`).
    pub dtrace: bool,
}

impl RunConfig {
    /// Parses the knobs out of `lookup` (name → value, `None` when
    /// unset). A value that is set but not accepted is an error naming
    /// the knob, the value and what is accepted — never a silent default.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<RunConfig, String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(RunConfig {
            seed: knob(&lookup, "IPFS_REPRO_SEED", "an unsigned integer", |v| v.parse().ok())?
                .unwrap_or(2022),
            scale: knob(&lookup, "IPFS_REPRO_SCALE", "`small` or `paper`", |v| match v {
                "small" => Some(Scale::Small),
                "paper" => Some(Scale::Paper),
                _ => None,
            })?
            .unwrap_or(Scale::Small),
            jobs: knob(&lookup, "IPFS_REPRO_JOBS", "an integer >= 1", |v| {
                v.parse().ok().filter(|&j| j >= 1)
            })?
            .unwrap_or(cores),
            shards: knob(&lookup, "IPFS_REPRO_SHARDS", "an integer (clamped to 1..=10)", |v| {
                v.parse().ok().map(|s: usize| s.clamp(1, 10))
            })?
            .unwrap_or(cores.min(6)),
            csv_dir: lookup("IPFS_REPRO_CSV_DIR").map(PathBuf::from),
            dtrace: knob(&lookup, "IPFS_REPRO_DTRACE", "`0` or `1`", |v| match v {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            })?
            .unwrap_or(false),
        })
    }

    /// [`RunConfig::parse`] over the process environment; a rejected value
    /// is printed and exits 2.
    pub fn from_env() -> RunConfig {
        RunConfig::parse(|name| std::env::var(name).ok()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// What every harness binary's `main` starts with:
    /// [`RunConfig::from_env`], then the standard experiment [`banner`].
    pub fn start(artifact: &str, description: &str) -> RunConfig {
        let run = RunConfig::from_env();
        print!("{}", banner(artifact, description, &run));
        run
    }
}

/// The standard experiment banner that opens every harness's and every
/// paper artifact's output.
pub fn banner(artifact: &str, description: &str, run: &RunConfig) -> String {
    let rule = "==================================================================";
    format!(
        "{rule}\n{artifact} — {description}\nscale: {:?}, seed: {} \
         (IPFS_REPRO_SCALE / IPFS_REPRO_SEED to change)\n{rule}\n",
        run.scale, run.seed
    )
}

impl Default for RunConfig {
    /// What an empty environment parses to.
    fn default() -> RunConfig {
        RunConfig::parse(|_| None).expect("every default is an accepted value")
    }
}

/// One knob: `Ok(None)` when unset, an error naming the knob, the value
/// and what is `accepted` when `parse` rejects the value.
fn knob<T>(
    lookup: &impl Fn(&str) -> Option<String>,
    name: &str,
    accepted: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match lookup(name) {
        None => Ok(None),
        Some(v) => parse(&v)
            .map(Some)
            .ok_or_else(|| format!("{name}={v:?} is not accepted: expected {accepted}")),
    }
}

/// Concrete sizes per scale.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Peer population for network experiments.
    pub population: usize,
    /// DHT-perf iterations per region (paper: ~547).
    pub iterations_per_region: usize,
    /// Gateway catalog size (paper: 274 k CIDs).
    pub gateway_catalog: usize,
    /// Gateway users (paper: 101 k).
    pub gateway_users: usize,
    /// Gateway requests over the day (paper: 7.1 M).
    pub gateway_requests: usize,
    /// Churn-monitor population.
    pub monitor_population: usize,
    /// Crawl-series population.
    pub crawl_population: usize,
    /// Number of 30-min crawl rounds for the time series.
    pub crawl_rounds: usize,
    /// Population used for pure-distribution figures (5/6/7, tables 2/3).
    pub census_population: usize,
}

impl ScaleConfig {
    /// Resolves sizes for a scale.
    pub fn resolve(scale: Scale) -> ScaleConfig {
        match scale {
            Scale::Small => ScaleConfig {
                population: 1_500,
                iterations_per_region: 12,
                gateway_catalog: 2_000,
                gateway_users: 800,
                gateway_requests: 12_000,
                monitor_population: 6_000,
                crawl_population: 1_200,
                crawl_rounds: 48, // one day of 30-min crawls
                census_population: 60_000,
            },
            Scale::Paper => ScaleConfig {
                population: 20_000,
                iterations_per_region: 200,
                gateway_catalog: 27_400,
                gateway_users: 10_100,
                gateway_requests: 300_000,
                monitor_population: 40_000,
                crawl_population: 10_000,
                crawl_rounds: 96, // two days
                census_population: 200_000,
            },
        }
    }
}

/// Runs `cells` independent experiment cells through `f` on `jobs` worker
/// threads, returning results in cell order.
///
/// Cells must be *independent*: each builds its own population, network
/// and RNG from a per-cell seed, so the result of cell `i` is a pure
/// function of `i`. Workers pull the next unclaimed index from a shared
/// counter and stash `(index, result)` pairs; the merge reorders by index,
/// making the output byte-identical to the serial path no matter how the
/// scheduler interleaves the workers. `jobs <= 1` (or a single cell) runs
/// inline with no threads at all — exactly the pre-parallel behaviour.
pub fn run_cells_with_jobs<T, F>(jobs: usize, cells: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || cells <= 1 {
        return (0..cells).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(cells);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..jobs.min(cells) {
            handles.push(scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= cells {
                        break;
                    }
                    mine.push((i, f(i)));
                }
                mine
            }));
        }
        for h in handles {
            indexed.extend(h.join().expect("experiment cell panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lookup over a fixed knob list — no process environment involved.
    fn parse(knobs: &[(&str, &str)]) -> Result<RunConfig, String> {
        RunConfig::parse(|name| knobs.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn unset_knobs_take_the_documented_defaults() {
        let run = parse(&[]).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!((run.seed, run.scale, run.dtrace), (2022, Scale::Small, false));
        assert_eq!((run.jobs, run.shards, run.csv_dir), (cores, cores.min(6), None));
    }

    #[test]
    fn each_knob_is_parsed() {
        let run = parse(&[
            ("IPFS_REPRO_SEED", "7"),
            ("IPFS_REPRO_SCALE", "paper"),
            ("IPFS_REPRO_JOBS", "3"),
            ("IPFS_REPRO_SHARDS", "4"),
            ("IPFS_REPRO_CSV_DIR", "out"),
            ("IPFS_REPRO_DTRACE", "1"),
        ])
        .unwrap();
        let expected = RunConfig {
            seed: 7,
            scale: Scale::Paper,
            jobs: 3,
            shards: 4,
            csv_dir: Some(PathBuf::from("out")),
            dtrace: true,
        };
        assert_eq!(run, expected);
        assert_eq!(parse(&[("IPFS_REPRO_SCALE", "small")]).unwrap().scale, Scale::Small);
        assert!(!parse(&[("IPFS_REPRO_DTRACE", "0")]).unwrap().dtrace);
    }

    #[test]
    fn shards_clamp_to_one_through_ten() {
        assert_eq!(parse(&[("IPFS_REPRO_SHARDS", "0")]).unwrap().shards, 1);
        assert_eq!(parse(&[("IPFS_REPRO_SHARDS", "99")]).unwrap().shards, 10);
    }

    #[test]
    fn rejected_values_name_the_knob_and_the_value() {
        for (name, value) in [
            ("IPFS_REPRO_SCALE", "Paper"),
            ("IPFS_REPRO_SCALE", ""),
            ("IPFS_REPRO_JOBS", "0"),
            ("IPFS_REPRO_JOBS", "abc"),
            ("IPFS_REPRO_SHARDS", "abc"),
            ("IPFS_REPRO_SEED", "x"),
            ("IPFS_REPRO_SEED", "-1"),
            ("IPFS_REPRO_DTRACE", "yes"),
        ] {
            let err = parse(&[(name, value)]).unwrap_err();
            assert!(err.contains(name) && err.contains(&format!("{value:?}")), "{err}");
            assert!(err.contains("expected"), "{err}");
        }
    }

    #[test]
    fn paper_scale_is_larger_everywhere() {
        let s = ScaleConfig::resolve(Scale::Small);
        let p = ScaleConfig::resolve(Scale::Paper);
        assert!(p.population > s.population);
        assert!(p.iterations_per_region > s.iterations_per_region);
        assert!(p.gateway_requests > s.gateway_requests);
        assert!(p.census_population > s.census_population);
    }
}
