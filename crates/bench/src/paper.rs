//! The paper's evaluation as one index of artifacts: every table, figure
//! and ablation is a render function over shared inputs, driven by the
//! `paper` binary (`paper [--only a,b,…] [--out DIR]`).
//!
//! An artifact's text is the banner plus what its render function writes;
//! its name is the `results/<name>.txt` file stem. Shared inputs — the
//! six-vantage DHT run, the gateway workload and served day, the census
//! population and the churn-monitor run — are built lazily, at most once
//! per [`Inputs`], and only when a selected artifact reads them. Every
//! input is a pure function of the seed and scale, so an artifact prints
//! the same bytes whichever artifacts ran before it.

use crate::export::{write_csv, write_file, write_series_csv, write_timeseries_csv, BenchDoc};
use crate::runner::{banner, run_cells_with_jobs, RunConfig, ScaleConfig};
use crate::stats::{
    ascii_series, cdf_points, fraction_below, markdown_table, pearson, percentile, rank_by_count,
    Summary,
};
use bytes::Bytes;
use crawler::{ChurnMonitor, Crawler, MonitorConfig, SessionObservation, UptimeSummary};
use gateway::log::RequestBins;
use gateway::workload::{GatewayWorkload, Referrer, WorkloadConfig};
use gateway::{AccessLogEntry, FleetConfig, GatewayConfig, GatewayFleet, ServedBy};
use ipfs_core::{DhtPerfConfig, DhtPerfExperiment, DhtPerfResults, IpfsNetwork, NetworkConfig};
use ipfs_core::{NodeConfig, NodeId, RetrieveReport};
use simnet::geodb::{Country, HostInfo, CLOUD_PROVIDERS, NAMED_ASES};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimPeer, SimTime};
use std::cell::{OnceCell, RefCell};
use std::collections::HashSet;
use std::fmt::{self, Write};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::time::Instant;

/// One artifact of the evaluation.
#[derive(Debug)]
pub struct Artifact {
    /// The `--only` name and the `results/<name>.txt` file stem.
    pub name: &'static str,
    /// Banner title (`Figure 9`, `Table 4`, `Ablation`, …).
    pub title: &'static str,
    /// Banner description.
    pub description: &'static str,
    /// Writes everything after the banner.
    pub render: Render,
}

/// An artifact's render function: appends its body to the text.
pub type Render = fn(&Inputs, &mut String) -> fmt::Result;

/// Every artifact, in the order the driver prints them.
#[rustfmt::skip]
pub const ARTIFACTS: &[Artifact] = &[
    entry("fig04a_crawl_timeseries", fig04a_crawl_timeseries, "Figure 4a", "crawled peers over time (dialable vs undialable)"),
    entry("fig04b_gateway_requests", fig04b_gateway_requests, "Figure 4b", "gateway request count per 5-minute bin"),
    entry("tab1_operation_counts", tab1_operation_counts, "Table 1", "publication and retrieval operations per region"),
    entry("fig05_geo_peers", fig05_geo_peers, "Figure 5", "geographical distribution of peers"),
    entry("fig06_geo_users", fig06_geo_users, "Figure 6", "geographical distribution of gateway users"),
    entry("fig07_peer_analysis", fig07_peer_analysis, "Figure 7", "reliable/unreachable peers, PeerIDs per IP, IPs per AS"),
    entry("tab2_top_ases", tab2_top_ases, "Table 2", "top autonomous systems by IP share"),
    entry("tab3_cloud_share", tab3_cloud_share, "Table 3", "cloud-provider share of IPFS nodes"),
    entry("fig08_churn_cdf", fig08_churn_cdf, "Figure 8", "session-uptime CDFs by region (churn)"),
    entry("fig09_dht_performance", fig09_dht_performance, "Figure 9", "publication & retrieval delay CDFs per region"),
    entry("tab4_latency_percentiles", tab4_latency_percentiles, "Table 4", "publication & retrieval latency percentiles per region"),
    entry("fig10_retrieval_stretch", fig10_retrieval_stretch, "Figure 10", "retrieval stretch with/without the Bitswap timeout"),
    entry("fig11_gateway_analysis", fig11_gateway_analysis, "Figure 11", "gateway latency/size distributions and cache bins"),
    entry("tab5_gateway_cache_tiers", tab5_gateway_cache_tiers, "Table 5", "gateway cache-tier latency and traffic split"),
    entry("tab_gateway_referrals", tab_gateway_referrals, "Gateway referrals", "§6.3's referred-traffic breakdown"),
    entry("ablation_replication", ablation_replication, "Ablation", "replication factor k vs record survival under churn"),
    entry("ablation_parallel_lookup", ablation_parallel_lookup, "Ablation", "serial (1 s Bitswap first) vs parallel DHT+Bitswap"),
    entry("ablation_client_server", ablation_client_server, "Ablation", "DHT client/server split on vs off (pre-v0.5 behaviour)"),
    entry("ablation_gateway_cache", ablation_gateway_cache, "Ablation", "gateway nginx-cache capacity sweep"),
    entry("ablation_nat_hosting", ablation_nat_hosting, "Ablation", "NAT'ed content hosting without / with DCUtR hole punching"),
    entry("ablation_hydra", ablation_hydra, "Ablation", "Hydra boosters: stabilizing the DHT with datacenter heads"),
    entry("chaos", chaos, "Chaos", "fault injection & recovery measurement (faultsim)"),
    entry("gateway_fleet", gateway_fleet, "Gateway fleet", "load-balanced gateways: admission, coalescing, failover"),
    entry("swarm", swarm, "Swarm transfer", "multi-provider Bitswap sessions over chunked DAGs"),
    entry("tab_latency_attribution", tab_latency_attribution, "Latency", "per-phase retrieval latency attribution (span trees)"),
];

/// One row of [`ARTIFACTS`].
const fn entry(
    name: &'static str,
    render: Render,
    title: &'static str,
    description: &'static str,
) -> Artifact {
    Artifact { name, title, description, render }
}

/// The driver's command line: `[--only a,b,…] [--out DIR]`.
#[derive(Debug)]
pub struct Args {
    /// Selected artifacts, in index order (all when `--only` is absent).
    pub selected: Vec<&'static Artifact>,
    /// Where `<name>.txt` per artifact and `BENCH_paper.json` are written.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Parses the arguments after the program name. An unknown flag, a
    /// missing value or an unknown artifact name is an error naming it
    /// and what is accepted.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args { selected: ARTIFACTS.iter().collect(), out: None };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next();
            match (flag.as_str(), value) {
                ("--only", Some(v)) => {
                    let names: Vec<&str> = v.split(',').collect();
                    if let Some(bad) =
                        names.iter().find(|n| !ARTIFACTS.iter().any(|a| a.name == **n))
                    {
                        let accepted: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
                        return Err(format!(
                            "--only {bad:?} is not accepted: expected a comma-separated list of {}",
                            accepted.join(", ")
                        ));
                    }
                    parsed.selected.retain(|a| names.contains(&a.name));
                }
                ("--out", Some(v)) => parsed.out = Some(PathBuf::from(v)),
                _ => {
                    return Err(format!(
                        "{flag:?} is not accepted: expected `--only a,b,…` and/or `--out DIR`"
                    ))
                }
            }
        }
        Ok(parsed)
    }
}

/// Prints each selected artifact's text to stdout in index order and, with
/// `--out`, writes it to `<name>.txt` plus the wall-clock seconds of each
/// artifact (and the total) to `BENCH_paper.json`. Stderr names each
/// shared input when it is built and each artifact's seconds.
pub fn drive(args: &Args, run: RunConfig) {
    let inputs = Inputs::new(run);
    let mut doc = BenchDoc::new("paper", &inputs.run);
    let start = Instant::now();
    for artifact in &args.selected {
        let t0 = Instant::now();
        let mut text = banner(artifact.title, artifact.description, &inputs.run);
        (artifact.render)(&inputs, &mut text).expect("writing to a String cannot fail");
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("paper: {} {secs:.2} s", artifact.name);
        print!("{text}");
        let built: Vec<String> = inputs.built.take().iter().map(|b| format!("{b:?}")).collect();
        doc.wall_cell(artifact.name, secs, &format!("{{\"built\": [{}]}}", built.join(", ")));
        write_file(args.out.as_deref(), &format!("{}.txt", artifact.name), &text);
    }
    let result = format!("{{\"artifacts\": {}}}", args.selected.len());
    doc.wall_cell("total", start.elapsed().as_secs_f64(), &result);
    write_file(args.out.as_deref(), "BENCH_paper.json", &doc.render());
}

/// The shared inputs of one invocation, each built on first use.
#[derive(Default)]
pub struct Inputs {
    run: RunConfig,
    /// Names of the inputs built since the driver last took the list.
    built: RefCell<Vec<&'static str>>,
    dht: OnceCell<DhtPerfResults>,
    dht_ablation_base: OnceCell<DhtPerfResults>,
    workload: OnceCell<GatewayWorkload>,
    gateway_day: OnceCell<GatewayDay>,
    census: OnceCell<Population>,
    monitor: OnceCell<Monitor>,
}

/// A one-gateway fleet after serving a whole workload, and its access log.
struct GatewayDay {
    fleet: GatewayFleet,
    log: Vec<AccessLogEntry>,
}

/// The churn monitor's population and its output.
struct Monitor {
    pop: Population,
    observations: Vec<SessionObservation>,
    summaries: Vec<UptimeSummary>,
}

impl Inputs {
    /// No input built yet.
    fn new(run: RunConfig) -> Inputs {
        Inputs { run, ..Default::default() }
    }

    fn cfg(&self) -> ScaleConfig {
        ScaleConfig::resolve(self.run.scale)
    }

    /// `cell`'s value, built by `build` (and announced on stderr) the
    /// first time it is asked for.
    fn shared<'a, T>(
        &self,
        cell: &'a OnceCell<T>,
        name: &'static str,
        build: impl FnOnce() -> T,
    ) -> &'a T {
        cell.get_or_init(|| {
            let t0 = Instant::now();
            let value = build();
            eprintln!("paper: built {name} in {:.2} s", t0.elapsed().as_secs_f64());
            self.built.borrow_mut().push(name);
            value
        })
    }

    /// The §4.3 six-vantage DHT run at the scale's iteration count, for
    /// Table 1, Figure 9, Table 4 and Figure 10.
    fn dht(&self) -> &DhtPerfResults {
        self.shared(&self.dht, "dht", || {
            self.dht_perf(self.cfg().iterations_per_region, NetworkConfig::default())
        })
    }

    /// The default-network arm the DHT ablations compare against.
    fn dht_ablation_base(&self) -> &DhtPerfResults {
        self.shared(&self.dht_ablation_base, "dht_ablation_base", || {
            self.dht_ablation(NetworkConfig::default())
        })
    }

    /// One arm of a DHT ablation: at most 10 iterations per region.
    fn dht_ablation(&self, network: NetworkConfig) -> DhtPerfResults {
        self.dht_perf(self.cfg().iterations_per_region.min(10), network)
    }

    fn dht_perf(&self, iterations_per_region: usize, network: NetworkConfig) -> DhtPerfResults {
        DhtPerfExperiment::new(DhtPerfConfig {
            population: self.cfg().population,
            iterations_per_region,
            seed: self.run.seed,
            network,
            ..Default::default()
        })
        .run()
    }

    /// The one-day gateway trace.
    fn workload(&self) -> &GatewayWorkload {
        self.shared(&self.workload, "workload", || {
            GatewayWorkload::generate(WorkloadConfig {
                catalog_size: self.cfg().gateway_catalog,
                users: self.cfg().gateway_users,
                requests: self.cfg().gateway_requests,
                seed: self.run.seed,
                ..Default::default()
            })
        })
    }

    /// The trace served by one default gateway, for Figure 11 and Table 5.
    fn gateway_day(&self) -> &GatewayDay {
        self.shared(&self.gateway_day, "gateway_day", || {
            let seed = self.run.seed;
            let pop = population(self.cfg().population.min(2_000), 26, seed);
            serve_day(&pop, self.workload(), GatewayConfig::default(), 50, seed)
        })
    }

    /// The census population of Figures 5 and Tables 2–3.
    fn census(&self) -> &Population {
        self.shared(&self.census, "census", || {
            population(self.cfg().census_population, 1, self.run.seed)
        })
    }

    /// A 48 h churn-monitor run, for Figures 7 and 8.
    fn monitor(&self) -> &Monitor {
        self.shared(&self.monitor, "monitor", || {
            let pop = population(self.cfg().monitor_population, 48, self.run.seed);
            let (observations, summaries) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);
            Monitor { pop, observations, summaries }
        })
    }
}

/// A default-mix population of `size` peers with schedules over `hours`.
fn population(size: usize, hours: u64, seed: u64) -> Population {
    let horizon = SimDuration::from_hours(hours);
    Population::generate(PopulationConfig { size, horizon, ..Default::default() }, seed)
}

/// Serves `workload` from a gateway on a `UsWest1` vantage of `pop`, after
/// installing the catalog on the first `providers` dialable servers.
fn serve_day(
    pop: &Population,
    workload: &GatewayWorkload,
    config: GatewayConfig,
    providers: usize,
    seed: u64,
) -> GatewayDay {
    let mut net =
        IpfsNetwork::from_population(pop, &[VantagePoint::UsWest1], NetworkConfig::default(), seed);
    let mut fleet = GatewayFleet::new(
        &net.vantage_ids(1),
        FleetConfig { gateway: config, ..Default::default() },
    );
    let providers: Vec<NodeId> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(providers).collect();
    fleet.install_catalog(&mut net, workload, &providers);
    let log = fleet.serve_all(&mut net, workload).into_iter().map(|e| e.entry).collect();
    GatewayDay { fleet, log }
}

/// The hosts a peer advertises addresses on: its own and, when multihomed,
/// a second one.
fn hosts(p: &SimPeer) -> impl Iterator<Item = &HostInfo> {
    std::iter::once(&p.host).chain(&p.secondary_host)
}

/// `f` of every report from `vp` (from every region when `None`).
fn samples<R>(
    reports: &[(VantagePoint, R)],
    vp: Option<VantagePoint>,
    f: fn(&R) -> f64,
) -> Vec<f64> {
    reports.iter().filter(|(v, _)| vp.is_none_or(|vp| *v == vp)).map(|(_, r)| f(r)).collect()
}

/// `size` bytes, distinct per `i`.
fn object(i: usize, size: usize) -> Bytes {
    let mut data = vec![0u8; size];
    data[..8].copy_from_slice(&(i as u64).to_be_bytes());
    Bytes::from(data)
}

/// A markdown table and the blank line after it.
fn write_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) -> fmt::Result {
    writeln!(out, "{}", markdown_table(headers, rows))
}

/// "Cached" means the content-bearing tiers only — a negative-cache
/// answer is a remembered failure, not cached content.
fn cached(e: &AccessLogEntry) -> bool {
    matches!(e.served_by, ServedBy::NginxCache | ServedBy::NodeStore)
}

/// The paper's share for `code` in a country ranking, or a dash when the
/// paper reports none.
fn paper_share(paper: &[(&str, f64)], code: &str) -> String {
    paper.iter().find(|(c, _)| *c == code).map_or_else(|| "—".into(), |(_, s)| format!("{s:.1}"))
}

/// Figure 4a: number of crawled peers over time, split into dialable and
/// undialable (the paper crawled every 30 min from Germany; the series
/// shows one-day periodicity driven by churn).
fn fig04a_crawl_timeseries(w: &Inputs, out: &mut String) -> fmt::Result {
    let rounds = w.cfg().crawl_rounds;
    let horizon = SimDuration::from_mins(30) * (rounds as u64 + 2);
    let pop = Population::generate(
        PopulationConfig { size: w.cfg().crawl_population, horizon, ..Default::default() },
        w.run.seed,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1], // the paper's crawler ran from Germany
        NetworkConfig::default(),
        w.run.seed,
    );
    let crawler = Crawler::new();

    let mut rows = Vec::new();
    for _ in 0..rounds {
        let snap = crawler.crawl(&net, &pop);
        rows.push(vec![
            format!("{:.1}", net.now().as_secs_f64() / 3600.0),
            snap.peers.len().to_string(),
            snap.dialable.to_string(),
            snap.undialable.to_string(),
            format!("{:.1}", 100.0 * snap.dialable_fraction()),
            format!("{:.1}", snap.duration.as_secs_f64()),
        ]);
        net.run_for(SimDuration::from_mins(30));
    }
    write_table(
        out,
        &["t (h)", "peers in buckets", "dialable", "undialable", "dialable %", "crawl secs"],
        &rows,
    )?;
    writeln!(
        out,
        "(paper at full scale: ~40-60 k peers per crawl, 54.5 % of IPs ever dialable, 45.5 % never; \
our undialable entries are churned-offline servers, NAT'ed clients never enter k-buckets — §2.3)"
    )
}

/// Rough UTC offsets (hours) for user-local binning.
fn utc_offset(c: Country) -> f64 {
    match c {
        Country::US => -8.0,
        Country::CA => -5.0,
        Country::BR => -3.0,
        Country::GB => 0.0,
        Country::FR | Country::DE | Country::NL | Country::PL => 1.0,
        Country::RU => 3.0,
        Country::IN => 5.5,
        Country::CN | Country::HK | Country::TW | Country::SG => 8.0,
        Country::JP | Country::KR => 9.0,
        Country::AU => 10.0,
        Country::ZA => 2.0,
        Country::Other => 0.0,
    }
}

/// Figure 4b: request count at a single gateway over one day, binned at
/// 5 minutes, shown both in the gateway's timezone (PST) and the users'
/// local timezones.
fn fig04b_gateway_requests(w: &Inputs, out: &mut String) -> fmt::Result {
    let workload = w.workload();
    // For pure arrival-pattern analysis the cache tier is irrelevant:
    // wrap requests as log entries directly.
    let entries: Vec<AccessLogEntry> = workload
        .requests
        .iter()
        .map(|r| AccessLogEntry {
            at: r.at,
            completed_at: r.at,
            user: r.user,
            country: r.country,
            cid: workload.objects[r.object].cid.clone(),
            bytes: workload.objects[r.object].size,
            latency: SimDuration::ZERO,
            served_by: ServedBy::NginxCache,
            referrer: Referrer::Direct,
            success: true,
        })
        .collect();

    let day = SimDuration::from_hours(24);
    let five_min = SimDuration::from_mins(5);
    let gateway_tz = RequestBins::build(&entries, day, five_min, |_| true);
    // Sim time *is* gateway-local (PST) time; user-local shifts by the
    // difference between the user's offset and the gateway's −8 h.
    let user_tz =
        RequestBins::build_shifted(&entries, day, five_min, |e| utc_offset(e.country) - (-8.0));

    writeln!(out, "bin(5min)  gateway-tz  user-tz")?;
    // Print hourly aggregates (12 bins each) to keep the output readable;
    // full 5-min resolution totals follow.
    for hour in 0..24 {
        let g: u64 = gateway_tz.counts[hour * 12..(hour + 1) * 12].iter().sum();
        let u: u64 = user_tz.counts[hour * 12..(hour + 1) * 12].iter().sum();
        let bar =
            "#".repeat((g * 40 / gateway_tz.counts.iter().sum::<u64>().max(1) / 2).max(1) as usize);
        writeln!(out, "{hour:02}:00      {g:>8}  {u:>8}  {bar}")?;
    }
    let total: u64 = gateway_tz.counts.iter().sum();
    let peak = gateway_tz.counts.iter().max().copied().unwrap_or(0);
    let trough = gateway_tz.counts.iter().min().copied().unwrap_or(0);
    writeln!(
        out,
        "\ntotal {total} requests in {} five-minute bins; peak bin {peak}, trough {trough} \
(paper: 7.1 M requests/day with clear diurnal swing)",
        gateway_tz.counts.len()
    )
}

/// Table 1: number of publication and retrieval operations from each AWS
/// region.
///
/// Paper: 547 publications per region (546 for sa_east_1) and 2,047–2,708
/// retrievals per region, totalling 3,281 / 14,564.
fn tab1_operation_counts(w: &Inputs, out: &mut String) -> fmt::Result {
    let results = w.dht();
    let paper: [(&str, u32, u32); 6] = [
        ("af_south_1", 547, 2_047),
        ("ap_southeast_2", 547, 2_630),
        ("eu_central_1", 547, 2_708),
        ("me_south_1", 547, 2_112),
        ("sa_east_1", 546, 2_363),
        ("us_west_1", 547, 2_704),
    ];

    let mut rows = Vec::new();
    let mut tot_pub = 0;
    let mut tot_ret = 0;
    for vp in VantagePoint::ALL {
        let pubs = results.publishes.iter().filter(|(v, _)| *v == vp).count();
        let rets = results.retrieves.iter().filter(|(v, _)| *v == vp).count();
        tot_pub += pubs;
        tot_ret += rets;
        let (_, ppub, pret) = paper.iter().find(|(l, _, _)| *l == vp.label()).unwrap();
        rows.push(vec![
            vp.label().to_string(),
            pubs.to_string(),
            rets.to_string(),
            ppub.to_string(),
            pret.to_string(),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        tot_pub.to_string(),
        tot_ret.to_string(),
        "3281".into(),
        "14564".into(),
    ]);
    write_table(
        out,
        &["AWS Region", "Publications", "Retrievals", "Paper pub", "Paper ret"],
        &rows,
    )?;
    writeln!(
        out,
        "(each region publishes once per iteration and retrieves the other five regions' objects, \
matching the paper's setup; scale with IPFS_REPRO_SCALE=paper)"
    )
}

/// Figure 5: geographical distribution of DHT peers.
///
/// Paper: US 28.5 %, CN 24.2 %, FR 8.3 %, TW 7.2 %, KR 6.7 %; multihoming
/// peers (~8.8 %) counted repeatedly.
fn fig05_geo_peers(w: &Inputs, out: &mut String) -> fmt::Result {
    let pop = w.census();
    // Count PeerIDs per country; multihomed peers counted in both
    // countries (as the paper does: "'Multihoming' peers were counted
    // repeatedly").
    let counts = rank_by_count(pop.peers.iter().flat_map(hosts).map(|h| h.country));
    let total: u64 = counts.iter().map(|(_, n)| n).sum();

    let paper: &[(&str, f64)] =
        &[("US", 28.5), ("CN", 24.2), ("FR", 8.3), ("TW", 7.2), ("KR", 6.7)];
    let table: Vec<Vec<String>> = counts
        .iter()
        .take(12)
        .map(|(c, n)| {
            let share = 100.0 * *n as f64 / total as f64;
            vec![
                c.code().to_string(),
                n.to_string(),
                format!("{share:.1}"),
                paper_share(paper, c.code()),
            ]
        })
        .collect();
    write_table(out, &["Country", "PeerIDs", "Share %", "Paper %"], &table)?;

    let multihomed = pop.peers.iter().filter(|p| p.secondary_host.is_some()).count();
    writeln!(
        out,
        "multihoming: {:.1} % of peers advertise addresses in a second country (paper: 8.8 %)",
        100.0 * multihomed as f64 / pop.peers.len() as f64
    )
}

/// Figure 6: geographical distribution of users requesting content via
/// the gateway.
///
/// Paper: US 50.4 %, CN 31.9 %, HK 6.6 %, CA 4.6 %, JP 1.7 % (the sampled
/// gateway is in the US, so its anycast catchment skews American).
fn fig06_geo_users(w: &Inputs, out: &mut String) -> fmt::Result {
    let workload = w.workload();
    // The paper counts *requests* per country (Figure 6 caption: "users
    // requesting content"), aggregated by unique IP+agent; report both.
    let user_counts = rank_by_count(workload.user_countries.iter());

    let paper: &[(&str, f64)] =
        &[("US", 50.4), ("CN", 31.9), ("HK", 6.6), ("CA", 4.6), ("JP", 1.7)];
    let total_req = workload.requests.len() as f64;
    let total_users = workload.user_countries.len() as f64;
    let table: Vec<Vec<String>> = rank_by_count(workload.requests.iter().map(|r| r.country))
        .iter()
        .take(10)
        .map(|(c, reqs)| {
            let users = user_counts.iter().find(|(u, _)| *u == c).map_or(0, |(_, n)| *n);
            vec![
                c.code().to_string(),
                format!("{:.1}", 100.0 * *reqs as f64 / total_req),
                format!("{:.1}", 100.0 * users as f64 / total_users),
                paper_share(paper, c.code()),
            ]
        })
        .collect();
    write_table(out, &["Country", "Requests %", "Users %", "Paper %"], &table)?;
    writeln!(
        out,
        "{} users, {} requests, {} unique CIDs in catalog (paper: 101 k users, 7.1 M requests, 274 k CIDs)",
        workload.user_countries.len(),
        workload.requests.len(),
        workload.objects.len()
    )
}

/// Figure 7: (a) reliable peers (>90 % uptime) by country in ‰;
/// (b) always-unreachable peers by country; (c) CDF of PeerIDs per IP;
/// (d) distribution of IPs across ASes by AS rank.
///
/// Paper: 1.4 % of peers reliable (largest country share 0.3 %); ~1/3
/// never accessible (CN 12.5 %); 92.3 % of IPs host one PeerID while the
/// top-10 IPs host ~66 k; top-10 ASes hold 64.9 % of IPs, top-100 90.6 %.
fn fig07_peer_analysis(w: &Inputs, out: &mut String) -> fmt::Result {
    let Monitor { pop, summaries, .. } = w.monitor();
    let total = summaries.len() as f64;

    // Top-8 countries among the peers `keep` selects, each as `per` of all
    // peers with `decimals` digits, and how many peers that is in total.
    let by_country = |keep: fn(&UptimeSummary) -> bool, per: f64, decimals: usize| {
        let ranked = rank_by_count(summaries.iter().filter(|s| keep(s)).map(|s| s.country));
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .take(8)
            .map(|(c, n)| vec![c.code().into(), format!("{:.decimals$}", per * *n as f64 / total)])
            .collect();
        (rows, ranked.iter().map(|(_, n)| n).sum::<u64>() as f64)
    };

    // --- 7a: reliable peers (>90 % reachable) per country, in permille ---
    writeln!(
        out,
        "--- Figure 7a: reliable peers (>90% uptime) by country [permille of all peers] ---"
    )?;
    let (table, reliable) = by_country(|s| s.reachable_fraction > 0.9, 1000.0, 2);
    write_table(out, &["Country", "Reliable ‰"], &table)?;
    writeln!(out, "total reliable: {:.2} % of peers (paper: 1.4 %)\n", 100.0 * reliable / total)?;

    writeln!(out, "--- Figure 7b: always-unreachable peers by country [% of all peers] ---")?;
    let (table, unreachable) = by_country(|s| s.never_reachable, 100.0, 1);
    write_table(out, &["Country", "Unreachable %"], &table)?;
    writeln!(
        out,
        "total never-reachable: {:.1} % of peers (paper: ~1/3 of peers; 45.5 % of IPs)\n",
        100.0 * unreachable / total
    )?;

    // --- 7c: CDF of PeerIDs per IP ---
    writeln!(out, "--- Figure 7c: PeerIDs per IP address ---")?;
    let counts = pop.peers_per_ip();
    let single = counts.iter().filter(|&&c| c == 1).count() as f64 / counts.len() as f64;
    let top10: usize = counts.iter().rev().take(10).sum();
    writeln!(out, "IPs observed: {}", counts.len())?;
    writeln!(out, "IPs hosting a single PeerID: {:.1} % (paper: 92.3 %)", 100.0 * single)?;
    writeln!(out, "PeerIDs on the top-10 IPs: {top10} (paper: ~66 k at full scale)")?;
    for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
        let idx = ((counts.len() as f64 * q).ceil() as usize).clamp(1, counts.len()) - 1;
        writeln!(out, "  p{:>5.1}: {} PeerIDs/IP", q * 100.0, counts[idx])?;
    }
    writeln!(out)?;

    // --- 7d: IPs per AS by AS rank ---
    writeln!(out, "--- Figure 7d: IPs per AS vs AS rank ---")?;
    let ases = rank_by_count(pop.peers.iter().map(|p| (p.host.asn, p.host.as_rank)));
    let total_ips: u64 = ases.iter().map(|(_, n)| n).sum();
    let top10_share: u64 = ases.iter().take(10).map(|(_, n)| n).sum();
    let top100_share: u64 = ases.iter().take(100).map(|(_, n)| n).sum();
    writeln!(out, "distinct ASes: {} (paper: 2715)", ases.len())?;
    writeln!(
        out,
        "top-10 ASes hold {:.1} % of IPs (paper: 64.9 %); top-100 hold {:.1} % (paper: 90.6 %)",
        100.0 * top10_share as f64 / total_ips as f64,
        100.0 * top100_share as f64 / total_ips as f64
    )?;
    let table: Vec<Vec<String>> = ases
        .iter()
        .take(10)
        .map(|((asn, rank), n)| {
            vec![
                format!("AS{asn}"),
                rank.to_string(),
                n.to_string(),
                format!("{:.1}", 100.0 * *n as f64 / total_ips as f64),
            ]
        })
        .collect();
    write_table(out, &["ASN", "Rank", "IPs", "Share %"], &table)
}

/// Table 2: autonomous systems covering >50 % of all found IP addresses.
///
/// Paper: AS4134 CHINANET 18.9 % (rank 76), AS4837 CHINA169 12.8 %
/// (rank 160), AS4760 HKT 9.6 % (rank 2976), AS26599 Telefonica Brasil
/// 6.9 % (rank 6797), AS3462 HINET 5.3 % (rank 340).
fn tab2_top_ases(w: &Inputs, out: &mut String) -> fmt::Result {
    // Count distinct IPs per AS (the paper counts IP addresses).
    let ips: HashSet<(u32, u32, Ipv4Addr)> =
        w.census().peers.iter().flat_map(hosts).map(|h| (h.asn, h.as_rank, h.ip)).collect();
    let total_ips = ips.len();
    let rows = rank_by_count(ips.into_iter().map(|(asn, rank, _)| (asn, rank)));

    // Emit ASes until cumulative share exceeds 50 % (the paper's cut).
    let mut cum = 0.0;
    let mut table = Vec::new();
    for ((asn, rank), n) in &rows {
        let share = 100.0 * *n as f64 / total_ips as f64;
        cum += share;
        let name =
            NAMED_ASES.iter().find(|a| a.asn == *asn).map(|a| a.name).unwrap_or("synthetic AS");
        let paper = match asn {
            4134 => "18.9 %",
            4837 => "12.8 %",
            4760 => "9.6 %",
            26599 => "6.9 %",
            3462 => "5.3 %",
            _ => "—",
        };
        table.push(vec![
            format!("{share:.1} %"),
            format!("AS{asn}"),
            rank.to_string(),
            name.to_string(),
            paper.to_string(),
        ]);
        if cum > 50.0 {
            break;
        }
    }
    write_table(out, &["Share", "ASN", "Rank", "AS Name", "Paper share"], &table)?;
    writeln!(
        out,
        "{} ASes cover {cum:.1} % of {total_ips} IPs (paper: 5 ASes cover >50 % of 464 k IPs)",
        table.len()
    )
}

/// Table 3: percentage of nodes hosted on cloud providers.
///
/// Paper: Contabo 0.44 %, Amazon AWS 0.39 %, Azure 0.33 %, Digital Ocean
/// 0.18 %, Hetzner 0.13 %, ...; Non-Cloud 97.71 %.
fn tab3_cloud_share(w: &Inputs, out: &mut String) -> fmt::Result {
    let pop = w.census();
    let per_provider = rank_by_count(pop.peers.iter().filter_map(|p| p.host.cloud));
    let cloud_total: u64 = per_provider.iter().map(|(_, n)| n).sum();
    let total = pop.peers.len() as f64;

    let table: Vec<Vec<String>> = per_provider
        .iter()
        .enumerate()
        .map(|(rank, (idx, n))| {
            let p = &CLOUD_PROVIDERS[*idx as usize];
            vec![
                (rank + 1).to_string(),
                p.name.to_string(),
                n.to_string(),
                format!("{:.2} %", 100.0 * *n as f64 / total),
                format!("{:.2} %", p.share_bps as f64 / 100.0),
            ]
        })
        .collect();
    write_table(out, &["Rank", "Provider", "IP Addresses", "Share", "Paper share"], &table)?;
    writeln!(
        out,
        "Non-Cloud: {:.2} % (paper: 97.71 %); cloud total: {:.2} % (paper: 2.29 %)",
        100.0 * (total - cloud_total as f64) / total,
        100.0 * cloud_total as f64 / total
    )
}

/// Figure 8: churn — CDFs of measured DHT-peer uptimes by region.
///
/// Paper: 87.6 % of sessions under 8 h, 2.5 % over 24 h; HK median
/// 24.2 min, Germany more than double that. The step shape of the CDF
/// comes from the monitor's probing quantization.
fn fig08_churn_cdf(w: &Inputs, out: &mut String) -> fmt::Result {
    // Only sessions starting in the first half of the window (the paper's
    // long-session bias handling, §5.3).
    let counted: Vec<_> = w.monitor().observations.iter().filter(|o| o.in_first_half).collect();
    writeln!(
        out,
        "{} session observations counted (paper: 467,134 at full scale)\n",
        counted.len()
    )?;
    let uptimes = |c: Country| -> Vec<f64> {
        counted
            .iter()
            .filter(|o| o.country == c)
            .map(|o| o.observed_uptime.as_secs_f64() / 60.0)
            .collect()
    };

    let regions =
        [Country::HK, Country::DE, Country::US, Country::CN, Country::FR, Country::TW, Country::KR];
    let mut rows = Vec::new();
    for c in regions {
        let ups = uptimes(c);
        if ups.is_empty() {
            continue;
        }
        rows.push(vec![
            c.code().to_string(),
            ups.len().to_string(),
            format!("{:.1}", percentile(&ups, 50.0)),
            format!("{:.1}", percentile(&ups, 90.0)),
            format!("{:.1}", 100.0 * fraction_below(&ups, 8.0 * 60.0)),
            format!("{:.1}", 100.0 * (1.0 - fraction_below(&ups, 24.0 * 60.0))),
        ]);
    }
    write_table(
        out,
        &["Region", "Sessions", "Median (min)", "p90 (min)", "< 8 h (%)", "> 24 h (%)"],
        &rows,
    )?;

    let all: Vec<f64> = counted.iter().map(|o| o.observed_uptime.as_secs_f64() / 60.0).collect();
    writeln!(
        out,
        "all regions: {:.1} % of sessions < 8 h (paper: 87.6 %), {:.1} % > 24 h (paper: 2.5 %)",
        100.0 * fraction_below(&all, 8.0 * 60.0),
        100.0 * (1.0 - fraction_below(&all, 24.0 * 60.0)),
    )?;
    writeln!(
        out,
        "HK median {:.1} min (paper: 24.2); DE median {:.1} min (paper: 'more than double' HK)",
        percentile(&uptimes(Country::HK), 50.0),
        percentile(&uptimes(Country::DE), 50.0),
    )
}

/// Figure 9: CDFs of content publication (a–c) and retrieval (d–f) delay
/// per AWS region.
///
/// (a) overall publication; (b) publication DHT walk; (c) provider-record
/// RPC batch; (d) overall retrieval; (e) both retrieval DHT walks;
/// (f) content fetch.
fn fig09_dht_performance(w: &Inputs, out: &mut String) -> fmt::Result {
    let results = w.dht();
    writeln!(
        out,
        "sample size: {} publications, {} retrievals (paper: 3,281 / 14,564; 4,324 samples per CDF)\n",
        results.publishes.len(),
        results.retrieves.len()
    )?;

    // The six sub-figures' samples from `vp` (every region when `None`).
    let phases = |vp| {
        let (pubs, rets) = (&results.publishes, &results.retrieves);
        [
            samples(pubs, vp, |r| r.total.as_secs_f64()),
            samples(pubs, vp, |r| r.dht_walk.as_secs_f64()),
            samples(pubs, vp, |r| r.rpc_batch.as_secs_f64()),
            samples(rets, vp, |r| r.total.as_secs_f64()),
            samples(rets, vp, |r| (r.provider_walk + r.peer_walk).as_secs_f64()),
            samples(rets, vp, |r| r.fetch.as_secs_f64()),
        ]
    };

    // --- per-region phase summaries ---
    writeln!(out, "--- per-region phase summaries (seconds) ---")?;
    for vp in VantagePoint::ALL {
        let [pub_total, pub_walk, pub_rpc, ret_total, ret_walks, ret_fetch] =
            phases(Some(vp)).map(|v| Summary::of(&v).p50);
        writeln!(
            out,
            "{:>14}: pub total p50={pub_total:6.2} walk p50={pub_walk:6.2} rpc p50={pub_rpc:6.2} | ret total p50={ret_total:5.2} walks p50={ret_walks:5.2} fetch p50={ret_fetch:5.2}",
            vp.label(),
        )?;
    }

    // --- combined CDFs, one per sub-figure ---
    let figures = [
        ("fig09a_pub_total", "Fig 9a — overall publication (s)"),
        ("fig09b_pub_walk", "Fig 9b — publication DHT walk (s)"),
        ("fig09c_pub_rpc", "Fig 9c — provider-record RPC batch (s)"),
        ("fig09d_ret_total", "Fig 9d — overall retrieval (s)"),
        ("fig09e_ret_walks", "Fig 9e — retrieval DHT walks (s)"),
        ("fig09f_ret_fetch", "Fig 9f — content fetch (s)"),
    ];
    let all = phases(None);
    for ((csv_name, _), data) in figures.iter().zip(&all) {
        write_series_csv(&w.run, csv_name, "seconds", "cdf", &cdf_points(data, 100));
    }
    writeln!(out)?;
    for ((_, name), data) in figures.iter().zip(&all) {
        writeln!(out, "{}", ascii_series(name, &cdf_points(data, 20), 48))?;
    }

    // --- headline comparisons ---
    let walk_share: f64 = results
        .publishes
        .iter()
        .map(|(_, r)| r.dht_walk.as_secs_f64() / r.total.as_secs_f64().max(1e-9))
        .sum::<f64>()
        / results.publishes.len().max(1) as f64;
    writeln!(
        out,
        "publication: DHT walk covers {:.1} % of the total on average (paper: 87.9 %)",
        100.0 * walk_share
    )?;
    let rpc = &all[2];
    let rpc_share = |keep: fn(f64) -> bool| {
        100.0 * (rpc.iter().filter(|&&x| keep(x)).count() as f64 / rpc.len().max(1) as f64)
    };
    writeln!(
        out,
        "RPC batches: {:.1} % under 2 s (paper 43.3 %), {:.1} % over 5 s (paper 53.7 %), {:.1} % over 20 s (paper 11.3 %)",
        rpc_share(|x| x < 2.0),
        rpc_share(|x| x > 5.0),
        rpc_share(|x| x > 20.0)
    )?;
    writeln!(
        out,
        "retrieval success rate: {:.1} % (paper: 100 %)",
        100.0 * results.retrieve_success_rate()
    )?;
    let fetch = &all[5];
    let fetch_under =
        fetch.iter().filter(|&&x| x < 1.26).count() as f64 / fetch.len().max(1) as f64;
    writeln!(out, "content exchange under 1.26 s: {:.1} % (paper: >99 %)", 100.0 * fetch_under)
}

/// Table 4: latency percentiles of the overall DHT publication and
/// retrieval operations from different AWS regions.
///
/// Paper values (seconds):
/// ```text
///                  publication            retrieval
/// region           p50     p90     p95    p50   p90   p95
/// af_south_1       28.93   107.14  127.22 3.75  4.88  5.31
/// ap_southeast_2   36.26   117.74  142.79 3.76  4.85  5.15
/// eu_central_1     27.70   106.91  133.27 1.81  2.28  2.50
/// me_south_1       29.32   105.45  130.48 2.59  3.24  3.48
/// sa_east_1        42.32   115.45  148.04 3.60  4.56  4.93
/// us_west_1        36.02   121.13  147.59 2.48  3.17  3.42
/// ```
fn tab4_latency_percentiles(w: &Inputs, out: &mut String) -> fmt::Result {
    const PAPER: [(&str, [f64; 6]); 6] = [
        ("af_south_1", [28.93, 107.14, 127.22, 3.75, 4.88, 5.31]),
        ("ap_southeast_2", [36.26, 117.74, 142.79, 3.76, 4.85, 5.15]),
        ("eu_central_1", [27.70, 106.91, 133.27, 1.81, 2.28, 2.50]),
        ("me_south_1", [29.32, 105.45, 130.48, 2.59, 3.24, 3.48]),
        ("sa_east_1", [42.32, 115.45, 148.04, 3.60, 4.56, 4.93]),
        ("us_west_1", [36.02, 121.13, 147.59, 2.48, 3.17, 3.42]),
    ];
    let results = w.dht();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for vp in VantagePoint::ALL {
        let pubs = results.publish_totals(vp);
        let rets = results.retrieve_totals(vp);
        let measured = [50.0, 90.0, 95.0]
            .map(|p| percentile(&pubs, p))
            .into_iter()
            .chain([50.0, 90.0, 95.0].map(|p| percentile(&rets, p)));
        let paper = PAPER.iter().find(|(l, _)| *l == vp.label()).unwrap().1;
        let mut row = vec![vp.label().to_string()];
        let mut csv_row = row.clone();
        for (m, p) in measured.zip(paper) {
            row.push(format!("{m:.2} ({p:.2})"));
            csv_row.push(format!("{m}"));
        }
        rows.push(row);
        csv_rows.push(csv_row);
    }
    write_csv(
        &w.run,
        "tab4_latency_percentiles",
        &["region", "pub_p50", "pub_p90", "pub_p95", "ret_p50", "ret_p90", "ret_p95"],
        &csv_rows,
    );
    writeln!(out, "values: measured (paper)\n")?;
    write_table(
        out,
        &["AWS Region", "Pub p50", "Pub p90", "Pub p95", "Ret p50", "Ret p90", "Ret p95"],
        &rows,
    )?;

    let all_pub: Vec<f64> = results.publishes.iter().map(|(_, r)| r.total.as_secs_f64()).collect();
    let all_ret: Vec<f64> = results.retrieves.iter().map(|(_, r)| r.total.as_secs_f64()).collect();
    writeln!(
        out,
        "all regions: publication p50/p90/p95 = {:.1}/{:.1}/{:.1} s (paper 33.8/112.3/138.1); \
retrieval = {:.2}/{:.2}/{:.2} s (paper 2.90/4.34/4.74)",
        percentile(&all_pub, 50.0),
        percentile(&all_pub, 90.0),
        percentile(&all_pub, 95.0),
        percentile(&all_ret, 50.0),
        percentile(&all_ret, 90.0),
        percentile(&all_ret, 95.0),
    )
}

/// Figure 10: CDFs of the retrieval stretch per vantage point, (a) with
/// and (b) without the initial Bitswap timeout.
///
/// Stretch = IPFS retrieval time / estimated HTTPS time (equations 1–2).
/// Paper: median stretch ≈ 4.3; without the 1 s Bitswap delay,
/// eu_central_1 sees stretch < 2 for 80 % of retrievals.
fn fig10_retrieval_stretch(w: &Inputs, out: &mut String) -> fmt::Result {
    let results = w.dht();
    // Finite stretches of the successful retrievals of `vp` (every region
    // when `None`).
    let stretches = |vp: Option<VantagePoint>, stretch: fn(&RetrieveReport) -> f64| -> Vec<f64> {
        results
            .retrieves
            .iter()
            .filter(|(v, r)| vp.is_none_or(|vp| *v == vp) && r.success)
            .map(|(_, r)| stretch(r))
            .filter(|s| s.is_finite())
            .collect()
    };

    let mut rows = Vec::new();
    for vp in VantagePoint::ALL {
        let with = stretches(Some(vp), RetrieveReport::stretch);
        let without = stretches(Some(vp), RetrieveReport::stretch_without_bitswap);
        rows.push(vec![
            vp.label().to_string(),
            format!("{:.1}", percentile(&with, 50.0)),
            format!("{:.1}", percentile(&with, 80.0)),
            format!("{:.1}", percentile(&without, 50.0)),
            format!("{:.1}", percentile(&without, 80.0)),
            format!("{:.0} %", 100.0 * fraction_below(&without, 2.0)),
        ]);
    }
    write_table(
        out,
        &[
            "AWS Region",
            "stretch p50 (a)",
            "stretch p80 (a)",
            "no-bitswap p50 (b)",
            "no-bitswap p80 (b)",
            "no-bitswap <2",
        ],
        &rows,
    )?;

    let all = stretches(None, RetrieveReport::stretch);
    writeln!(out, "overall median stretch: {:.1} (paper: 4.3)", percentile(&all, 50.0))?;
    let eu_wo = stretches(Some(VantagePoint::EuCentral1), RetrieveReport::stretch_without_bitswap);
    writeln!(
        out,
        "eu_central_1 without Bitswap timeout: {:.0} % of retrievals have stretch < 2 (paper: 80 %)",
        100.0 * fraction_below(&eu_wo, 2.0)
    )
}

/// Figure 11: (a) distribution of upstream response latency and of bytes
/// downloaded per gateway request; (b) proportion of cached vs non-cached
/// traffic per 30-minute bin.
///
/// Paper: median object 664.59 kB, 79.1 % > 100 kB; 46 % of fetches have
/// zero latency (nginx hits), node-store hits < 24 ms, 76 % of requests
/// served < 250 ms; latency/size Pearson r = 0.13.
fn fig11_gateway_analysis(w: &Inputs, out: &mut String) -> fmt::Result {
    let log = &w.gateway_day().log;

    // --- Figure 11a: latency distribution ---
    let latencies: Vec<f64> = log.iter().map(|e| e.latency.as_secs_f64()).collect();
    let zero = latencies.iter().filter(|&&l| l == 0.0).count() as f64 / latencies.len() as f64;
    writeln!(out, "--- Fig 11a: upstream response latency ---")?;
    writeln!(out, "zero-latency (nginx hits): {:.1} % (paper: 46 %)", 100.0 * zero)?;
    writeln!(
        out,
        "served < 250 ms: {:.1} % (paper: 76 %)",
        100.0 * fraction_below(&latencies, 0.25)
    )?;
    for (v, q) in cdf_points(&latencies, 10) {
        writeln!(out, "  p{:>4.0}: {:>8.3} s", q * 100.0, v)?;
    }

    // --- Figure 11a: size distribution ---
    let sizes: Vec<f64> = log.iter().map(|e| e.bytes as f64).collect();
    writeln!(out, "\n--- Fig 11a: bytes downloaded per request ---")?;
    writeln!(
        out,
        "median {:.1} kB (paper: 664.59 kB); >100 kB: {:.1} % (paper: 79.1 %)",
        percentile(&sizes, 50.0) / 1e3,
        100.0 * (1.0 - fraction_below(&sizes, 100_000.0))
    )?;
    let total_tb = sizes.iter().sum::<f64>() / 1e12;
    writeln!(out, "total downloaded: {total_tb:.3} TB (paper: 6.57 TB at full scale)")?;

    // Latency/size correlation (paper: 0.13 — size-agnostic delays).
    writeln!(out, "\nPearson(latency, size) = {:.3} (paper: 0.13)", pearson(&latencies, &sizes))?;

    // --- Figure 11b: cached vs non-cached traffic per 30-min bin ---
    writeln!(out, "\n--- Fig 11b: cached vs non-cached requests per 30-min bin ---")?;
    let day = SimDuration::from_hours(24);
    let bin = SimDuration::from_mins(30);
    let hits = RequestBins::build(log, day, bin, cached);
    let misses = RequestBins::build(log, day, bin, |e| !cached(e));
    let mut min_rate: f64 = 1.0;
    let mut max_rate: f64 = 0.0;
    for i in 0..hits.counts.len() {
        let c = hits.counts[i] as f64;
        let n = misses.counts[i] as f64;
        if c + n > 0.0 {
            let rate = c / (c + n);
            min_rate = min_rate.min(rate);
            max_rate = max_rate.max(rate);
        }
        if i % 4 == 0 {
            writeln!(
                out,
                "  {:>5.1} h: cached {:>6} non-cached {:>5} ({:.0} % cached)",
                i as f64 * 0.5,
                hits.counts[i],
                misses.counts[i],
                100.0 * c / (c + n).max(1.0)
            )?;
        }
    }
    writeln!(
        out,
        "cache-served share ranges {:.1} %–{:.1} % across bins \
(paper: nginx tier alone 32.3 %–65.6 %; combined tiers exceed 80 %)",
        100.0 * min_rate,
        100.0 * max_rate
    )
}

/// Table 5: traffic and latencies at the gateway per serving tier.
///
/// Paper:
/// ```text
///                  nginx cache  IPFS node store  Non Cached
/// Latency (median)  0 s          8 ms             4.04 s
/// Traffic served    46.4 %       38.0 %           15.6 %
/// Requests served   46.0 %       40.2 %           13.8 %
/// ```
fn tab5_gateway_cache_tiers(w: &Inputs, out: &mut String) -> fmt::Result {
    let GatewayDay { fleet, log } = w.gateway_day();
    let total_requests = log.len() as f64;
    let total_bytes: u64 = log.iter().map(|e| e.bytes).sum();
    let paper = [
        (ServedBy::NginxCache, "0 s", "46.4 %", "46.0 %"),
        (ServedBy::NodeStore, "8 ms", "38.0 %", "40.2 %"),
        (ServedBy::Network, "4.04 s", "15.6 %", "13.8 %"),
    ];
    let mut rows = Vec::new();
    for (tier, p_lat, p_traffic, p_req) in paper {
        let entries: Vec<_> = log.iter().filter(|e| e.served_by == tier).collect();
        let lats: Vec<f64> = entries.iter().map(|e| e.latency.as_secs_f64()).collect();
        let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        rows.push(vec![
            tier.label().to_string(),
            format!("{:.3} s", percentile(&lats, 50.0)),
            format!("{:.1} %", 100.0 * bytes as f64 / total_bytes as f64),
            format!("{:.1} %", 100.0 * entries.len() as f64 / total_requests),
            format!("{p_lat} / {p_traffic} / {p_req}"),
        ]);
    }
    write_table(
        out,
        &[
            "Tier",
            "Latency (median)",
            "Traffic served",
            "Requests served",
            "Paper (lat/traffic/req)",
        ],
        &rows,
    )?;
    let combined = log.iter().filter(|e| cached(e)).count() as f64 / total_requests;
    writeln!(
        out,
        "combined cache tiers serve {:.1} % of requests (paper: >80 %); nginx lifetime hit rate {:.1} %",
        100.0 * combined,
        100.0 * fleet.gateways[0].nginx.hit_rate()
    )
}

/// Country mix of the semi-popular parent sites (paper: US 47.3 %,
/// IS 20.0 %, CA 12.7 %, rest long tail). Deterministic per site index.
fn site_country(site: u16) -> &'static str {
    match site % 20 {
        0..=8 => "US",   // 9/20 = 45 %
        9..=12 => "IS",  // 4/20 = 20 %
        13..=15 => "CA", // 3/20 = 15 %
        16 => "DE",
        17 => "GB",
        18 => "NL",
        _ => "other",
    }
}

/// Gateway referrals (§6.3, "Gateway Referrals").
///
/// Paper: "the majority of this traffic (51.8 %) is referred by third
/// party websites ... 70.6 % of this referred traffic belongs to just 72
/// semi-popular websites (rank 10k–50k based on Tranco list). The majority
/// of these parent sites are hosted in the US (47.3 %), Iceland (20.0 %)
/// and Canada (12.7 %)." — the NFT/video-streaming integration story.
fn tab_gateway_referrals(w: &Inputs, out: &mut String) -> fmt::Result {
    let requests = &w.workload().requests;
    let n = requests.len() as f64;
    let direct = requests.iter().filter(|r| r.referrer == Referrer::Direct).count() as f64;
    let semi: Vec<u16> = requests
        .iter()
        .filter_map(|r| match r.referrer {
            Referrer::SemiPopularSite(s) => Some(s),
            _ => None,
        })
        .collect();
    let other = requests.iter().filter(|r| r.referrer == Referrer::OtherSite).count() as f64;
    let referred = semi.len() as f64 + other;

    writeln!(
        out,
        "referred traffic: {:.1} % (paper: 51.8 %); direct: {:.1} %",
        100.0 * referred / n,
        100.0 * direct / n
    )?;
    writeln!(
        out,
        "semi-popular sites' share of referred traffic: {:.1} % across {} sites (paper: 70.6 % across 72)",
        100.0 * semi.len() as f64 / referred,
        semi.iter().collect::<HashSet<_>>().len()
    )?;

    // Country mix of the parent sites, traffic-weighted.
    let by_country = rank_by_count(semi.iter().map(|s| site_country(*s)));
    let total: u64 = by_country.iter().map(|(_, n)| n).sum();
    let paper: &[(&str, f64)] = &[("US", 47.3), ("IS", 20.0), ("CA", 12.7)];
    let table: Vec<Vec<String>> = by_country
        .iter()
        .map(|(c, cnt)| {
            let p = paper
                .iter()
                .find(|(code, _)| code == c)
                .map(|(_, v)| format!("{v:.1} %"))
                .unwrap_or_else(|| "—".into());
            vec![c.to_string(), format!("{:.1} %", 100.0 * *cnt as f64 / total as f64), p]
        })
        .collect();
    writeln!(out)?;
    write_table(out, &["Parent-site country", "Share of semi-popular referrals", "Paper"], &table)?;
    writeln!(
        out,
        "(manual inspection in the paper found these to be video-streaming and NFT sites)"
    )
}

/// Ablation: the replication factor k.
///
/// §3.1 picks k = 20 as "a compromise between excessive replication
/// overhead and risking record deletion because of peer churn"; §5.3's
/// churn data ("87.6 % of sessions under 8 hours") explains why. This
/// ablation publishes provider records with k ∈ {2, 5, 10, 20, 30}, lets
/// the network churn for several hours, and measures whether the records
/// can still be found.
fn ablation_replication(w: &Inputs, out: &mut String) -> fmt::Result {
    let (cfg, seed) = (w.cfg(), w.run.seed);
    let objects = 30usize;
    let wait_hours = [4u64, 8, 16];

    // Each k is an independent simulation — run them as parallel cells
    // (IPFS_REPRO_JOBS); results come back in k order regardless.
    let ks = [2usize, 5, 10, 20, 30];
    let rows: Vec<Vec<String>> = run_cells_with_jobs(w.run.jobs, ks.len(), |cell| {
        let k = ks[cell];
        let pop = population(cfg.population.min(2_500), 30, seed);
        let net_cfg = NetworkConfig {
            node: NodeConfig { replication: k, ..Default::default() },
            ..Default::default()
        };
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
            net_cfg,
            seed,
        );
        let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!() };

        // Publish `objects` fresh objects at t=0.
        let mut cids = Vec::new();
        for i in 0..objects {
            let cid = net.import_content(provider, &object(i, 64 * 1024));
            net.publish(provider, cid.clone());
            net.run_until_quiet();
            cids.push(cid);
        }
        let publish_rpcs: f64 =
            net.publish_reports.iter().map(|r| r.records_stored as f64).sum::<f64>()
                / net.publish_reports.len() as f64;

        let mut row = vec![k.to_string(), format!("{publish_rpcs:.1}")];
        for &h in &wait_hours {
            // Advance churn to the checkpoint (no republish — this is the
            // survival question the 12 h republish interval answers).
            let target = SimTime::ZERO + SimDuration::from_hours(h);
            if net.now() < target {
                net.run_until(target);
            }
            let mut found = 0;
            for cid in &cids {
                let before = net.retrieve_reports.len();
                net.retrieve(requester, cid.clone());
                net.run_until_quiet();
                if net.retrieve_reports[before..].iter().any(|r| r.success) {
                    found += 1;
                }
                net.disconnect_all(requester);
                let p = net.peer_id(provider).clone();
                net.forget_address(requester, &p);
                // Clear fetched blocks so later probes are honest.
                let node = net.node_mut(requester);
                let cs: Vec<_> = node.store.cids().cloned().collect();
                for c in cs {
                    merkledag::BlockStore::delete(&mut node.store, &c);
                }
            }
            row.push(format!("{:.0} %", 100.0 * found as f64 / objects as f64));
        }
        row
    });
    write_table(out, &["k", "records stored", "found @4h", "found @8h", "found @16h"], &rows)?;
    writeln!(
        out,
        "(expected shape: small k loses records as holders churn offline; k=20 holds ~100 % \
well past the 12 h republish interval, at 10x the k=2 store cost — §3.1's compromise)"
    )
}

/// Ablation: serial Bitswap-then-DHT vs parallel Bitswap+DHT discovery.
///
/// §6.2/§6.4: "running DHT lookups in parallel to Bitswap could be
/// superior, by trading additional network requests for faster retrieval
/// times" — the 1 s opportunistic timeout is a fixed floor on every
/// DHT-resolved retrieval.
fn ablation_parallel_lookup(w: &Inputs, out: &mut String) -> fmt::Result {
    let serial = w.dht_ablation_base();
    let parallel =
        w.dht_ablation(NetworkConfig { parallel_dht_and_bitswap: true, ..Default::default() });
    writeln!(out, "mode        n      mean    p50     p90     p95    success")?;
    let mut p50s = Vec::new();
    for (mode, r) in [("serial", serial), ("parallel", &parallel)] {
        let s = Summary::of(&samples(&r.retrieves, None, |r| r.total.as_secs_f64()));
        writeln!(
            out,
            "{mode:<10} {:>5}  {:>6.2}s {:>6.2}s {:>6.2}s {:>6.2}s  {:>5.1} %",
            s.n,
            s.mean,
            s.p50,
            s.p90,
            s.p95,
            100.0 * r.retrieve_success_rate()
        )?;
        p50s.push(s.p50);
    }
    let [serial_p50, parallel_p50] = p50s[..] else { unreachable!("two modes") };
    writeln!(
        out,
        "\nparallel lookup saves {:.2} s at the median ({:.0} % of the serial time) — \
the Bitswap timeout floor the paper identifies (up to 1 s, §6.2 footnote 4)",
        serial_p50 - parallel_p50,
        100.0 * (serial_p50 - parallel_p50) / serial_p50
    )
}

/// Ablation: the DHT client/server split.
///
/// §6.4: "the distinction between server and client peers (after the v0.5
/// release of IPFS) has given a significant boost to the performance of
/// IPFS, as peers avoid costly operations of attempting to punch through
/// NATs, failing and timing out eventually."
///
/// With the split disabled, NAT'ed clients sit in routing tables like any
/// other peer; every walk wastes transport timeouts dialing them.
fn ablation_client_server(w: &Inputs, out: &mut String) -> fmt::Result {
    let split_on = w.dht_ablation_base();
    let split_off =
        w.dht_ablation(NetworkConfig { clients_in_routing_tables: true, ..Default::default() });
    writeln!(out, "mode               pub p50    pub p95    ret p50    ret p95    ret success")?;
    let mut p50s = Vec::new();
    for (mode, r) in [("split ON (v0.5+)", split_on), ("split OFF (old)", &split_off)] {
        let p = Summary::of(&samples(&r.publishes, None, |p| p.total.as_secs_f64()));
        let t = Summary::of(&samples(&r.retrieves, None, |t| t.total.as_secs_f64()));
        writeln!(
            out,
            "{mode:<18} {:>7.1} s  {:>7.1} s  {:>7.2} s  {:>7.2} s  {:>6.1} %",
            p.p50,
            p.p95,
            t.p50,
            t.p95,
            100.0 * r.retrieve_success_rate()
        )?;
        p50s.push((p.p50, t.p50));
    }
    let [(on_pub, on_ret), (off_pub, off_ret)] = p50s[..] else { unreachable!("two modes") };
    writeln!(
        out,
        "\ndisabling the split inflates the median publication by {:.1}x and retrieval by {:.1}x \
— the \"significant boost\" of §6.4 in reverse",
        off_pub / on_pub,
        off_ret / on_ret,
    )
}

/// Ablation: gateway cache capacity sweep.
///
/// §6.3/§6.4 argue that "augmenting IPFS with a gateway model does offer a
/// meaningful strategy for reducing delays by aggregating demand via the
/// cache" (76 % of requests under 250 ms). This sweep varies the nginx
/// tier's capacity — including effectively disabling it — and reports the
/// latency users would see.
fn ablation_gateway_cache(w: &Inputs, out: &mut String) -> fmt::Result {
    let (cfg, seed) = (w.cfg(), w.run.seed);
    let base = GatewayConfig::default().nginx_capacity_bytes;
    let pop = population(cfg.population.min(1_500), 26, seed);
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: cfg.gateway_catalog.min(1_500),
        users: cfg.gateway_users.min(600),
        requests: cfg.gateway_requests.min(9_000),
        seed,
        // Pin little, so the sweep isolates the nginx tier's effect
        // rather than the node store's.
        pinned_fraction: 0.15,
        ..Default::default()
    });

    let mut rows = Vec::new();
    for (label, capacity) in
        [("off (1 kB)", 1_024u64), ("x0.25", base / 4), ("x1 (default)", base), ("x4", base * 4)]
    {
        let config = GatewayConfig { nginx_capacity_bytes: capacity, ..Default::default() };
        let log = serve_day(&pop, &workload, config, 40, seed).log;
        let lats: Vec<f64> = log.iter().map(|e| e.latency.as_secs_f64()).collect();
        let share = |tier: ServedBy| {
            log.iter().filter(|e| e.served_by == tier).count() as f64 / log.len() as f64
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.1} %", 100.0 * share(ServedBy::NginxCache)),
            format!("{:.1} %", 100.0 * share(ServedBy::Network)),
            format!("{:.0} %", 100.0 * fraction_below(&lats, 0.25)),
            format!("{:.3} s", percentile(&lats, 50.0)),
            format!("{:.2} s", percentile(&lats, 95.0)),
        ]);
    }
    write_table(
        out,
        &["nginx capacity", "nginx hits", "network fetches", "<250 ms", "lat p50", "lat p95"],
        &rows,
    )?;
    writeln!(
        out,
        "(paper: with caching, 76 % of requests are served under 250 ms; \
without aggregation every miss pays the multi-second P2P pipeline)"
    )
}

/// Ablation: NAT hole punching (DCUtR) — the future-work feature of §3.1.
///
/// "Peers behind NATs cannot host content themselves. Thus, third party
/// hosts, commonly called pinning services, are used ... Although a NAT
/// hole-punching solution is currently being developed, it is still
/// under-test." This ablation measures what that solution buys: the
/// fraction of content hosted by NAT'ed peers that becomes retrievable,
/// and the latency cost of the relay-assisted dial.
fn ablation_nat_hosting(w: &Inputs, out: &mut String) -> fmt::Result {
    let seed = w.run.seed;
    let objects = 25usize;
    let pop = population(w.cfg().population.min(1_500), 10, seed);
    // Long-lived NAT'ed peers each publish one object.
    let nat_hosts: Vec<usize> = pop
        .peers
        .iter()
        .filter(|p| {
            p.nat
                && p.schedule.online_at(SimTime::ZERO)
                && p.schedule.online_at(SimTime::ZERO + SimDuration::from_hours(2))
        })
        .map(|p| p.index)
        .take(objects)
        .collect();

    let mut rows = Vec::new();
    for (label, dcutr, rate) in [
        ("no hole punching", false, 0.0),
        ("DCUtR @ 70 %", true, 0.7),
        ("DCUtR @ 100 %", true, 1.0),
    ] {
        let net_cfg = NetworkConfig {
            enable_dcutr: dcutr,
            dcutr_success_rate: rate,
            provider_records_carry_addrs: true, // relay addrs ride the record
            ..Default::default()
        };
        let mut net =
            IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], net_cfg, seed);
        let requester = net.vantage_ids(1)[0];

        let mut cids = Vec::new();
        for (i, &host) in nat_hosts.iter().enumerate() {
            let cid = net.import_content(host, &object(i, 32 * 1024));
            net.publish(host, cid.clone());
            net.run_until_quiet();
            net.disconnect_all(host);
            cids.push(cid);
        }

        let mut ok = 0;
        let mut latencies = Vec::new();
        for cid in &cids {
            let before = net.retrieve_reports.len();
            net.retrieve(requester, cid.clone());
            net.run_until_quiet();
            let r = net.retrieve_reports[before..].last().unwrap();
            if r.success {
                ok += 1;
                latencies.push(r.total.as_secs_f64());
            }
            net.disconnect_all(requester);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.0} %", 100.0 * ok as f64 / cids.len() as f64),
            if latencies.is_empty() {
                "—".into()
            } else {
                format!("{:.2} s", percentile(&latencies, 50.0))
            },
        ]);
    }
    write_table(out, &["mode", "NAT-hosted content retrievable", "retrieval p50"], &rows)?;
    writeln!(
        out,
        "(the paper's workaround is pinning services; DCUtR instead makes the 45.5 % of \
NAT'ed peers first-class hosts, at the cost of relay-assisted dial latency)"
    )
}

/// Ablation: Hydra boosters (paper §8 future work).
///
/// "We plan to expand our studies to components such as the Hydra
/// boosters" — many-headed, always-online DHT nodes operated from
/// datacenters to stabilize routing. This ablation adds 0/50/200 hydra
/// heads to a churny network and measures what they buy: fewer stale
/// dials during walks, faster publications and retrievals.
fn ablation_hydra(w: &Inputs, out: &mut String) -> fmt::Result {
    let (cfg, seed) = (w.cfg(), w.run.seed);
    let iterations = 25usize;

    // Independent cells (one per head count), parallel under
    // IPFS_REPRO_JOBS; rows print in head order after all cells finish.
    let head_counts = [0usize, 50, 200];
    let rows: Vec<String> = run_cells_with_jobs(w.run.jobs, head_counts.len(), |cell| {
        let heads = head_counts[cell];
        let pop = population(cfg.population.min(1_500), 12, seed);
        let net_cfg = NetworkConfig { hydra_heads: heads, ..Default::default() };
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
            net_cfg,
            seed,
        );
        let [eu, us] = net.vantage_ids(2)[..] else { unreachable!() };

        // Age the network so churn has degraded the tables — the regime
        // hydras are meant to stabilize.
        net.run_until(SimTime::ZERO + SimDuration::from_hours(4));

        let mut pub_totals = Vec::new();
        let mut ret_totals = Vec::new();
        let mut ok = 0usize;
        for i in 0..iterations {
            let cid = net.import_content(us, &object(i, 128 * 1024));
            let before_pub = net.publish_reports.len();
            net.publish(us, cid.clone());
            net.run_until_quiet();
            pub_totals
                .extend(net.publish_reports[before_pub..].iter().map(|r| r.total.as_secs_f64()));
            net.disconnect_all(us);

            let before_ret = net.retrieve_reports.len();
            net.retrieve(eu, cid);
            net.run_until_quiet();
            for r in &net.retrieve_reports[before_ret..] {
                ret_totals.push(r.total.as_secs_f64());
                if r.success {
                    ok += 1;
                }
            }
            net.disconnect_all(eu);
            let us_peer = net.peer_id(us).clone();
            net.forget_address(eu, &us_peer);
        }
        let p = Summary::of(&pub_totals);
        let r = Summary::of(&ret_totals);
        format!(
            "{heads:>5}   {:>6.1} s  {:>6.1} s  {:>6.2} s  {:>6.2} s   {:>5.1} %",
            p.p50,
            p.p95,
            r.p50,
            r.p95,
            100.0 * ok as f64 / iterations as f64
        )
    });
    writeln!(out, "heads   pub p50   pub p95   ret p50   ret p95   ret success")?;
    for row in rows {
        writeln!(out, "{row}")?;
    }
    writeln!(
        out,
        "\n(hydra heads never churn: walks hit fewer stale entries, so fewer 5 s dial \
timeouts — the stabilization §8 expects from the boosters)"
    )
}

/// Slowest ops kept in a harness's stitched-trace exemplar dump.
const TRACE_EXEMPLARS: usize = 8;

/// Chaos: how the stack recovers from scripted correlated failures —
/// regional partition, crash wave, dial-failure spike, degraded links, a
/// provider crashing mid-fetch, a gateway-region dip and a reprovider
/// crash ([`crate::chaos`]). Not in the paper, which measures steady
/// state. Exports `BENCH_chaos.json` and `chaos_gateway_timeseries.csv`.
fn chaos(w: &Inputs, out: &mut String) -> fmt::Result {
    use crate::chaos::{bench_doc, render_report, run_all, ChaosConfig};
    let run = &w.run;
    let outputs = run_all(&ChaosConfig::at_scale(run.scale), run.seed, run.jobs);
    if let Some(ts) = outputs.iter().find_map(|c| c.timeseries.as_ref()) {
        write_timeseries_csv(run, "chaos_gateway_timeseries", ts);
    }
    bench_doc(&outputs, run).write();
    out.write_str(&render_report(&outputs))
}

/// The gateway fleet the paper's one-gateway logs (Table 5, Fig. 11) came
/// from: routing, admission, coalescing, a flash crowd and a regional
/// outage ([`crate::gateway_fleet`]). Exports `BENCH_gateway_fleet.json`
/// with each cell's sustained requests/s.
fn gateway_fleet(w: &Inputs, out: &mut String) -> fmt::Result {
    use crate::gateway_fleet::{bench_doc, render_report, run_all, FleetBenchConfig};
    let run = &w.run;
    let outputs = run_all(&FleetBenchConfig::at_scale(run.scale), run.seed, false, run.jobs);
    bench_doc(&outputs, run).write();
    out.write_str(&render_report(&outputs))
}

/// Multi-provider Bitswap sessions, beyond §6.2's single-provider
/// retrievals: goodput against swarm size and the duplicate-factor
/// ablation ([`crate::swarm`]). Exports `BENCH_swarm.json` and, since
/// collecting traces never changes the report, `swarm_traces.json`.
fn swarm(w: &Inputs, out: &mut String) -> fmt::Result {
    use crate::swarm::{
        bench_doc, render_report, render_trace_out, run_all_traced, SwarmBenchConfig,
    };
    let run = &w.run;
    let cfg = SwarmBenchConfig::at_scale(run.scale);
    let outputs = run_all_traced(&cfg, run.seed, false, run.jobs, run.csv_dir.is_some());
    let traces = render_trace_out(&outputs, run.seed, TRACE_EXEMPLARS);
    write_file(run.csv_dir.as_deref(), "swarm_traces.json", &traces);
    bench_doc(&outputs, run).write();
    out.write_str(&render_report(&outputs))
}

/// The §6.2 / Fig. 9 decomposition re-derived from span trees: per-phase
/// p50/p90/p99 per publisher region, clean and faulted
/// ([`crate::latency`]). Exports `BENCH_latency.json` and, since
/// collecting traces never changes the table,
/// `tab_latency_attribution_traces.json`.
fn tab_latency_attribution(w: &Inputs, out: &mut String) -> fmt::Result {
    use crate::latency::{
        bench_doc, render_table, render_trace_out, run_all_traced, LatencyConfig,
    };
    let run = &w.run;
    let cfg = LatencyConfig::at_scale(run.scale);
    let results = run_all_traced(&cfg, run.seed, run.jobs, run.csv_dir.is_some());
    let traces = render_trace_out(&results, run.seed, TRACE_EXEMPLARS);
    write_file(run.csv_dir.as_deref(), "tab_latency_attribution_traces.json", &traces);
    bench_doc(&results, run).write();
    out.write_str(&render_table(&results))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn artifact_names_are_unique_and_each_has_a_committed_result() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut names = HashSet::new();
        for a in ARTIFACTS {
            assert!(names.insert(a.name), "duplicate artifact name {}", a.name);
            let file = results.join(format!("{}.txt", a.name));
            assert!(file.is_file(), "{} has no {}", a.name, file.display());
        }
    }

    /// The converse: a recording no artifact regenerates fails here.
    /// `lifecycle.txt` is the one text a harness binary records.
    #[test]
    fn every_committed_text_result_is_an_artifact() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for entry in std::fs::read_dir(&results).expect("results/ exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "txt") {
                continue;
            }
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 file name");
            assert!(
                stem == "lifecycle" || ARTIFACTS.iter().any(|a| a.name == stem),
                "{} has no paper artifact to regenerate it",
                path.display()
            );
        }
    }

    #[test]
    fn only_selects_in_index_order_and_rejects_unknown_names() {
        let all = args(&[]).unwrap();
        assert_eq!(all.selected.len(), ARTIFACTS.len());
        assert_eq!(all.out, None);

        let picked =
            args(&["--out", "dir", "--only", "tab5_gateway_cache_tiers,fig05_geo_peers"]).unwrap();
        let names: Vec<&str> = picked.selected.iter().map(|a| a.name).collect();
        assert_eq!(names, ["fig05_geo_peers", "tab5_gateway_cache_tiers"]);
        assert_eq!(picked.out, Some(PathBuf::from("dir")));

        let err = args(&["--only", "fig05_geo_peers,fig99"]).unwrap_err();
        assert!(err.starts_with("--only \"fig99\" is not accepted: expected"), "{err}");
        assert!(err.contains("fig04a_crawl_timeseries") && err.contains("ablation_hydra"), "{err}");

        for bad in [&["--only"][..], &["--jobs", "4"], &["fig05_geo_peers"]] {
            let err = args(bad).unwrap_err();
            assert!(err.contains(&format!("{:?}", bad[0])) && err.contains("expected"), "{err}");
        }
    }
}
