//! Table 4: latency percentiles of the overall DHT publication and
//! retrieval operations from different AWS regions.
//!
//! Paper values (seconds):
//! ```text
//!                  publication            retrieval
//! region           p50     p90     p95    p50   p90   p95
//! af_south_1       28.93   107.14  127.22 3.75  4.88  5.31
//! ap_southeast_2   36.26   117.74  142.79 3.76  4.85  5.15
//! eu_central_1     27.70   106.91  133.27 1.81  2.28  2.50
//! me_south_1       29.32   105.45  130.48 2.59  3.24  3.48
//! sa_east_1        42.32   115.45  148.04 3.60  4.56  4.93
//! us_west_1        36.02   121.13  147.59 2.48  3.17  3.42
//! ```

use bench::stats::{markdown_table, percentile};
use bench::{RunConfig, ScaleConfig};
use ipfs_core::{DhtPerfConfig, DhtPerfExperiment};
use simnet::latency::VantagePoint;

const PAPER: [(&str, [f64; 6]); 6] = [
    ("af_south_1", [28.93, 107.14, 127.22, 3.75, 4.88, 5.31]),
    ("ap_southeast_2", [36.26, 117.74, 142.79, 3.76, 4.85, 5.15]),
    ("eu_central_1", [27.70, 106.91, 133.27, 1.81, 2.28, 2.50]),
    ("me_south_1", [29.32, 105.45, 130.48, 2.59, 3.24, 3.48]),
    ("sa_east_1", [42.32, 115.45, 148.04, 3.60, 4.56, 4.93]),
    ("us_west_1", [36.02, 121.13, 147.59, 2.48, 3.17, 3.42]),
];

fn main() {
    let run = RunConfig::start("Table 4", "publication & retrieval latency percentiles per region");
    let cfg = ScaleConfig::resolve(run.scale);
    let results = DhtPerfExperiment::new(DhtPerfConfig {
        population: cfg.population,
        iterations_per_region: cfg.iterations_per_region,
        seed: run.seed,
        ..Default::default()
    })
    .run();

    let mut rows = Vec::new();
    for vp in VantagePoint::ALL {
        let pubs = results.publish_totals(vp);
        let rets = results.retrieve_totals(vp);
        let paper = PAPER.iter().find(|(l, _)| *l == vp.label()).unwrap().1;
        rows.push(vec![
            vp.label().to_string(),
            format!("{:.2} ({:.2})", percentile(&pubs, 50.0), paper[0]),
            format!("{:.2} ({:.2})", percentile(&pubs, 90.0), paper[1]),
            format!("{:.2} ({:.2})", percentile(&pubs, 95.0), paper[2]),
            format!("{:.2} ({:.2})", percentile(&rets, 50.0), paper[3]),
            format!("{:.2} ({:.2})", percentile(&rets, 90.0), paper[4]),
            format!("{:.2} ({:.2})", percentile(&rets, 95.0), paper[5]),
        ]);
    }
    bench::export::write_csv(
        &run,
        "tab4_latency_percentiles",
        &["region", "pub_p50", "pub_p90", "pub_p95", "ret_p50", "ret_p90", "ret_p95"],
        &VantagePoint::ALL
            .iter()
            .map(|vp| {
                let pubs = results.publish_totals(*vp);
                let rets = results.retrieve_totals(*vp);
                vec![
                    vp.label().to_string(),
                    format!("{}", percentile(&pubs, 50.0)),
                    format!("{}", percentile(&pubs, 90.0)),
                    format!("{}", percentile(&pubs, 95.0)),
                    format!("{}", percentile(&rets, 50.0)),
                    format!("{}", percentile(&rets, 90.0)),
                    format!("{}", percentile(&rets, 95.0)),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("values: measured (paper)\n");
    println!(
        "{}",
        markdown_table(
            &["AWS Region", "Pub p50", "Pub p90", "Pub p95", "Ret p50", "Ret p90", "Ret p95"],
            &rows
        )
    );

    let all_pub: Vec<f64> = results.publishes.iter().map(|(_, r)| r.total.as_secs_f64()).collect();
    let all_ret: Vec<f64> = results.retrieves.iter().map(|(_, r)| r.total.as_secs_f64()).collect();
    println!(
        "all regions: publication p50/p90/p95 = {:.1}/{:.1}/{:.1} s (paper 33.8/112.3/138.1); \
retrieval = {:.2}/{:.2}/{:.2} s (paper 2.90/4.34/4.74)",
        percentile(&all_pub, 50.0),
        percentile(&all_pub, 90.0),
        percentile(&all_pub, 95.0),
        percentile(&all_ret, 50.0),
        percentile(&all_ret, 90.0),
        percentile(&all_ret, 95.0),
    );
}
