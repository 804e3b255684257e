//! Table 1: number of publication and retrieval operations from each AWS
//! region.
//!
//! Paper: 547 publications per region (546 for sa_east_1) and 2,047–2,708
//! retrievals per region, totalling 3,281 / 14,564.

use bench::stats::markdown_table;
use bench::{RunConfig, ScaleConfig};
use ipfs_core::{DhtPerfConfig, DhtPerfExperiment};
use simnet::latency::VantagePoint;

fn main() {
    let run = RunConfig::start("Table 1", "publication and retrieval operations per region");
    let cfg = ScaleConfig::resolve(run.scale);
    let results = DhtPerfExperiment::new(DhtPerfConfig {
        population: cfg.population,
        iterations_per_region: cfg.iterations_per_region,
        seed: run.seed,
        ..Default::default()
    })
    .run();

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
    println!(
        "{}",
        markdown_table(
            &["AWS Region", "Publications", "Retrievals", "Paper pub", "Paper ret"],
            &rows
        )
    );
    println!(
        "(each region publishes once per iteration and retrieves the other five regions' objects, \
matching the paper's setup; scale with IPFS_REPRO_SCALE=paper)"
    );
}
