//! Figure 10: CDFs of the retrieval stretch per vantage point, (a) with
//! and (b) without the initial Bitswap timeout.
//!
//! Stretch = IPFS retrieval time / estimated HTTPS time (equations 1–2).
//! Paper: median stretch ≈ 4.3; without the 1 s Bitswap delay,
//! eu_central_1 sees stretch < 2 for 80 % of retrievals.

use bench::stats::{fraction_below, markdown_table, percentile};
use bench::{RunConfig, ScaleConfig};
use ipfs_core::{DhtPerfConfig, DhtPerfExperiment};
use simnet::latency::VantagePoint;

fn main() {
    let run = RunConfig::start("Figure 10", "retrieval stretch with/without the Bitswap timeout");
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
        let with: Vec<f64> = results
            .retrieves
            .iter()
            .filter(|(v, r)| *v == vp && r.success)
            .map(|(_, r)| r.stretch())
            .filter(|s| s.is_finite())
            .collect();
        let without: Vec<f64> = results
            .retrieves
            .iter()
            .filter(|(v, r)| *v == vp && r.success)
            .map(|(_, r)| r.stretch_without_bitswap())
            .filter(|s| s.is_finite())
            .collect();
        rows.push(vec![
            vp.label().to_string(),
            format!("{:.1}", percentile(&with, 50.0)),
            format!("{:.1}", percentile(&with, 80.0)),
            format!("{:.1}", percentile(&without, 50.0)),
            format!("{:.1}", percentile(&without, 80.0)),
            format!("{:.0} %", 100.0 * fraction_below(&without, 2.0)),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "AWS Region",
                "stretch p50 (a)",
                "stretch p80 (a)",
                "no-bitswap p50 (b)",
                "no-bitswap p80 (b)",
                "no-bitswap <2",
            ],
            &rows
        )
    );

    let all: Vec<f64> = results
        .retrieves
        .iter()
        .filter(|(_, r)| r.success)
        .map(|(_, r)| r.stretch())
        .filter(|s| s.is_finite())
        .collect();
    println!("overall median stretch: {:.1} (paper: 4.3)", percentile(&all, 50.0));
    let eu_wo: Vec<f64> = results
        .retrieves
        .iter()
        .filter(|(v, r)| *v == VantagePoint::EuCentral1 && r.success)
        .map(|(_, r)| r.stretch_without_bitswap())
        .filter(|s| s.is_finite())
        .collect();
    println!(
        "eu_central_1 without Bitswap timeout: {:.0} % of retrievals have stretch < 2 (paper: 80 %)",
        100.0 * fraction_below(&eu_wo, 2.0)
    );
}
