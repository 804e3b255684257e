//! Figure 8: churn — CDFs of measured DHT-peer uptimes by region.
//!
//! Paper: 87.6 % of sessions under 8 h, 2.5 % over 24 h; HK median
//! 24.2 min, Germany more than double that. The step shape of the CDF
//! comes from the monitor's probing quantization.

use bench::stats::{fraction_below, markdown_table, percentile};
use bench::{RunConfig, ScaleConfig};
use crawler::{ChurnMonitor, MonitorConfig};
use simnet::geodb::Country;
use simnet::{Population, PopulationConfig, SimDuration};

fn main() {
    let run = RunConfig::start("Figure 8", "session-uptime CDFs by region (churn)");
    let cfg = ScaleConfig::resolve(run.scale);
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.monitor_population,
            horizon: SimDuration::from_hours(48),
            ..Default::default()
        },
        run.seed,
    );
    let (observations, _) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);

    // Only sessions starting in the first half of the window (the paper's
    // long-session bias handling, §5.3).
    let counted: Vec<_> = observations.iter().filter(|o| o.in_first_half).collect();
    println!("{} session observations counted (paper: 467,134 at full scale)\n", counted.len());

    let regions =
        [Country::HK, Country::DE, Country::US, Country::CN, Country::FR, Country::TW, Country::KR];
    let mut rows = Vec::new();
    for c in regions {
        let ups: Vec<f64> = counted
            .iter()
            .filter(|o| o.country == c)
            .map(|o| o.observed_uptime.as_secs_f64() / 60.0)
            .collect();
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
    println!(
        "{}",
        markdown_table(
            &["Region", "Sessions", "Median (min)", "p90 (min)", "< 8 h (%)", "> 24 h (%)"],
            &rows
        )
    );

    let all: Vec<f64> = counted.iter().map(|o| o.observed_uptime.as_secs_f64() / 60.0).collect();
    println!(
        "all regions: {:.1} % of sessions < 8 h (paper: 87.6 %), {:.1} % > 24 h (paper: 2.5 %)",
        100.0 * fraction_below(&all, 8.0 * 60.0),
        100.0 * (1.0 - fraction_below(&all, 24.0 * 60.0)),
    );
    println!(
        "HK median {:.1} min (paper: 24.2); DE median {:.1} min (paper: 'more than double' HK)",
        percentile(
            &counted
                .iter()
                .filter(|o| o.country == Country::HK)
                .map(|o| o.observed_uptime.as_secs_f64() / 60.0)
                .collect::<Vec<_>>(),
            50.0
        ),
        percentile(
            &counted
                .iter()
                .filter(|o| o.country == Country::DE)
                .map(|o| o.observed_uptime.as_secs_f64() / 60.0)
                .collect::<Vec<_>>(),
            50.0
        ),
    );
}
