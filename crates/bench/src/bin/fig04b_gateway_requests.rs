//! Figure 4b: request count at a single gateway over one day, binned at
//! 5 minutes, shown both in the gateway's timezone (PST) and the users'
//! local timezones.

use bench::{RunConfig, ScaleConfig};
use gateway::log::RequestBins;
use gateway::workload::{GatewayWorkload, Referrer, WorkloadConfig};
use gateway::{AccessLogEntry, ServedBy};
use simnet::geodb::Country;
use simnet::SimDuration;

/// Rough UTC offsets (hours) for user-local binning.
fn offset(c: Country) -> f64 {
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

fn main() {
    let run = RunConfig::start("Figure 4b", "gateway request count per 5-minute bin");
    let cfg = ScaleConfig::resolve(run.scale);
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: cfg.gateway_catalog,
        users: cfg.gateway_users,
        requests: cfg.gateway_requests,
        seed: run.seed,
        ..Default::default()
    });
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
        RequestBins::build_shifted(&entries, day, five_min, |e| offset(e.country) - (-8.0));

    println!("bin(5min)  gateway-tz  user-tz");
    // Print hourly aggregates (12 bins each) to keep the output readable;
    // full 5-min resolution totals follow.
    for hour in 0..24 {
        let g: u64 = gateway_tz.counts[hour * 12..(hour + 1) * 12].iter().sum();
        let u: u64 = user_tz.counts[hour * 12..(hour + 1) * 12].iter().sum();
        let bar =
            "#".repeat((g * 40 / gateway_tz.counts.iter().sum::<u64>().max(1) / 2).max(1) as usize);
        println!("{hour:02}:00      {g:>8}  {u:>8}  {bar}");
    }
    let total: u64 = gateway_tz.counts.iter().sum();
    let peak = gateway_tz.counts.iter().max().copied().unwrap_or(0);
    let trough = gateway_tz.counts.iter().min().copied().unwrap_or(0);
    println!(
        "\ntotal {total} requests in {} five-minute bins; peak bin {peak}, trough {trough} \
(paper: 7.1 M requests/day with clear diurnal swing)",
        gateway_tz.counts.len()
    );
}
