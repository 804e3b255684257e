//! Gateway request workload generator.
//!
//! Calibrated to the paper's one-day gateway trace (§4.2, §6.3):
//!
//! - object sizes: log-normal with median ≈ 664.59 kB and 79.1 % of
//!   requests above 100 kB (Figure 11a);
//! - object popularity: Zipf (a small head dominates; hit rates in
//!   Table 5 emerge from this skew plus cache capacity);
//! - user countries: Figure 6's distribution (US 50.4 %, CN 31.9 %, ...);
//! - request arrival: diurnal in each *user's local time*, so the
//!   gateway-timezone and user-timezone curves of Figure 4b differ;
//! - referrers: §6.3 "Gateway Referrals" — 51.8 % of traffic referred by
//!   third-party sites, 70.6 % of that from 72 semi-popular sites.

use multiformats::Cid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::geodb::{Country, GeoDb};
use simnet::latency::lognormal;
use simnet::{SimDuration, SimTime};

/// Zipf popularity exponent for objects.
const ZIPF_S: f64 = 0.9;
/// Median object size in bytes (paper: 664.59 kB).
const MEDIAN_OBJECT_BYTES: f64 = 664_590.0;
/// Log-normal sigma of object sizes (2.3 puts ≈79 % of mass >100 kB).
const SIZE_SIGMA: f64 = 2.3;

/// Workload dimensions. Defaults are the paper's trace scaled by ~1/100
/// (so a full day simulates quickly while keeping every distribution).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Distinct objects (paper: 274 k CIDs).
    pub catalog_size: usize,
    /// Distinct users (paper: 101 k, by IP + user agent).
    pub users: usize,
    /// Total requests over the day (paper: 7.1 M).
    pub requests: usize,
    /// Trace duration.
    pub duration: SimDuration,
    /// Fraction of the catalog pinned into the gateway's node store by the
    /// Web3/NFT storage initiatives (§3.4).
    pub pinned_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Optional flash-crowd shock: one object goes viral for a window of
    /// the day. `None` generates exactly the trace previous versions did
    /// (the shock plumbing leaves the RNG stream untouched).
    pub shock: Option<ShockConfig>,
}

/// A flash-crowd shock: for a window of the trace the arrival rate is
/// multiplied and a large share of requests converge on one viral object
/// (the scenario a gateway fleet must absorb via caching + singleflight).
#[derive(Debug, Clone, Copy)]
pub struct ShockConfig {
    /// When the shock window opens (offset from trace start).
    pub start: SimDuration,
    /// How long the window lasts.
    pub duration: SimDuration,
    /// Arrival-rate multiplier inside the window (≥ 1).
    pub rate_boost: f64,
    /// Fraction of in-window requests redirected to the viral object.
    pub viral_fraction: f64,
    /// Catalog index of the viral object.
    pub viral_object: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            catalog_size: 2_740,
            users: 1_010,
            requests: 71_000,
            duration: SimDuration::from_hours(24),
            pinned_fraction: 0.62,
            seed: 7,
            shock: None,
        }
    }
}

/// One object in the gateway catalog.
#[derive(Debug, Clone)]
pub struct CatalogObject {
    /// Content identifier (of the stub payload; see `stub_payload`).
    pub cid: Cid,
    /// Reported object size in bytes (drives traffic accounting and the
    /// serialization component of fetch latency). The paper itself found
    /// latency essentially size-independent (Pearson r = 0.13, §6.3), so
    /// fetching small stub payloads while accounting full sizes preserves
    /// the measured behaviour; see DESIGN.md §2.
    pub size: u64,
    /// Whether the Web3/NFT initiatives pinned it into the gateway store.
    pub pinned: bool,
}

impl CatalogObject {
    /// The small on-network payload this object is represented by.
    pub fn stub_payload(index: usize) -> Vec<u8> {
        let mut v = vec![0u8; 2048];
        v[..8].copy_from_slice(&(index as u64).to_be_bytes());
        v[8] = 0x6A;
        v
    }
}

/// Where a request claims to have been referred from (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Referrer {
    /// No referrer header (direct navigation, apps).
    Direct,
    /// One of the ~72 semi-popular sites (Tranco rank 10k–50k).
    SemiPopularSite(u16),
    /// Some other website.
    OtherSite,
}

/// One user request.
#[derive(Debug, Clone)]
pub struct GatewayRequest {
    /// Arrival time.
    pub at: SimTime,
    /// User index (stable across the day).
    pub user: usize,
    /// The user's country.
    pub country: Country,
    /// Index into the catalog.
    pub object: usize,
    /// HTTP referrer model.
    pub referrer: Referrer,
}

/// The generated workload: catalog + time-ordered request sequence.
#[derive(Debug, Clone)]
pub struct GatewayWorkload {
    /// The content catalog.
    pub objects: Vec<CatalogObject>,
    /// Per-user country assignment.
    pub user_countries: Vec<Country>,
    /// Requests sorted by arrival time.
    pub requests: Vec<GatewayRequest>,
    /// The config that generated this workload.
    pub config: WorkloadConfig,
}

/// Rough UTC offsets per country for the diurnal model.
fn utc_offset_hours(c: Country) -> f64 {
    match c {
        Country::US => -8.0, // the sampled gateway skews US-west (PST)
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

/// Diurnal activity weight at a local hour: a day/evening bump with a
/// deep overnight trough, matching the shape of Figure 4b.
fn diurnal_weight(local_hour: f64) -> f64 {
    let phase = (local_hour - 15.0) / 24.0 * core::f64::consts::TAU;
    (1.0 + 0.65 * phase.cos()).max(0.05)
}

impl GatewayWorkload {
    /// Generates the workload deterministically.
    pub fn generate(config: WorkloadConfig) -> GatewayWorkload {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x6761_7465_7761_7921);
        let geodb = GeoDb::new();

        // --- catalog ---
        let mut objects = Vec::with_capacity(config.catalog_size);
        for i in 0..config.catalog_size {
            let payload = CatalogObject::stub_payload(i);
            let size = (MEDIAN_OBJECT_BYTES * lognormal(&mut rng, 0.0, SIZE_SIGMA))
                .clamp(200.0, 16.0 * 1024.0 * 1024.0 * 1024.0) as u64;
            objects.push(CatalogObject {
                cid: Cid::from_raw_data(&payload),
                size,
                pinned: rng.random_range(0.0..1.0) < config.pinned_fraction,
            });
        }

        // --- users ---
        let user_countries: Vec<Country> =
            (0..config.users).map(|_| geodb.sample_user_country(&mut rng)).collect();

        // --- Zipf CDF over objects ---
        let zipf_cdf = zipf_cdf(config.catalog_size, ZIPF_S);
        let user_cdf = zipf_cdf_short(config.users, 0.8);

        // --- requests ---
        if let Some(s) = config.shock {
            assert!(s.viral_object < config.catalog_size, "viral object outside the catalog");
            assert!(s.rate_boost >= 1.0, "shock must not be a traffic dip");
        }
        let day_secs = config.duration.as_secs_f64();
        let mut requests = Vec::with_capacity(config.requests);
        while requests.len() < config.requests {
            // Accept-reject against the user's local diurnal profile.
            let user = sample_cdf(&mut rng, &user_cdf);
            let country = user_countries[user];
            let t = rng.random_range(0.0..day_secs);
            let in_shock = config.shock.is_some_and(|s| {
                let start = s.start.as_secs_f64();
                t >= start && t < start + s.duration.as_secs_f64()
            });
            let local_hour = ((t / 3600.0) + utc_offset_hours(country)).rem_euclid(24.0);
            // With a shock configured, the acceptance cap scales by the
            // boost so in-window weights can exceed the diurnal ceiling;
            // with `shock: None` this is the exact literal 1.65 the
            // pre-shock generator used (same RNG stream, same trace).
            let cap = match config.shock {
                Some(s) => 1.65 * s.rate_boost,
                None => 1.65,
            };
            let weight = if in_shock {
                diurnal_weight(local_hour) * config.shock.unwrap().rate_boost
            } else {
                diurnal_weight(local_hour)
            };
            if rng.random_range(0.0..cap) > weight {
                continue;
            }
            let mut object = sample_cdf(&mut rng, &zipf_cdf);
            if in_shock {
                // The extra RNG draw happens only inside an active shock
                // window, so traces without one are bit-identical.
                let s = config.shock.unwrap();
                if rng.random_range(0.0..1.0) < s.viral_fraction {
                    object = s.viral_object;
                }
            }
            let referrer = {
                let x: f64 = rng.random_range(0.0..1.0);
                if x < 0.482 {
                    Referrer::Direct
                } else if x < 0.482 + 0.518 * 0.706 {
                    Referrer::SemiPopularSite(rng.random_range(0..72))
                } else {
                    Referrer::OtherSite
                }
            };
            requests.push(GatewayRequest {
                at: SimTime::ZERO + SimDuration::from_secs_f64(t),
                user,
                country,
                object,
                referrer,
            });
        }
        requests.sort_by_key(|r| r.at);
        GatewayWorkload { objects, user_countries, requests, config }
    }
}

/// Cumulative Zipf weights for `n` items with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(n);
    for i in 1..=n {
        acc += (i as f64).powf(-s);
        cdf.push(acc);
    }
    for v in cdf.iter_mut() {
        *v /= acc;
    }
    cdf
}

fn zipf_cdf_short(n: usize, s: f64) -> Vec<f64> {
    zipf_cdf(n, s)
}

fn sample_cdf<R: Rng + ?Sized>(rng: &mut R, cdf: &[f64]) -> usize {
    let x: f64 = rng.random_range(0.0..1.0);
    cdf.partition_point(|&v| v < x).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig { catalog_size: 500, users: 200, requests: 20_000, ..Default::default() }
    }

    fn small() -> GatewayWorkload {
        GatewayWorkload::generate(small_config())
    }

    #[test]
    fn requests_sorted_and_in_range() {
        let w = small();
        assert_eq!(w.requests.len(), 20_000);
        for pair in w.requests.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for r in &w.requests {
            assert!(r.object < w.objects.len());
            assert!(r.user < w.user_countries.len());
            assert!(r.at < SimTime::ZERO + w.config.duration);
        }
    }

    #[test]
    fn size_distribution_matches_figure11a() {
        let w = GatewayWorkload::generate(WorkloadConfig {
            catalog_size: 20_000,
            users: 100,
            requests: 100,
            ..Default::default()
        });
        let mut sizes: Vec<u64> = w.objects.iter().map(|o| o.size).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2] as f64;
        assert!((median - 664_590.0).abs() / 664_590.0 < 0.15, "median size {median}");
        let over_100k = sizes.iter().filter(|&&s| s > 100_000).count() as f64 / sizes.len() as f64;
        assert!((over_100k - 0.791).abs() < 0.06, "share >100kB: {over_100k}");
    }

    #[test]
    fn user_countries_match_figure6() {
        let w = GatewayWorkload::generate(WorkloadConfig {
            catalog_size: 100,
            users: 20_000,
            requests: 100,
            ..Default::default()
        });
        let us = w.user_countries.iter().filter(|c| **c == Country::US).count() as f64
            / w.user_countries.len() as f64;
        assert!((us - 0.504).abs() < 0.02, "US user share {us}");
    }

    #[test]
    fn popularity_is_skewed() {
        let w = small();
        let mut counts = vec![0u32; w.objects.len()];
        for r in &w.requests {
            counts[r.object] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts.iter().take(50).sum();
        let total: u32 = counts.iter().sum();
        // Top 10% of objects must draw a clear majority of requests.
        assert!(
            top10 as f64 / total as f64 > 0.4,
            "zipf head too weak: {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn diurnal_pattern_visible() {
        let w = small();
        // Bin into 24 hours (gateway/UTC time) and check peak/trough ratio.
        let mut bins = [0u32; 24];
        for r in &w.requests {
            bins[(r.at.as_nanos() / 3_600_000_000_000) as usize % 24] += 1;
        }
        let max = *bins.iter().max().unwrap() as f64;
        let min = *bins.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) > 1.5, "no diurnal swing: {bins:?}");
    }

    #[test]
    fn referrer_shares_match_section63() {
        let w = small();
        let direct = w.requests.iter().filter(|r| r.referrer == Referrer::Direct).count() as f64;
        let semi = w
            .requests
            .iter()
            .filter(|r| matches!(r.referrer, Referrer::SemiPopularSite(_)))
            .count() as f64;
        let n = w.requests.len() as f64;
        assert!((direct / n - 0.482).abs() < 0.02);
        assert!((semi / n - 0.518 * 0.706).abs() < 0.02);
    }

    #[test]
    fn determinism() {
        let a = small();
        let b = small();
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.requests[100].at, b.requests[100].at);
        assert_eq!(a.objects[42].size, b.objects[42].size);
    }

    #[test]
    fn flash_crowd_concentrates_traffic_on_viral_object() {
        let shock = ShockConfig {
            start: SimDuration::from_hours(12),
            duration: SimDuration::from_hours(2),
            rate_boost: 6.0,
            viral_fraction: 0.7,
            viral_object: 3,
        };
        let w = GatewayWorkload::generate(WorkloadConfig { shock: Some(shock), ..small_config() });
        assert_eq!(w.requests.len(), 20_000, "total volume is unchanged");
        let start = SimTime::ZERO + shock.start;
        let end = start + shock.duration;
        let in_window: Vec<_> = w.requests.iter().filter(|r| r.at >= start && r.at < end).collect();
        // A 2/24h window holding a 6x boost must capture a large share.
        let window_share = in_window.len() as f64 / w.requests.len() as f64;
        assert!(window_share > 0.2, "shock window share {window_share}");
        let viral_share =
            in_window.iter().filter(|r| r.object == 3).count() as f64 / in_window.len() as f64;
        assert!(viral_share > 0.6, "viral share inside the window {viral_share}");
        // Outside the window the viral object stays ordinary catalog tail.
        let out_total = w.requests.len() - in_window.len();
        let out_viral =
            w.requests.iter().filter(|r| (r.at < start || r.at >= end) && r.object == 3).count();
        assert!(
            (out_viral as f64) / (out_total as f64) < 0.1,
            "viral object must not leak outside the window"
        );
    }

    #[test]
    fn inactive_shock_leaves_rng_stream_untouched() {
        // A zero-width shock window never activates; the generated trace
        // must be bit-identical to `shock: None` — proof that the shock
        // plumbing adds no RNG draws outside an active window.
        let base = small();
        let shocked = GatewayWorkload::generate(WorkloadConfig {
            shock: Some(ShockConfig {
                start: SimDuration::from_hours(5),
                duration: SimDuration::ZERO,
                rate_boost: 1.0,
                viral_fraction: 0.5,
                viral_object: 0,
            }),
            ..small_config()
        });
        assert_eq!(base.requests.len(), shocked.requests.len());
        for (a, b) in base.requests.iter().zip(&shocked.requests) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.user, b.user);
            assert_eq!(a.object, b.object);
            assert_eq!(a.referrer, b.referrer);
        }
    }
}
