//! The adaptive-interval churn monitor (§4.1, §5.3).
//!
//! "We periodically revisit all previously discovered and online peers and
//! measure their session lengths ... we select an interval of 0.5x the
//! observed uptime, starting at a minimum of 30 seconds and ending at a
//! maximum of 15 minutes."
//!
//! The monitor probes *measured* reality: it sees a peer's true schedule
//! only through discrete probes, so observed session lengths are
//! quantized by the probing interval — which is exactly what gives
//! Figure 8 its step shape ("The step shape correlates with the sampling
//! interval of our crawler").
//!
//! Long-session bias handling follows the paper's method (§5.3, citing
//! [52, 57, 61]): only sessions that *start* in the first half of the
//! measurement window are counted, so long sessions are not truncated
//! away disproportionately.

use ipfs_core::obs::names;
use ipfs_core::MetricsRegistry;
use simnet::geodb::Country;
use simnet::{Population, SimDuration, SimTime};

/// Minimum probe interval (30 s).
const MIN_INTERVAL: SimDuration = SimDuration::from_secs(30);
/// Maximum probe interval (15 min).
const MAX_INTERVAL: SimDuration = SimDuration::from_mins(15);
/// Interval as a fraction of observed uptime (0.5).
const UPTIME_FACTOR: f64 = 0.5;

/// Monitor parameters (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Total measurement window.
    pub window: SimDuration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { window: SimDuration::from_hours(48) }
    }
}

/// One measured session.
#[derive(Debug, Clone, Copy)]
pub struct SessionObservation {
    /// Peer index in the population.
    pub peer: usize,
    /// The peer's country (for Figure 8's per-region CDFs).
    pub country: Country,
    /// When the session was first observed.
    pub observed_start: SimTime,
    /// Measured (probe-quantized) session length.
    pub observed_uptime: SimDuration,
    /// Whether the session started in the first half of the window (only
    /// these are counted in the CDFs, §5.3).
    pub in_first_half: bool,
}

/// Per-peer uptime summary over the window (Figures 7a/7b).
#[derive(Debug, Clone, Copy)]
pub struct UptimeSummary {
    /// Peer index.
    pub peer: usize,
    /// Country.
    pub country: Country,
    /// Fraction of probes that found the peer reachable.
    pub reachable_fraction: f64,
    /// Whether the peer was never reachable during the whole window.
    pub never_reachable: bool,
}

/// The monitor.
pub struct ChurnMonitor {
    cfg: MonitorConfig,
}

impl ChurnMonitor {
    /// Creates a monitor.
    pub fn new(cfg: MonitorConfig) -> ChurnMonitor {
        ChurnMonitor { cfg }
    }

    /// Probes every peer in the population across the window, returning
    /// the session observations and per-peer summaries.
    ///
    /// Ground truth is each peer's schedule plus its NAT flag (NAT'ed
    /// peers advertise addresses but are never dialable — the paper's
    /// "always unreachable" third).
    pub fn run(&self, pop: &Population) -> (Vec<SessionObservation>, Vec<UptimeSummary>) {
        let mut metrics = MetricsRegistry::new();
        self.run_with_metrics(pop, &mut metrics)
    }

    /// Like [`ChurnMonitor::run`], but also accounts the probing effort in
    /// `metrics`: `monitor_probes` / `monitor_probes_up` counters,
    /// `monitor_sessions_observed`, and a `monitor_observed_uptime_secs`
    /// histogram over first-half session lengths (the Figure 8 population).
    pub fn run_with_metrics(
        &self,
        pop: &Population,
        metrics: &mut MetricsRegistry,
    ) -> (Vec<SessionObservation>, Vec<UptimeSummary>) {
        let mut observations = Vec::new();
        let mut summaries = Vec::with_capacity(pop.peers.len());
        let end = SimTime::ZERO + self.cfg.window;
        let half = SimTime::ZERO + self.cfg.window / 2;

        for peer in &pop.peers {
            let dialable_at = |t: SimTime| !peer.nat && peer.schedule.online_at(t);
            let mut t = SimTime::ZERO;
            let mut probes = 0u64;
            let mut up_probes = 0u64;
            // Session tracking.
            let mut session_start: Option<SimTime> = None;
            let mut last_up: SimTime = SimTime::ZERO;

            while t < end {
                probes += 1;
                let up = dialable_at(t);
                let interval = match (up, session_start) {
                    (true, None) => {
                        // New session begins (as observed).
                        session_start = Some(t);
                        last_up = t;
                        up_probes += 1;
                        MIN_INTERVAL
                    }
                    (true, Some(start)) => {
                        last_up = t;
                        up_probes += 1;
                        // Adaptive interval: 0.5x observed uptime, clamped.
                        let observed = t.since(start);
                        let next =
                            SimDuration::from_secs_f64(observed.as_secs_f64() * UPTIME_FACTOR);
                        next.max(MIN_INTERVAL).min(MAX_INTERVAL)
                    }
                    (false, Some(start)) => {
                        // Session ended somewhere between last_up and t.
                        observations.push(SessionObservation {
                            peer: peer.index,
                            country: peer.host.country,
                            observed_start: start,
                            observed_uptime: last_up.since(start),
                            in_first_half: start < half,
                        });
                        session_start = None;
                        MIN_INTERVAL
                    }
                    (false, None) => MIN_INTERVAL,
                };
                t += interval;
            }
            // A session still open at window end is censored: following the
            // paper's method we do not emit it as a (truncated) observation.
            metrics.add(names::MONITOR_PROBES, probes);
            metrics.add(names::MONITOR_PROBES_UP, up_probes);

            summaries.push(UptimeSummary {
                peer: peer.index,
                country: peer.host.country,
                reachable_fraction: if probes == 0 {
                    0.0
                } else {
                    up_probes as f64 / probes as f64
                },
                never_reachable: up_probes == 0,
            });
        }
        metrics.add(names::MONITOR_SESSIONS_OBSERVED, observations.len() as u64);
        for o in observations.iter().filter(|o| o.in_first_half) {
            metrics.observe(names::MONITOR_OBSERVED_UPTIME_SECS, o.observed_uptime.as_secs_f64());
        }
        (observations, summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::PopulationConfig;

    fn population(n: usize) -> Population {
        Population::generate(
            PopulationConfig {
                size: n,
                horizon: SimDuration::from_hours(48),
                ..Default::default()
            },
            17,
        )
    }

    #[test]
    fn metrics_account_probe_effort() {
        let pop = population(500);
        let mut metrics = ipfs_core::MetricsRegistry::new();
        let (obs, _) =
            ChurnMonitor::new(MonitorConfig::default()).run_with_metrics(&pop, &mut metrics);
        assert!(metrics.get(names::MONITOR_PROBES) > 0);
        assert!(metrics.get(names::MONITOR_PROBES_UP) <= metrics.get(names::MONITOR_PROBES));
        assert_eq!(metrics.get(names::MONITOR_SESSIONS_OBSERVED), obs.len() as u64);
        let first_half = obs.iter().filter(|o| o.in_first_half).count();
        assert_eq!(metrics.samples(names::MONITOR_OBSERVED_UPTIME_SECS).len(), first_half);
    }

    #[test]
    fn nat_peers_never_reachable() {
        let pop = population(2000);
        let (_, summaries) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);
        for s in &summaries {
            if pop.peers[s.peer].nat {
                assert!(s.never_reachable);
                assert_eq!(s.reachable_fraction, 0.0);
            }
        }
        let never =
            summaries.iter().filter(|s| s.never_reachable).count() as f64 / summaries.len() as f64;
        // NAT share (45.5 %) plus servers that never come online in-window.
        assert!(never > 0.4, "never-reachable share {never}");
    }

    #[test]
    fn reliable_peers_have_high_uptime() {
        let pop = population(3000);
        let (_, summaries) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);
        let reliable: Vec<_> = pop
            .peers
            .iter()
            .filter(|p| p.stability == simnet::churn::StabilityClass::Reliable && !p.nat)
            .collect();
        assert!(!reliable.is_empty());
        for p in reliable {
            let s = summaries.iter().find(|s| s.peer == p.index).unwrap();
            assert!(s.reachable_fraction > 0.9, "reliable peer at {}", s.reachable_fraction);
        }
    }

    #[test]
    fn observed_uptime_approximates_truth() {
        // For a synthetic peer with one known 2 h session, the monitor's
        // estimate must land within a probe interval of the truth.
        let mut pop = population(1);
        pop.peers[0].nat = false;
        pop.peers[0].schedule = simnet::churn::SessionSchedule {
            sessions: vec![(
                SimTime::ZERO + SimDuration::from_hours(1),
                SimTime::ZERO + SimDuration::from_hours(3),
            )],
        };
        let (obs, _) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);
        assert_eq!(obs.len(), 1);
        let measured = obs[0].observed_uptime.as_secs_f64();
        let truth = 2.0 * 3600.0;
        assert!((measured - truth).abs() < 16.0 * 60.0, "measured {measured}s vs true {truth}s");
        assert!(obs[0].in_first_half);
    }

    #[test]
    fn session_observations_quantized_by_interval() {
        // Very short sessions cannot be observed shorter than 0 or longer
        // than their truth plus one max interval.
        let pop = population(800);
        let (obs, _) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);
        assert!(!obs.is_empty());
        for o in &obs {
            assert!(o.observed_uptime <= MonitorConfig::default().window);
        }
        // The paper's Figure 8 median is tens of minutes; sanity-check the
        // measured median is in a plausible band.
        let mut ups: Vec<f64> = obs
            .iter()
            .filter(|o| o.in_first_half)
            .map(|o| o.observed_uptime.as_secs_f64())
            .collect();
        ups.sort_by(f64::total_cmp);
        let median = ups[ups.len() / 2] / 60.0;
        assert!(median > 5.0 && median < 120.0, "median uptime {median} min");
    }

    #[test]
    fn hk_shorter_than_de_in_observations() {
        let pop = population(6000);
        let (obs, _) = ChurnMonitor::new(MonitorConfig::default()).run(&pop);
        let med = |c: Country| {
            let mut v: Vec<f64> = obs
                .iter()
                .filter(|o| o.country == c && o.in_first_half)
                .map(|o| o.observed_uptime.as_secs_f64())
                .collect();
            v.sort_by(f64::total_cmp);
            if v.is_empty() {
                f64::NAN
            } else {
                v[v.len() / 2]
            }
        };
        let hk = med(Country::HK);
        let de = med(Country::DE);
        assert!(hk < de, "HK median ({hk}s) must undercut DE ({de}s), per Figure 8");
    }
}
