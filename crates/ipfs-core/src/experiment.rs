//! The six-vantage-point DHT performance experiment of §4.3.
//!
//! "We use six virtual machines in six different regions on AWS. ... Upon
//! each iteration, a single node announces a new 0.5 MB object (i.e., CID)
//! to the network. Following this, all other nodes retrieve the object.
//! ... As soon as all remaining nodes have completed this process, they
//! disconnect to prevent the next retrieval operation being resolved
//! through Bitswap and instead resort to the DHT for lookup and
//! discovery."
//!
//! The output feeds Table 1 (operation counts), Table 4 (per-region
//! percentiles), Figure 9 (delay CDFs) and Figure 10 (retrieval stretch).

use crate::config::DHT_PERF_OBJECT_SIZE;
use crate::netsim::{IpfsNetwork, NetworkConfig};
use crate::ops::{PublishReport, RetrieveReport};
use bytes::Bytes;
use merkledag::BlockStore;
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// Configuration of a DHT-perf run.
#[derive(Debug, Clone, Copy)]
pub struct DhtPerfConfig {
    /// Peer population size (the live network had ~50 k online DHT
    /// servers; smaller populations preserve the delay structure because
    /// walk length grows only logarithmically).
    pub population: usize,
    /// NAT'ed fraction (paper §5.1: 45.5 % of peers always unreachable).
    pub nat_fraction: f64,
    /// Iterations *per publishing region* (the paper ran ~547).
    pub iterations_per_region: usize,
    /// Master seed.
    pub seed: u64,
    /// Network-level configuration.
    pub network: NetworkConfig,
}

impl Default for DhtPerfConfig {
    fn default() -> Self {
        DhtPerfConfig {
            population: 2_000,
            nat_fraction: 0.455,
            iterations_per_region: 20,
            seed: 42,
            network: NetworkConfig::default(),
        }
    }
}

/// Results: per-vantage publish and retrieve reports.
#[derive(Debug, Default)]
pub struct DhtPerfResults {
    /// (publishing region, report) pairs.
    pub publishes: Vec<(VantagePoint, PublishReport)>,
    /// (retrieving region, report) pairs.
    pub retrieves: Vec<(VantagePoint, RetrieveReport)>,
}

impl DhtPerfResults {
    /// Publish totals (seconds) for one region.
    pub fn publish_totals(&self, vp: VantagePoint) -> Vec<f64> {
        self.publishes
            .iter()
            .filter(|(v, _)| *v == vp)
            .map(|(_, r)| r.total.as_secs_f64())
            .collect()
    }

    /// Retrieve totals (seconds) for one region.
    pub fn retrieve_totals(&self, vp: VantagePoint) -> Vec<f64> {
        self.retrieves
            .iter()
            .filter(|(v, _)| *v == vp)
            .map(|(_, r)| r.total.as_secs_f64())
            .collect()
    }

    /// Overall retrieval success rate (the paper reports 100 %).
    pub fn retrieve_success_rate(&self) -> f64 {
        if self.retrieves.is_empty() {
            return 0.0;
        }
        self.retrieves.iter().filter(|(_, r)| r.success).count() as f64
            / self.retrieves.len() as f64
    }
}

/// The experiment runner.
pub struct DhtPerfExperiment {
    cfg: DhtPerfConfig,
}

impl DhtPerfExperiment {
    /// Creates a runner.
    pub fn new(cfg: DhtPerfConfig) -> DhtPerfExperiment {
        DhtPerfExperiment { cfg }
    }

    /// Runs the full experiment and returns per-operation reports.
    pub fn run(&self) -> DhtPerfResults {
        let cfg = &self.cfg;
        // Horizon: generous upper bound on total virtual time, so churn
        // schedules cover the whole run.
        let est_secs =
            (cfg.iterations_per_region as u64).saturating_mul(6).saturating_mul(200).max(3600 * 6);
        let pop = Population::generate(
            PopulationConfig {
                size: cfg.population,
                nat_fraction: cfg.nat_fraction,
                horizon: SimDuration::from_secs(est_secs),
            },
            cfg.seed,
        );
        let mut net = IpfsNetwork::from_population(&pop, &VantagePoint::ALL, cfg.network, cfg.seed);
        let vantage_ids = net.vantage_ids(VantagePoint::ALL.len());
        let mut results = DhtPerfResults::default();

        for round in 0..cfg.iterations_per_region {
            for (vi, &publisher) in vantage_ids.iter().enumerate() {
                let vp = VantagePoint::ALL[vi];
                // Fresh, unique object per iteration (new CID each time).
                let mut data = vec![0u8; DHT_PERF_OBJECT_SIZE];
                let tag = (round * 6 + vi) as u64;
                data[..8].copy_from_slice(&tag.to_be_bytes());
                data[8] = 0xA5;
                let data = Bytes::from(data);
                let cid = net.import_content(publisher, &data);

                let n_pub_before = net.publish_reports.len();
                net.publish(publisher, cid.clone());
                net.run_until_quiet();
                for rep in net.publish_reports.drain(n_pub_before..).collect::<Vec<_>>() {
                    results.publishes.push((vp, rep));
                }
                // §4.3 reset: drop the connections the publication walk
                // opened, so no retrieval can be satisfied over a warm
                // Bitswap connection to the publisher.
                net.disconnect_all(publisher);

                // All other vantage nodes retrieve, then disconnect and
                // forget the provider's address (§4.3's reset).
                for (ri, &requester) in vantage_ids.iter().enumerate() {
                    if requester == publisher {
                        continue;
                    }
                    let rvp = VantagePoint::ALL[ri];
                    let n_ret_before = net.retrieve_reports.len();
                    net.retrieve(requester, cid.clone());
                    net.run_until_quiet();
                    for rep in net.retrieve_reports.drain(n_ret_before..).collect::<Vec<_>>() {
                        results.retrieves.push((rvp, rep));
                    }
                    net.disconnect_all(requester);
                    let publisher_peer = net.peer_id(publisher).clone();
                    net.forget_address(requester, &publisher_peer);
                    // Drop the fetched content so the next iteration's
                    // retrieval is never served locally.
                    let n = net.node_mut(requester);
                    let cids: Vec<_> = n.store.cids().cloned().collect();
                    for c in cids {
                        n.store.delete(&c);
                    }
                }
                net.disconnect_all(publisher);
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_experiment_produces_full_reports() {
        let cfg = DhtPerfConfig {
            population: 400,
            iterations_per_region: 2,
            seed: 5,
            ..Default::default()
        };
        let results = DhtPerfExperiment::new(cfg).run();
        // 2 rounds x 6 regions publishes; each publish has 5 retrievals.
        assert_eq!(results.publishes.len(), 12);
        assert_eq!(results.retrieves.len(), 60);
        // §6.2: "We observe success rate of 100%".
        assert!(
            results.retrieve_success_rate() > 0.95,
            "success rate {}",
            results.retrieve_success_rate()
        );
        // Every region appears.
        for vp in VantagePoint::ALL {
            assert_eq!(results.publish_totals(vp).len(), 2);
            assert_eq!(results.retrieve_totals(vp).len(), 10);
        }
    }

    #[test]
    fn publication_slower_than_retrieval() {
        // §6.2: "Overall, retrieval performance is much faster than
        // publication" (walk must find 20 closest vs. a single record).
        let cfg = DhtPerfConfig {
            population: 500,
            iterations_per_region: 3,
            seed: 6,
            ..Default::default()
        };
        let results = DhtPerfExperiment::new(cfg).run();
        let med = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let pub_med = med(results.publishes.iter().map(|(_, r)| r.total.as_secs_f64()).collect());
        let ret_med = med(results.retrieves.iter().map(|(_, r)| r.total.as_secs_f64()).collect());
        assert!(
            pub_med > ret_med,
            "publish median {pub_med:.2}s should exceed retrieve median {ret_med:.2}s"
        );
    }
}
