//! Shared helpers for the example binaries: building a small simulated
//! IPFS network with a couple of user-controlled nodes.

use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// Builds a modest simulated network (`peers` background peers with the
/// paper's NAT/churn mix) plus one user-controlled node per vantage point.
/// Returns the network and the user node ids.
pub fn example_network(
    peers: usize,
    vantages: &[VantagePoint],
    seed: u64,
) -> (IpfsNetwork, Vec<NodeId>) {
    let pop = Population::generate(
        PopulationConfig { size: peers, nat_fraction: 0.455, horizon: SimDuration::from_hours(24) },
        seed,
    );
    let net = IpfsNetwork::from_population(&pop, vantages, NetworkConfig::default(), seed);
    let ids = net.vantage_ids(vantages.len());
    (net, ids)
}

/// Pretty-prints a duration in seconds with millisecond precision.
pub fn secs(d: simnet::SimDuration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_network_builds() {
        let (net, ids) = example_network(150, &[VantagePoint::EuCentral1], 1);
        assert_eq!(ids.len(), 1);
        assert!(net.len() > 150);
        assert!(net.is_dialable(ids[0]));
    }
}
