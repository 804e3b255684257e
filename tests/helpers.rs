//! Shared helpers for the cross-crate integration tests.

use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// Builds a test network with the paper's default parameters at reduced
/// size, returning the network and the vantage-node ids.
pub fn test_network(
    peers: usize,
    vantages: &[VantagePoint],
    seed: u64,
) -> (IpfsNetwork, Vec<NodeId>) {
    test_network_with(peers, vantages, seed, NetworkConfig::default())
}

/// Like [`test_network`] but with a custom network configuration.
pub fn test_network_with(
    peers: usize,
    vantages: &[VantagePoint],
    seed: u64,
    cfg: NetworkConfig,
) -> (IpfsNetwork, Vec<NodeId>) {
    let pop = Population::generate(
        PopulationConfig { size: peers, nat_fraction: 0.455, horizon: SimDuration::from_hours(36) },
        seed,
    );
    let net = IpfsNetwork::from_population(&pop, vantages, cfg, seed);
    let ids = net.vantage_ids(vantages.len());
    (net, ids)
}

/// Deterministic pseudo-random payload of `len` bytes.
pub fn payload(len: usize, seed: u64) -> bytes::Bytes {
    let mut state = seed | 0x10000;
    bytes::Bytes::from(
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect::<Vec<u8>>(),
    )
}
