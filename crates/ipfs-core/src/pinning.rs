//! Pinning services (paper §3.1).
//!
//! "It is worth noting that peers behind NATs cannot host content
//! themselves. Thus, third party hosts, commonly called *pinning
//! services*, are used to publish content on behalf of NAT'ed end-users
//! (usually for a fee)."
//!
//! A pinning service here is an always-online DHT server that accepts
//! content-addressed archive uploads (see [`merkledag::car`]), verifies
//! every block against its CID (the archive needs no trust), pins the
//! roots so they survive GC, and publishes provider records pointing at
//! itself.

use crate::netsim::{IpfsNetwork, NodeId};
use crate::ops::OpId;
use multiformats::Cid;

/// A pinning service bound to one always-online node in the network.
#[derive(Debug, Clone, Copy)]
pub struct PinningService {
    /// The service's node (must be a dialable DHT server, e.g. a vantage
    /// node or hydra head).
    pub node: NodeId,
}

/// Result of accepting one upload.
#[derive(Debug, Clone)]
pub struct PinReceipt {
    /// Roots now pinned and being published.
    pub roots: Vec<Cid>,
    /// Blocks imported.
    pub blocks: usize,
    /// Bytes imported (the "fee basis" a real service would bill).
    pub bytes: u64,
    /// The publication operations started (one per root).
    pub publish_ops: Vec<OpId>,
}

/// Upload/verification errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinError {
    /// The archive failed to parse or a block failed verification.
    BadArchive(merkledag::Error),
    /// The service node is not currently a dialable server.
    ServiceUnavailable,
}

impl core::fmt::Display for PinError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PinError::BadArchive(e) => write!(f, "rejected archive: {e}"),
            PinError::ServiceUnavailable => write!(f, "pinning service offline"),
        }
    }
}

impl std::error::Error for PinError {}

impl PinningService {
    /// Binds a service to `node`.
    pub fn new(node: NodeId) -> PinningService {
        PinningService { node }
    }

    /// Accepts an archive upload: verify, store, pin, publish. The
    /// uploader (typically a NAT'ed peer) can go offline immediately —
    /// the service now hosts the content under the same CIDs.
    pub fn pin_archive(
        &self,
        net: &mut IpfsNetwork,
        archive: &[u8],
    ) -> Result<PinReceipt, PinError> {
        if !net.is_dialable(self.node) {
            return Err(PinError::ServiceUnavailable);
        }
        let report = {
            let node = net.node_mut(self.node);
            let report =
                merkledag::car_import(&mut node.store, archive).map_err(PinError::BadArchive)?;
            for root in &report.roots {
                node.store.pin(root.clone());
            }
            report
        };
        let publish_ops =
            report.roots.iter().map(|root| net.publish(self.node, root.clone())).collect();
        Ok(PinReceipt {
            roots: report.roots,
            blocks: report.blocks,
            bytes: report.bytes,
            publish_ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::NetworkConfig;
    use bytes::Bytes;
    use simnet::latency::VantagePoint;
    use simnet::{Population, PopulationConfig, SimDuration};

    fn net(seed: u64) -> IpfsNetwork {
        let pop = Population::generate(
            PopulationConfig { size: 350, nat_fraction: 0.5, horizon: SimDuration::from_hours(8) },
            seed,
        );
        IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::UsWest1, VantagePoint::EuCentral1],
            NetworkConfig::default(),
            seed,
        )
    }

    #[test]
    fn nat_user_content_served_via_pinning_service() {
        let mut network = net(61);
        let [service_node, reader] = network.vantage_ids(2)[..] else { unreachable!() };
        let service = PinningService::new(service_node);

        // A NAT'ed user (never dialable) prepares content locally and
        // exports an archive "upload".
        let nat_user = (0..network.len())
            .find(|&i| !network.is_dialable(i) && network.is_online(i))
            .expect("NAT'ed peer exists");
        let data = Bytes::from(vec![0x42u8; 300 * 1024]);
        let root = network.node_mut(nat_user).add_content(&data).root;
        let archive = {
            let store = &mut network.node_mut(nat_user).store;
            merkledag::car_export(store, std::slice::from_ref(&root)).unwrap()
        };

        let receipt = service.pin_archive(&mut network, &archive).unwrap();
        assert_eq!(receipt.roots, vec![root.clone()]);
        assert!(receipt.bytes >= 300 * 1024);
        network.run_until_quiet();

        // The user vanishes entirely; content must still resolve, served
        // by the service.
        network.disconnect_all(nat_user);
        network.retrieve(reader, root.clone());
        network.run_until_quiet();
        let rr = network.retrieve_reports.last().unwrap();
        assert!(rr.success, "{rr:?}");
        assert_eq!(network.node_mut(reader).read_content(&root).unwrap(), data);
    }

    #[test]
    fn corrupt_upload_rejected_wholesale() {
        let mut network = net(62);
        let service = PinningService::new(network.vantage_ids(1)[0]);
        let donor = network.vantage_ids(2)[0];
        let data = Bytes::from(vec![7u8; 10_000]);
        let root = network.node_mut(donor).add_content(&data).root;
        let mut archive = {
            let store = &mut network.node_mut(donor).store;
            merkledag::car_export(store, &[root]).unwrap()
        };
        let n = archive.len();
        archive[n - 1] ^= 0x01;
        assert!(matches!(
            service.pin_archive(&mut network, &archive),
            Err(PinError::BadArchive(_))
        ));
    }

    #[test]
    fn pinned_content_survives_service_gc() {
        let mut network = net(63);
        let [service_node, donor] = network.vantage_ids(2)[..] else { unreachable!() };
        let service = PinningService::new(service_node);
        let data = Bytes::from(vec![9u8; 50_000]);
        let root = network.node_mut(donor).add_content(&data).root;
        let archive = {
            let store = &mut network.node_mut(donor).store;
            merkledag::car_export(store, std::slice::from_ref(&root)).unwrap()
        };
        service.pin_archive(&mut network, &archive).unwrap();
        network.run_until_quiet();

        // Fill the service with unpinned junk, then GC.
        network.node_mut(service_node).add_content(&Bytes::from(vec![1u8; 20_000]));
        network.node_mut(service_node).store.gc();
        assert!(network.node_mut(service_node).has_content(&root));
    }
}
