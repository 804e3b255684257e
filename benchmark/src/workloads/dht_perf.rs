//! `dht_perf` — the §4.3 six-vantage loop: control plane only.
//!
//! Each iteration one vantage node imports and publishes a fresh 1 KiB
//! object, the other five retrieve it, then the §4.3 reset runs
//! (`disconnect_all`, `forget_address`, delete the fetched blocks) so the
//! next retrieval has to walk the DHT again. `kademlia` walks, routing
//! and records, `netsim` dial/RPC dispatch and the `simnet` scheduler do
//! all the work; SHA-256, `merkledag` and Bitswap sessions do almost none.

use super::{digest, netsim_counts, Outcome, Workload, WORLD_SEED};
use crate::trace::Spans;
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use merkledag::BlockStore;
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// NAT'ed share of the population (paper §5.1).
const NAT_FRACTION: f64 = 0.455;
/// Object size: small on purpose, the data plane is `swarm_fetch`'s job.
const OBJECT_BYTES: usize = 1024;

struct Sizes {
    population: usize,
    rounds: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes { population: 600, rounds: 2 }
    } else {
        Sizes { population: 20_000, rounds: 40 }
    }
}

/// The world plus the inputs of the measured phase.
pub struct DhtPerf {
    net: IpfsNetwork,
    vantages: Vec<NodeId>,
    seed: u64,
    rounds: usize,
    /// Retrievals the program reported as successful, and how many of
    /// those left the object in the requester's store.
    retrieved_ok: u64,
    retrieved_present: u64,
}

impl Workload for DhtPerf {
    const NAME: &'static str = "dht_perf";
    const OP: &'static str = "one publish or one retrieve";

    fn sizes_json(quick: bool) -> String {
        let s = sizes(quick);
        format!(
            "{{\"population\": {}, \"nat_fraction\": {NAT_FRACTION}, \"rounds_per_region\": {}, \
             \"object_bytes\": {OBJECT_BYTES}, \"ops\": {}}}",
            s.population,
            s.rounds,
            s.rounds * 36
        )
    }

    fn setup(seed: u64, quick: bool, t: &mut Spans) -> DhtPerf {
        let s = sizes(quick);
        // Churn schedules must cover the virtual time the rounds take
        // (a publication is tens of virtual seconds).
        let horizon_secs = (s.rounds as u64 * 6 * 200).max(6 * 3600);
        let pop = t.span("population_generate", 0, || {
            Population::generate(
                PopulationConfig {
                    size: s.population,
                    nat_fraction: NAT_FRACTION,
                    horizon: SimDuration::from_secs(horizon_secs),
                    ..Default::default()
                },
                WORLD_SEED,
            )
        });
        let net = t.span("from_population", 0, || {
            let cfg = NetworkConfig::default();
            IpfsNetwork::from_population(&pop, &VantagePoint::ALL, cfg, WORLD_SEED)
        });
        let vantages = net.vantage_ids(VantagePoint::ALL.len());
        DhtPerf { net, vantages, seed, rounds: s.rounds, retrieved_ok: 0, retrieved_present: 0 }
    }

    fn run(&mut self, t: &mut Spans) -> Outcome {
        let net = &mut self.net;
        let events_before = net.events_processed;
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut op = 0u64;
        for round in 0..self.rounds {
            for vi in 0..self.vantages.len() {
                let publisher = self.vantages[vi];
                // A fresh object per iteration, so a fresh CID.
                let mut data = vec![0u8; OBJECT_BYTES];
                data[..8].copy_from_slice(&self.seed.to_be_bytes());
                data[8..16].copy_from_slice(&((round * 6 + vi) as u64).to_be_bytes());
                let data = Bytes::from(data);

                op += 1;
                let span = t.enter("op.publish", op);
                let cid = t.span("import_content", op, || net.import_content(publisher, &data));
                t.span("publish", op, || net.publish(publisher, cid.clone()));
                t.span("run_until_quiet", op, || net.run_until_quiet());
                t.exit(span);
                attempted += 1;
                failed += net.publish_reports.drain(..).filter(|r| !r.success).count() as u64;
                // Drop the connections the walk opened, so no retrieval is
                // answered over a warm Bitswap connection to the publisher.
                t.span("reset", op, || net.disconnect_all(publisher));

                for ri in 0..self.vantages.len() {
                    let requester = self.vantages[ri];
                    if requester == publisher {
                        continue;
                    }
                    op += 1;
                    let span = t.enter("op.retrieve", op);
                    t.span("retrieve", op, || net.retrieve(requester, cid.clone()));
                    t.span("run_until_quiet", op, || net.run_until_quiet());
                    t.exit(span);
                    attempted += 1;
                    let ok = net.retrieve_reports.drain(..).all(|r| r.success);
                    if ok {
                        self.retrieved_ok += 1;
                        self.retrieved_present += net.node(requester).store.has(&cid) as u64;
                    } else {
                        failed += 1;
                    }
                    t.span("reset", op, || {
                        net.disconnect_all(requester);
                        let publisher_peer = net.peer_id(publisher).clone();
                        net.forget_address(requester, &publisher_peer);
                        // Delete what was fetched: the next iteration must
                        // never be served from the local store.
                        let store = &mut net.node_mut(requester).store;
                        let cids: Vec<_> = store.cids().cloned().collect();
                        for c in cids {
                            store.delete(&c);
                        }
                    });
                }
                t.span("reset", op, || net.disconnect_all(publisher));
            }
        }
        let events = net.events_processed - events_before;
        Outcome {
            attempted,
            failed,
            events,
            digest: digest(net.events_processed, &[net.metrics()]),
            counts: netsim_counts(net.metrics()),
        }
    }

    fn verify(&mut self, _t: &mut Spans) -> Result<(), String> {
        // Every retrieval reported as successful left the object in the
        // requester's store (it is deleted again by the reset).
        if self.retrieved_present != self.retrieved_ok {
            return Err(format!(
                "dht_perf: {} retrievals succeeded but only {} stored the object",
                self.retrieved_ok, self.retrieved_present
            ));
        }
        if self.net.active_ops() != 0 {
            return Err(format!("dht_perf: {} ops still active", self.net.active_ops()));
        }
        Ok(())
    }
}
