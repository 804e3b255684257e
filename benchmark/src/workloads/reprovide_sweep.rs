//! `reprovide_sweep` — the `kademlia`/`netsim` layers used for writes
//! and expiry instead of reads.
//!
//! One pinning node keeps a seeded catalog of CIDs alive through several
//! republish cycles of the keyspace-ordered sweep. `RecordStore` adds,
//! the expiry wheels and the sweep's regrouping do the work; walks are
//! amortised over whole keyspace neighbourhoods. A routing-table change
//! that speeds `dht_perf` reads but slows batch stores shows here.

use super::{digest, netsim_counts, ratio, Outcome, Workload, WORLD_SEED};
use crate::trace::Spans;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeConfig, NodeId};
use multiformats::Cid;
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimTime};

/// Republish cadence (§3.1's 12 h cycle, scaled).
const INTERVAL: SimDuration = SimDuration::from_mins(60);
/// Record lifetime (§3.1).
const EXPIRY: SimDuration = SimDuration::from_hours(24);
/// Slack after the last cycle for its walk and store tails.
const TAIL: SimDuration = SimDuration::from_mins(30);

struct Sizes {
    population: usize,
    catalog: usize,
    cycles: u64,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes { population: 200, catalog: 1_000, cycles: 2 }
    } else {
        Sizes { population: 1_000, catalog: 30_000, cycles: 4 }
    }
}

/// The network with the catalog seeded on the pinner.
pub struct ReprovideSweep {
    net: IpfsNetwork,
    cids: Vec<Cid>,
    cycles: u64,
    t0: SimTime,
}

impl Workload for ReprovideSweep {
    const NAME: &'static str = "reprovide_sweep";
    const OP: &'static str = "one provider record maintained for one cycle";

    fn sizes_json(quick: bool) -> String {
        let s = sizes(quick);
        format!(
            "{{\"population\": {}, \"catalog\": {}, \"cycles\": {}, \"republish_mins\": 60, \
             \"expiry_hours\": 24, \"ops\": {}}}",
            s.population,
            s.catalog,
            s.cycles,
            s.catalog as u64 * s.cycles
        )
    }

    fn setup(seed: u64, quick: bool, t: &mut Spans) -> ReprovideSweep {
        let s = sizes(quick);
        let pop = t.span("population_generate", 0, || {
            Population::generate(
                PopulationConfig {
                    size: s.population,
                    nat_fraction: 0.455,
                    horizon: SimDuration::from_hours(12),
                    ..Default::default()
                },
                WORLD_SEED,
            )
        });
        let cfg = NetworkConfig {
            auto_republish: true,
            reprovide_sweep: true,
            node: NodeConfig {
                republish_interval: INTERVAL,
                expiry_interval: EXPIRY,
                ..NodeConfig::default()
            },
            ..NetworkConfig::default()
        };
        let mut net = t.span("from_population", 0, || {
            IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, WORLD_SEED)
        });
        let pinner: NodeId = net.vantage_ids(1)[0];
        let cids = t.span("seed_provided", 0, || net.seed_provided(pinner, seed, s.catalog));
        let t0 = net.now();
        ReprovideSweep { net, cids, cycles: s.cycles, t0 }
    }

    fn run(&mut self, t: &mut Spans) -> Outcome {
        let net = &mut self.net;
        let events_before = net.events_processed;
        let before = |net: &IpfsNetwork, name: &str| net.metrics().get(name);
        let republishes0 = before(net, names::PROVIDER_REPUBLISHES);
        let messages0 = dht_messages(net);

        for cycle in 1..=self.cycles {
            let span = t.enter("op.cycle", cycle);
            t.span("run_until", cycle, || net.run_until(self.t0 + INTERVAL * cycle));
            t.exit(span);
        }
        t.span("run_until", self.cycles + 1, || {
            net.run_until(self.t0 + INTERVAL * self.cycles + TAIL)
        });

        let maintained = before(net, names::PROVIDER_REPUBLISHES) - republishes0;
        let attempted = self.cids.len() as u64 * self.cycles;
        let mut counts = netsim_counts(net.metrics());
        counts.extend([
            ("netsim.msgs_per_record", ratio(dht_messages(net) - messages0, maintained)),
            ("netsim.records_resident", net.provider_records_total() as f64),
        ]);
        Outcome {
            attempted,
            // A record the sweep did not get to in its cycle.
            failed: attempted.saturating_sub(maintained),
            events: net.events_processed - events_before,
            digest: digest(net.events_processed, &[net.metrics()]),
            counts,
        }
    }

    fn verify(&mut self, _t: &mut Spans) -> Result<(), String> {
        // Every CID of the catalog still resolves to a resident record.
        let lost = self.cids.iter().filter(|c| !self.net.provider_record_available(c)).count();
        if lost > 0 {
            return Err(format!(
                "reprovide_sweep: {lost} of {} CIDs have no resident provider record",
                self.cids.len()
            ));
        }
        Ok(())
    }
}

/// DHT messages the maintenance loop costs: walks out, stores in.
fn dht_messages(net: &IpfsNetwork) -> u64 {
    let m = net.metrics();
    m.get(names::DHT_RPC_SENT_FIND_NODE)
        + m.get(names::DHT_RPC_RECV_ADD_PROVIDER)
        + m.get(names::DHT_RPC_RECV_ADD_PROVIDER_BATCH)
}
