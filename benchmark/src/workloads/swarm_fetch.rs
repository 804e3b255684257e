//! `swarm_fetch` — the data plane, the mirror image of `dht_perf`.
//!
//! Per round a fresh small world: one always-online server imports and
//! publishes a chunked DAG, then four others retrieve it one after
//! another, each becoming a provider, so the swarm grows 1→4 inside a
//! round. SHA-256 over every 256 KiB block, `merkledag` verification and
//! the `bitswap` session/engine dominate; DHT and scheduler are noise.

use super::{digest, netsim_counts, splitmix64, xorshift_bytes, Outcome, Workload, WORLD_SEED};
use crate::trace::Spans;
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use merkledag::Resolver;
use multiformats::Cid;
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};

/// Chunk size the importer uses (`NodeConfig::chunk_size`).
const CHUNK: usize = 256 * 1024;
/// Fetchers per round.
const FETCHERS: usize = 4;
/// Publisher + fetchers: always-online datacenter nodes, so no fetch
/// fails because its own endpoint churned away mid-transfer.
const VANTAGES: [VantagePoint; FETCHERS + 1] = [
    VantagePoint::EuCentral1,
    VantagePoint::UsWest1,
    VantagePoint::SaEast1,
    VantagePoint::ApSoutheast2,
    VantagePoint::AfSouth1,
];

struct Sizes {
    rounds: usize,
    population: usize,
    dag_bytes: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes { rounds: 1, population: 200, dag_bytes: 2 * 1024 * 1024 }
    } else {
        Sizes { rounds: 2, population: 400, dag_bytes: 32 * 1024 * 1024 }
    }
}

struct Round {
    net: IpfsNetwork,
    /// Publisher first, then the fetchers.
    nodes: Vec<NodeId>,
    payload: Bytes,
    /// Root of the published DAG, once the round has run.
    root: Option<Cid>,
}

/// The per-round worlds and payloads. A world outlives its round:
/// `verify` re-reads the DAG from the last fetcher's store, outside the
/// timed region.
pub struct SwarmFetch {
    rounds: Vec<Round>,
}

/// The payload of one round: xorshift bytes with every chunk stamped with
/// round and chunk index, so no two chunks of a run share a CID.
pub fn payload(seed: u64, round: usize, len: usize) -> Bytes {
    let mut data = xorshift_bytes(len, splitmix64(seed ^ round as u64));
    for (i, chunk) in data.chunks_mut(CHUNK).enumerate() {
        if chunk.len() >= 16 {
            chunk[..8].copy_from_slice(&(round as u64).to_be_bytes());
            chunk[8..16].copy_from_slice(&(i as u64).to_be_bytes());
        }
    }
    Bytes::from(data)
}

/// Byte comparison of a re-read DAG against the payload that went in.
pub fn check_payload(round: usize, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "swarm_fetch: round {round} re-read {} bytes, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        Some(at) => Err(format!("swarm_fetch: round {round} differs at byte {at}")),
        None => Ok(()),
    }
}

impl Workload for SwarmFetch {
    const NAME: &'static str = "swarm_fetch";
    const OP: &'static str = "one whole-DAG fetch";

    fn sizes_json(quick: bool) -> String {
        let s = sizes(quick);
        format!(
            "{{\"rounds\": {}, \"population\": {}, \"dag_bytes\": {}, \"chunk_bytes\": {CHUNK}, \
             \"fetchers_per_round\": {FETCHERS}, \"ops\": {}}}",
            s.rounds,
            s.population,
            s.dag_bytes,
            s.rounds * FETCHERS
        )
    }

    fn setup(seed: u64, quick: bool, t: &mut Spans) -> SwarmFetch {
        let s = sizes(quick);
        let cfg = NetworkConfig {
            provider_records_carry_addrs: true,
            retriever_becomes_provider: true,
            ..Default::default()
        };
        let rounds = (0..s.rounds)
            .map(|round| {
                let world_seed = WORLD_SEED + round as u64;
                let pop = t.span("population_generate", 0, || {
                    Population::generate(
                        PopulationConfig {
                            size: s.population,
                            nat_fraction: 0.3,
                            horizon: SimDuration::from_hours(6),
                            ..Default::default()
                        },
                        world_seed,
                    )
                });
                let net = t.span("from_population", 0, || {
                    IpfsNetwork::from_population(&pop, &VANTAGES, cfg, world_seed)
                });
                let nodes = net.vantage_ids(VANTAGES.len());
                let payload = t.span("payload_generate", 0, || payload(seed, round, s.dag_bytes));
                Round { net, nodes, payload, root: None }
            })
            .collect();
        SwarmFetch { rounds }
    }

    fn run(&mut self, t: &mut Spans) -> Outcome {
        let (mut attempted, mut failed, mut events) = (0u64, 0u64, 0u64);
        let mut h = 0u64;
        let mut counts: Vec<(&'static str, f64)> = Vec::new();
        let mut op = 0u64;
        for Round { net, nodes, payload, root } in &mut self.rounds {
            let publisher = nodes[0];
            op += 1;
            let span = t.enter("op.publish", op);
            let cid = t.span("import_content", op, || net.import_content(publisher, payload));
            t.span("publish", op, || net.publish(publisher, cid.clone()));
            t.span("run_until_quiet", op, || net.run_until_quiet());
            t.exit(span);
            net.publish_reports.clear();

            for &fetcher in &nodes[1..] {
                op += 1;
                // Cold start: with warm connections the 1 s opportunistic
                // probe could short-cut the DHT walk + swarm fetch.
                t.span("reset", op, || net.disconnect_all(fetcher));
                let span = t.enter("op.retrieve", op);
                t.span("retrieve", op, || net.retrieve(fetcher, cid.clone()));
                t.span("run_until_quiet", op, || net.run_until_quiet());
                t.exit(span);
                attempted += 1;
                failed += net.retrieve_reports.drain(..).filter(|r| !r.success).count() as u64;
            }
            events += net.events_processed;
            h = digest(net.events_processed ^ h, &[net.metrics()]);
            // Layer counts of the last round stand for the rep: rounds
            // differ only in seed.
            counts = netsim_counts(net.metrics());
            *root = Some(cid);
        }
        Outcome { attempted, failed, events, digest: h, counts }
    }

    fn verify(&mut self, t: &mut Spans) -> Result<(), String> {
        for (round, Round { net, nodes, payload, root }) in self.rounds.iter_mut().enumerate() {
            let root = root.as_ref().ok_or("swarm_fetch: verify before run")?;
            let last_fetcher = *nodes.last().expect("a round has fetchers");
            let store = &mut net.node_mut(last_fetcher).store;
            let got = t
                .span("read_file", round as u64, || Resolver::new(store).read_file(root))
                .map_err(|e| format!("swarm_fetch: round {round} re-read failed: {e:?}"))?;
            check_payload(round, &got, payload)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_chunks_are_distinct_and_seeded() {
        let a = payload(1, 0, 4 * CHUNK);
        assert_eq!(a, payload(1, 0, 4 * CHUNK));
        assert_ne!(a, payload(2, 0, 4 * CHUNK));
        assert_ne!(a[..CHUNK], a[CHUNK..2 * CHUNK]);
        assert_ne!(a[..CHUNK], payload(1, 1, 4 * CHUNK)[..CHUNK]);
    }

    #[test]
    fn one_flipped_byte_fails_the_comparison() {
        let want = payload(3, 0, CHUNK);
        let mut got = want.to_vec();
        assert_eq!(check_payload(0, &got, &want), Ok(()));
        got[1000] ^= 1;
        assert_eq!(
            check_payload(0, &got, &want),
            Err("swarm_fetch: round 0 differs at byte 1000".to_string())
        );
        assert!(check_payload(0, &got[..CHUNK - 1], &want).is_err());
    }
}
