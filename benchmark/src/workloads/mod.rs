//! The five workloads. Each is a closed loop with one client in
//! wall-clock terms: the benchmark issues the next call into the program
//! only when the previous one returned, so there is no offered rate and no
//! backlog (arrival schedules exist in *virtual* time only).
//!
//! A workload is three steps the runner times separately: `setup`
//! (everything before the measured phase), `run` (a fixed amount of work)
//! and `verify` (output checks, untimed). One setup plus one run is a
//! *rep*; the same seed gives the same rep, bit for bit.

pub mod dht_perf;
pub mod gateway_day;
pub mod pdes_world;
pub mod reprovide_sweep;
pub mod swarm_fetch;

use crate::trace::Spans;
use ipfs_core::MetricsRegistry;

/// Names of the workloads, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] =
    ["dht_perf", "swarm_fetch", "gateway_day", "reprovide_sweep", "pdes_world"];

/// Why each workload exists, one line each (`BENCHMARK.json`'s `why`).
pub const WHY: [&str; 5] = [
    "control plane only: kademlia walks/routing/records, netsim dial and RPC dispatch and the \
     scheduler do the work; SHA-256, merkledag and bitswap do almost none",
    "data plane: SHA-256 over 256 KiB blocks, merkledag verify and bitswap sessions dominate, \
     DHT and scheduler are noise; the mirror image of dht_perf",
    "read path through cache tiers: most requests hit the nginx/node-store tiers and bypass the \
     DHT, misses take dht_perf's read path; set-up carries install_catalog",
    "the kademlia/netsim layers used for writes and expiry instead of reads: record-store adds, \
     expiry wheels, sweep regrouping; a read-side win must not cost here",
    "scale substrate: shardsim on the sharded engine, 2 shards on 2 threads, memory-lean; the \
     only workload that bypasses netsim and the only multi-threaded one",
];

/// Seed of every simulated world (population, churn schedules, routing
/// tables, gateway catalog). The world is part of a workload's definition,
/// like a database benchmark's data set; `--seed` draws the *operations*
/// run against it (object bytes and so the DHT keys walked, request
/// sequences, provided CIDs). A world property such as how stale the six
/// vantage nodes' routing tables start out moves `dht_perf`'s events per
/// op by ±4 %, which would drown the run-to-run spread the bounds rest on.
pub const WORLD_SEED: u64 = 2022;

/// What one measured phase did.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted (the op is defined per workload).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Simulator events the measured phase processed.
    pub events: u64,
    /// Fingerprint of the rep: events processed + FNV over the program's
    /// own counters. Two reps of one seed must agree on it.
    pub digest: u64,
    /// Layer counts read from the program's exported counters and result
    /// structs after the measured phase (name, value).
    pub counts: Vec<(&'static str, f64)>,
}

/// One workload.
pub trait Workload: Sized {
    /// Name as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// What one op is, for the report.
    const OP: &'static str;

    /// The sizes this workload runs at, as a JSON object (provenance).
    fn sizes_json(quick: bool) -> String;

    /// Builds everything the measured phase needs from `seed`.
    fn setup(seed: u64, quick: bool, t: &mut Spans) -> Self;

    /// The measured phase: a fixed amount of work.
    fn run(&mut self, t: &mut Spans) -> Outcome;

    /// Checks the program's outputs; `Err` names the first wrong one.
    fn verify(&mut self, t: &mut Spans) -> Result<(), String>;
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte stream, continuing from `h`.
pub fn fnv(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The rep digest: events processed, then every touched counter of the
/// given registries by name and value.
pub fn digest(events: u64, registries: &[&MetricsRegistry]) -> u64 {
    let mut h = fnv(FNV_BASIS, events.to_be_bytes());
    for reg in registries {
        for (name, value) in reg.counters() {
            h = fnv(h, name.bytes().chain(value.to_be_bytes()));
        }
    }
    h
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Deterministic non-repeating bytes (xorshift64): a uniform fill would
/// dedup every chunk of a DAG into one CID.
pub fn xorshift_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The netsim counters every netsim workload reports as layer counts.
pub fn netsim_counts(m: &MetricsRegistry) -> Vec<(&'static str, f64)> {
    use ipfs_core::obs::names as n;
    let walks = m.stats(n::DHT_WALK_RPCS);
    let blocks = m.get(n::BITSWAP_SESSION_BLOCKS_RECEIVED);
    let dups = m.get(n::BITSWAP_SESSION_DUP_BLOCKS);
    vec![
        ("netsim.rpcs_per_walk", walks.map_or(0.0, |s| s.mean)),
        ("netsim.dial_fail_share", ratio(m.get(n::DIALS_FAILED), m.get(n::DIALS_ATTEMPTED))),
        ("netsim.rpc_fail_share", {
            let failed = m.get(n::DHT_RPC_FAILED);
            ratio(failed, failed + m.get(n::DHT_RPC_OK))
        }),
        ("netsim.wants_per_block", ratio(m.get(n::BITSWAP_SESSION_WANTS_SENT), blocks)),
        ("netsim.dup_block_share", ratio(dups, blocks + dups)),
    ]
}
