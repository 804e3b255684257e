//! `pdes_world` — the scale substrate.
//!
//! A large lean world on `simnet::ShardedEngine` through `shardsim`, two
//! shards on two workers: the only multi-threaded workload, and the only
//! one that never touches `netsim`. Memory-lean by design.

use super::{fnv, ratio, Outcome, Workload, FNV_BASIS};
use crate::trace::Spans;
use ipfs_core::{ShardSim, ShardSimConfig, ShardSimResult};
use simnet::SimDuration;

/// Region shards and worker threads (the box has two cores).
const SHARDS: usize = 2;

struct Sizes {
    nodes: usize,
    virtual_secs: u64,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes { nodes: 4_000, virtual_secs: 10 }
    } else {
        Sizes { nodes: 120_000, virtual_secs: 80 }
    }
}

/// The built cell and, after `run`, its result.
pub struct PdesWorld {
    sim: ShardSim,
    result: Option<ShardSimResult>,
}

/// The `shardsim` configuration for one seed.
pub fn config(seed: u64, quick: bool, shards: usize) -> ShardSimConfig {
    let s = sizes(quick);
    ShardSimConfig {
        nodes: s.nodes,
        shards,
        workers: Some(shards),
        seed,
        duration: SimDuration::from_secs(s.virtual_secs),
        ops_per_tick: 8,
        ..Default::default()
    }
}

/// Completed walks of a result: the op of this workload. A retrieval
/// that ends without a provider record (`retrieve_miss`) is a completed
/// walk with the answer "not found" — the cell asks for keys nobody
/// published about as often as not — so it counts as done, not failed,
/// and its share is reported as a layer count.
pub fn walks(r: &ShardSimResult) -> u64 {
    r.counter("publish_done") + r.counter("retrieve_done") + r.counter("retrieve_miss")
}

impl Workload for PdesWorld {
    const NAME: &'static str = "pdes_world";
    const OP: &'static str = "one completed DHT walk (publish or retrieve)";

    fn sizes_json(quick: bool) -> String {
        let s = sizes(quick);
        format!(
            "{{\"nodes\": {}, \"virtual_secs\": {}, \"ops_per_tick\": 8, \"shards\": {SHARDS}, \
             \"workers\": {SHARDS}}}",
            s.nodes, s.virtual_secs
        )
    }

    fn setup(seed: u64, quick: bool, t: &mut Spans) -> PdesWorld {
        let cfg = config(seed, quick, SHARDS);
        let sim = t.span("shardsim_build", 0, || ShardSim::build(&cfg));
        PdesWorld { sim, result: None }
    }

    fn run(&mut self, t: &mut Spans) -> Outcome {
        let r = t.span("shardsim_run", 1, || self.sim.run());
        let attempted = walks(&r);
        let h =
            fnv(r.order_fnv, r.events.to_be_bytes().into_iter().chain(r.metrics_fnv.to_be_bytes()));
        let out = Outcome {
            attempted,
            failed: 0,
            events: r.events,
            digest: h,
            counts: vec![
                ("shardsim.retrieve_miss_share", ratio(r.counter("retrieve_miss"), attempted)),
                (
                    "shardsim.rpc_timeout_share",
                    ratio(r.counter("rpc_timeout"), r.counter("rpc_sent")),
                ),
                ("shardsim.state_bytes_per_node", r.bytes_per_node as f64),
            ],
        };
        self.result = Some(r);
        out
    }

    fn verify(&mut self, _t: &mut Spans) -> Result<(), String> {
        let r = self.result.as_ref().ok_or("pdes_world: verify before run")?;
        // The counters the result carries must be the ones it digested,
        // and no walk may finish that never started (a publication walk
        // starts from a tick or from a reprovide sweep).
        let recomputed = r.counters.iter().fold(FNV_BASIS, |h, (_, v)| fnv(h, v.to_le_bytes()));
        if recomputed != r.metrics_fnv {
            return Err(format!(
                "pdes_world: counters hash to {recomputed:016x}, result says {:016x}",
                r.metrics_fnv
            ));
        }
        let finished_retrieves = r.counter("retrieve_done") + r.counter("retrieve_miss");
        let started_publishes = r.counter("publish_start") + r.counter("sweep_republish");
        if r.counter("publish_done") > started_publishes
            || finished_retrieves > r.counter("retrieve_start")
        {
            return Err("pdes_world: more walks finished than started".into());
        }
        if r.events == 0 || walks(r) == 0 {
            return Err("pdes_world: the cell dispatched no events or completed no walk".into());
        }
        Ok(())
    }
}
