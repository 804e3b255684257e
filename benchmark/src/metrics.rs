//! The metric vocabulary: every name the benchmark prints, declared once.
//!
//! `BENCHMARK.json` repeats these tables for the driver; a unit test keeps
//! the two equal, both ways.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        let base = base.abs().max(f64::MIN_POSITIVE);
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// An end-to-end metric: something a user of the simulator waits for or
/// runs out of.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload (medians over the
/// reps of a run; `peak_rss_mib` is the process's high-water mark).
///
/// The bounds are three times the widest run-to-run spread seen on the
/// 2-core box the benchmark was defined on (`README.md`, "Noise"): its
/// neighbours slow memory-bound work by ~10 % for minutes at a time, which
/// no statistic inside a 15-second run can remove.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "run_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Isolated timed loop over the layer's public functions.
    Probe,
    /// Benchmark-side span around a call during the traced reps.
    Span,
    /// Read from the program's exported counters / result structs.
    Count,
}

impl Kind {
    /// As printed beside a per-layer value.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Probe => "probe",
            Kind::Span => "span",
            Kind::Count => "count",
        }
    }
}

/// A per-layer metric. The layer is the name's first dotted component.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is measured.
    pub kind: Kind,
}

const fn probe(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, kind: Kind::Probe }
}
const fn span(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, kind: Kind::Span }
}
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, kind: Kind::Count }
}

use Better::{Higher, Lower};

/// Calls the benchmark makes into the layers, as span names. Each gets a
/// `span.<call>.self_share` metric; a call a workload never makes reads 0.
pub const CALLS: [&str; 17] = [
    "population_generate",
    "from_population",
    "payload_generate",
    "workload_generate",
    "install_catalog",
    "seed_provided",
    "shardsim_build",
    "import_content",
    "publish",
    "retrieve",
    "run_until_quiet",
    "run_until",
    "reset",
    "serve",
    "shardsim_run",
    "read_file",
    "drop",
];

/// Every per-layer metric of a traced run. A traced run of any workload
/// prints all of them: probes are workload-independent; span and count
/// metrics of calls or counters the workload never touches read 0.
pub const PER_LAYER: [PerLayer; 86] = [
    // -- multiformats ---------------------------------------------------
    probe("multiformats.sha256_block_mib_per_s", "MiB/s", Higher),
    probe("multiformats.sha256_key_per_s", "1/s", Higher),
    probe("multiformats.cid_codec_per_s", "1/s", Higher),
    // -- merkledag ------------------------------------------------------
    probe("merkledag.import_mib_per_s", "MiB/s", Higher),
    probe("merkledag.read_verify_mib_per_s", "MiB/s", Higher),
    probe("merkledag.store_bytes_per_payload_byte", "B/B", Lower),
    // -- simnet ---------------------------------------------------------
    probe("simnet.wheel_ops_per_s_10k", "1/s", Higher),
    probe("simnet.wheel_ops_per_s_1m", "1/s", Higher),
    probe("simnet.timer_cancel_per_s", "1/s", Higher),
    probe("simnet.sharded_relay_events_per_s", "1/s", Higher),
    probe("simnet.population_nodes_per_s", "1/s", Higher),
    // -- kademlia -------------------------------------------------------
    probe("kademlia.closest_per_s", "1/s", Higher),
    probe("kademlia.rt_insert_per_s", "1/s", Higher),
    probe("kademlia.handle_find_node_per_s", "1/s", Higher),
    probe("kademlia.walks_per_s", "1/s", Higher),
    probe("kademlia.store_add_per_s", "1/s", Higher),
    probe("kademlia.store_get_per_s", "1/s", Higher),
    probe("kademlia.store_expire_per_s", "1/s", Higher),
    probe("kademlia.store_bytes_per_record", "B", Lower),
    // -- bitswap --------------------------------------------------------
    probe("bitswap.loopback_mib_per_s", "MiB/s", Higher),
    probe("bitswap.loopback_msgs_per_block", "count", Lower),
    probe("bitswap.session_ops_per_s", "1/s", Higher),
    // -- netsim (ipfs-core) ---------------------------------------------
    probe("netsim.build_nodes_per_s", "1/s", Higher),
    probe("netsim.build_rss_kib_per_node", "KiB", Lower),
    probe("netsim.seed_record_per_s", "1/s", Higher),
    probe("netsim.connset_ops_per_s", "1/s", Higher),
    probe("netsim.addrbook_ops_per_s", "1/s", Higher),
    count("netsim.rpcs_per_walk", "count", Lower),
    count("netsim.dial_fail_share", "share", Lower),
    count("netsim.rpc_fail_share", "share", Lower),
    count("netsim.wants_per_block", "count", Lower),
    count("netsim.dup_block_share", "share", Lower),
    count("netsim.msgs_per_record", "count", Lower),
    count("netsim.records_resident", "count", Lower),
    // -- shardsim (ipfs-core) -------------------------------------------
    probe("shardsim.build_nodes_per_s", "1/s", Higher),
    probe("shardsim.events_per_s_shards1", "1/s", Higher),
    probe("shardsim.events_per_s_shards2", "1/s", Higher),
    probe("shardsim.parallel_speedup", "ratio", Higher),
    probe("shardsim.events_per_op", "count", Lower),
    probe("shardsim.rss_bytes_per_node", "B", Lower),
    count("shardsim.retrieve_miss_share", "share", Lower),
    count("shardsim.rpc_timeout_share", "share", Lower),
    count("shardsim.state_bytes_per_node", "B", Lower),
    // -- obs (ipfs-core) ------------------------------------------------
    probe("obs.counter_incr_per_s", "1/s", Higher),
    probe("obs.histogram_observe_per_s", "1/s", Higher),
    probe("obs.dtrace_overhead", "share", Lower),
    // -- gateway --------------------------------------------------------
    probe("gateway.lru_ops_per_s", "1/s", Higher),
    probe("gateway.tinylfu_ops_per_s", "1/s", Higher),
    probe("gateway.workload_gen_req_per_s", "1/s", Higher),
    probe("gateway.install_obj_per_s", "1/s", Higher),
    count("gateway.nginx_share", "share", Higher),
    count("gateway.node_store_share", "share", Higher),
    count("gateway.network_share", "share", Lower),
    count("gateway.evictions_per_kreq", "count", Lower),
    // -- the traced reps of the chosen workload -------------------------
    count("run.events_per_s", "1/s", Higher),
    count("run.events_per_op", "count", Lower),
    count("run.failed_share", "share", Lower),
    span("harness.trace_overhead", "share"),
    span("span.harness.self_share", "share"),
    span("span.population_generate.self_share", "share"),
    span("span.from_population.self_share", "share"),
    span("span.payload_generate.self_share", "share"),
    span("span.workload_generate.self_share", "share"),
    span("span.install_catalog.self_share", "share"),
    span("span.seed_provided.self_share", "share"),
    span("span.shardsim_build.self_share", "share"),
    span("span.import_content.self_share", "share"),
    span("span.publish.self_share", "share"),
    span("span.retrieve.self_share", "share"),
    span("span.run_until_quiet.self_share", "share"),
    span("span.run_until.self_share", "share"),
    span("span.reset.self_share", "share"),
    span("span.serve.self_share", "share"),
    span("span.shardsim_run.self_share", "share"),
    span("span.read_file.self_share", "share"),
    span("span.drop.self_share", "share"),
    // Wall-clock per op, from the op spans (n is printed beside them).
    span("op.publish.us_p50", "us"),
    span("op.publish.us_p95", "us"),
    span("op.retrieve.us_p50", "us"),
    span("op.retrieve.us_p99", "us"),
    span("op.serve.nginx.us_p50", "us"),
    span("op.serve.node_store.us_p50", "us"),
    span("op.serve.network.us_p50", "us"),
    span("op.serve.network.us_p99", "us"),
    span("op.cycle.ms_first", "ms"),
    span("op.cycle.ms_last", "ms"),
];

/// Seconds one run measures for (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The program and arguments the driver runs from the root of a checkout.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "ipfs-benchmark",
    "--",
];

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// binary cannot drift apart (`ipfs-benchmark manifest` prints it).
pub fn manifest_json() -> String {
    use crate::json::quote;
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads = crate::workloads::NAMES
        .iter()
        .zip(crate::workloads::WHY)
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// Whether `name` is a legal metric or workload name for the driver.
pub fn is_legal_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::NAMES)
        {
            assert!(is_legal_name(name), "illegal name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        assert!(!is_legal_name(".x") && !is_legal_name("a b") && !is_legal_name(""));
    }

    #[test]
    fn bounds_and_units_fit_the_contract() {
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let setup = END_TO_END[0].bound;
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup, "setup_s carries the largest bound");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_call_has_a_self_share_metric() {
        for call in CALLS {
            let name = format!("span.{call}.self_share");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worse_by(10.0, 9.0) < 0.0);
    }
}
