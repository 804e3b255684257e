//! Fault seams: scripted partitions, degraded links, dial-failure spikes
//! and crash waves from a [`FaultPlan`], applied at their exact virtual
//! instants. The oracle owns no randomness and the fault paths draw from
//! the engine RNG only while a fault is active, so fault-free runs stay
//! byte-identical.

use super::{IpfsNetwork, NetEvent, NodeId};
use crate::obs::names;
use faultsim::{FaultEvent, FaultOracle, FaultPlan};
use rand::Rng;
use simnet::latency::Region;
use simnet::{SimDuration, SimTime};

impl IpfsNetwork {
    /// Installs a scripted fault plan, replacing any previous one. Events
    /// whose instant has already passed apply at the next run call (the
    /// oracle clamps, it never time-travels). Same seed + same plan ⇒
    /// byte-identical run: the oracle owns no randomness, and the fault
    /// paths draw from the engine RNG only while faults are active.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultOracle::new(plan);
    }

    /// Read access to the active fault state (tests, harnesses).
    pub fn fault_oracle(&self) -> &FaultOracle {
        &self.faults
    }

    /// Whether `id` can act as a healthy gateway bridge right now: the
    /// node is online and at least one other region is reachable from its
    /// region (i.e. an active partition has not cut it off from the rest
    /// of the network). A fleet load balancer uses this to fail traffic
    /// over to surviving instances during a regional outage.
    pub fn bridge_healthy(&self, id: NodeId) -> bool {
        if !self.is_online(id) {
            return false;
        }
        if !self.faults.has_active_faults() {
            return true;
        }
        let r = self.nodes[id].region;
        Region::ALL.iter().any(|&other| other != r && !self.faults.blocked(r, other))
    }

    /// Applies the next scripted fault boundary if it comes no later than
    /// `limit` (when given) and no later than the next pending event.
    /// Returns whether one applied.
    pub(super) fn apply_next_fault(&mut self, limit: Option<SimTime>) -> bool {
        let Some(fault_at) = self.faults.next_at() else { return false };
        if limit.is_some_and(|l| fault_at > l)
            || self.queue.peek_time().is_some_and(|t| fault_at > t)
        {
            return false;
        }
        let now = self.queue.advance_to(fault_at);
        self.apply_due_faults(now);
        true
    }

    /// Applies every scripted fault event due at `now`: folds topology
    /// events into the oracle, executes crash waves, severs warm
    /// connections that a new partition cut, and meters everything.
    fn apply_due_faults(&mut self, now: SimTime) {
        let due = self.faults.take_due(now);
        for event in due {
            self.metrics.incr(match event.label() {
                "partition_start" => names::FAULT_PARTITION_STARTS,
                "partition_end" => names::FAULT_PARTITION_HEALS,
                "degrade_start" => names::FAULT_DEGRADE_STARTS,
                "degrade_end" => names::FAULT_DEGRADE_ENDS,
                "dial_fail_spike_start" => names::FAULT_DIAL_SPIKE_STARTS,
                "dial_fail_spike_end" => names::FAULT_DIAL_SPIKE_ENDS,
                _ => names::FAULT_CRASH_WAVES,
            });
            let new_partition = matches!(event, FaultEvent::PartitionStart { .. });
            if !self.faults.apply(&event) {
                // Node-scoped event the oracle hands back to the driver.
                match event {
                    FaultEvent::CrashWave { fraction, restart_after } => {
                        self.crash_wave(now, fraction, restart_after);
                    }
                    FaultEvent::CrashNodes { ids, restart_after } => {
                        self.crash_nodes(now, &ids, restart_after);
                    }
                    _ => {}
                }
            } else if new_partition {
                // A partition just came up: tear down every warm connection
                // now crossing it. Without this the 1 s Bitswap probe would
                // keep riding pre-partition connections straight across the
                // cut (the transport would have reset them).
                self.sever_partitioned_connections();
            }
        }
        self.metrics.set(names::FAULT_PARTITIONS_ACTIVE, self.faults.partitions_active() as u64);
    }

    /// Drops every warm connection whose endpoints an active partition now
    /// separates (both directions at once — the sets are symmetric).
    fn sever_partitioned_connections(&mut self) {
        let mut cut: Vec<(NodeId, NodeId)> = Vec::new();
        for a in 0..self.nodes.len() {
            let ra = self.nodes[a].region;
            for b in self.nodes[a].connections.peers() {
                if a < b && self.faults.blocked(ra, self.nodes[b].region) {
                    cut.push((a, b));
                }
            }
        }
        for (a, b) in cut {
            self.nodes[a].connections.remove(b);
            self.nodes[b].connections.remove(a);
            self.metrics.incr(names::FAULT_CONNS_SEVERED);
        }
    }

    /// Crashes a deterministic, seed-stable sample of the online
    /// population peers and schedules their restarts through the normal
    /// churn path (so recovery runs the join-time announcement).
    fn crash_wave(&mut self, now: SimTime, fraction: f64, restart_after: SimDuration) {
        let mut online: Vec<NodeId> = (0..self.crashable).filter(|&i| self.online[i]).collect();
        let count = ((online.len() as f64) * fraction).round() as usize;
        let count = count.min(online.len());
        // Partial Fisher–Yates: the first `count` slots become the victims.
        for k in 0..count {
            let j = self.rng.random_range(k..online.len());
            online.swap(k, j);
        }
        for &id in &online[..count] {
            self.crash(now, id, restart_after);
        }
    }

    /// Crashes the named nodes (targeted fault, e.g. a transfer's provider
    /// dying mid-DAG). No randomness: the scenario picked its victims.
    fn crash_nodes(&mut self, now: SimTime, ids: &[usize], restart_after: SimDuration) {
        for &id in ids {
            if id < self.nodes.len() && self.online[id] {
                self.crash(now, id, restart_after);
            }
        }
    }

    /// Takes `id` offline now and schedules its restart.
    fn crash(&mut self, now: SimTime, id: NodeId, restart_after: SimDuration) {
        self.on_churn(id, false);
        self.metrics.incr(names::FAULT_NODES_CRASHED);
        self.queue.schedule_at(now + restart_after, NetEvent::Churn { node: id, online: true });
    }

    /// Whether a message between two nodes dies at delivery time because a
    /// partition now separates them (covers messages already in flight
    /// when the partition started). Metered when it bites.
    pub(super) fn cut_in_flight(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.faults.has_active_faults() {
            return false;
        }
        let blocked = self.faults.blocked(self.nodes[a].region, self.nodes[b].region);
        if blocked {
            self.metrics.incr(names::FAULT_MESSAGES_CUT);
        }
        blocked
    }

    /// Whether an outbound message is lost to an active degradation on the
    /// path. Draws from the engine RNG only when a lossy window covers the
    /// path, so fault-free runs stay byte-identical.
    pub(super) fn degraded_loss(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.faults.has_active_faults() {
            return false;
        }
        let p = self.faults.loss_prob(self.nodes[a].region, self.nodes[b].region);
        if p > 0.0 && self.rng.random_range(0.0..1.0) < p {
            self.metrics.incr(names::FAULT_MESSAGES_LOST);
            return true;
        }
        false
    }
}
