//! Transport: dials over warm or fresh connections, one-way latency,
//! failed-dial delays (§6.1), the connection manager, DCUtR hole punching
//! (§3.1) and the AutoNAT dial-back probe (§2.3).

use super::obs_hooks::dial_class_kind;
use super::{IpfsNetwork, NodeId};
use crate::obs::{names, DialClass};
use crate::{AutonatState, AutonatVerdict};
use kademlia::behaviour::DhtMode;
use multiformats::PeerId;
use rand::Rng;
use simnet::latency::Region;
use simnet::{SimDuration, SimTime};

impl IpfsNetwork {
    /// Number of warm connections a node currently holds.
    pub fn connection_count(&self, id: NodeId) -> usize {
        self.nodes[id].connections.len()
    }

    /// Whether two nodes currently share a warm connection.
    pub fn is_connected(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[a].connections.contains(b)
    }

    /// Opens a warm connection between two nodes (no time charged; used
    /// for experiment setup, e.g. gateway neighbour sets).
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        let now = self.now();
        self.nodes[a].connections.insert(b, now);
        self.nodes[b].connections.insert(a, now);
        self.prune_connections(a);
        self.prune_connections(b);
    }

    /// Closes every connection of a node — the experiment reset of §4.3
    /// ("they disconnect to prevent the next retrieval operation being
    /// resolved through Bitswap").
    pub fn disconnect_all(&mut self, id: NodeId) {
        for p in self.nodes[id].connections.drain() {
            self.nodes[p].connections.remove(id);
        }
    }

    /// Forgets `peer` in `node`'s address book (experiment control: forces
    /// the second DHT walk the paper measures in Figure 9e).
    pub fn forget_address(&mut self, node: NodeId, peer: &PeerId) {
        self.nodes[node].node.addr_book.remove(peer);
    }

    /// Runs the AutoNAT probe for a node (§2.3): asks up to `probes`
    /// currently-online servers to dial back, then applies the verdict —
    /// more than three successful dial-backs upgrade a client to server;
    /// more than three failures keep it a client. Returns the verdict.
    /// (Instantaneous oracle of the dial-back exchange; the timing of
    /// AutoNAT is not part of any measured pipeline.)
    pub fn autonat_probe(&mut self, id: NodeId, probes: usize) -> AutonatVerdict {
        let mut state = AutonatState::new();
        // The node is dialable iff it is not NAT'ed (its `is_server`
        // ground truth) and currently online.
        let reachable = self.nodes[id].is_server && self.online[id];
        let helpers =
            (0..self.nodes.len()).filter(|&h| h != id && self.is_dialable(h)).take(probes).count();
        let mut verdict = AutonatVerdict::Undecided;
        for _ in 0..helpers {
            verdict = state.record(reachable);
            if verdict != AutonatVerdict::Undecided {
                break;
            }
        }
        match verdict {
            AutonatVerdict::Public => self.nodes[id].node.dht.set_mode(DhtMode::Server),
            AutonatVerdict::Private => self.nodes[id].node.dht.set_mode(DhtMode::Client),
            AutonatVerdict::Undecided => {}
        }
        verdict
    }

    /// Connection-manager pruning: drop least-recently-used connections
    /// beyond the cap.
    fn prune_connections(&mut self, id: NodeId) {
        while self.nodes[id].connections.len() > self.cfg.max_connections {
            let Some(v) = self.nodes[id].connections.lru() else { break };
            self.nodes[id].connections.remove(v);
            self.nodes[v].connections.remove(id);
            self.metrics.incr_handle(self.hot.conn_prunes);
        }
    }

    /// Tears down warm connections of `id` that have sat unused past the
    /// idle timeout (lazy sweep, run before the connection set is used).
    /// Walks the recency index oldest-first, so the cost is proportional
    /// to the number of expired connections, not the set size.
    pub(super) fn expire_idle_connections(&mut self, id: NodeId, now: SimTime) {
        let timeout = self.cfg.conn_idle_timeout;
        while let Some(peer) = self.nodes[id].connections.pop_idle(now, timeout) {
            self.nodes[peer].connections.remove(id);
            self.metrics.incr_handle(self.hot.conn_idle_expired);
        }
    }

    /// Attempts to dial `peer` from `from`: returns the target node id and
    /// the connection-establishment delay (zero over a warm connection,
    /// four latency legs for a fresh dial — TCP+TLS-style), or `None` if
    /// the peer is not dialable.
    pub(super) fn dial(&mut self, from: NodeId, peer: &PeerId) -> Option<(NodeId, SimDuration)> {
        let target = self.resolve(peer)?;
        self.metrics.incr_handle(self.hot.dials_attempted);
        if !self.online[target] {
            return None;
        }
        if self.faults.has_active_faults() {
            if self.faults.blocked(self.nodes[from].region, self.nodes[target].region) {
                // A warm connection across the cut is dead even if the
                // connection manager hasn't noticed: invalidate it so the
                // Bitswap probe can't reuse it either.
                if self.nodes[from].connections.remove(target) {
                    self.nodes[target].connections.remove(from);
                    self.metrics.incr(names::FAULT_CONNS_SEVERED);
                }
                self.metrics.incr(names::FAULT_DIALS_BLOCKED);
                return None;
            }
            let spike = self.faults.extra_dial_fail_prob();
            if spike > 0.0 && self.rng.random_range(0.0..1.0) < spike {
                self.metrics.incr(names::FAULT_DIALS_SPIKED);
                return None;
            }
        }
        if let Some(last_used) = self.nodes[from].connections.last_used(target) {
            let now = self.now();
            if now.since(last_used) > self.cfg.conn_idle_timeout {
                // The connection manager closed this idle connection long
                // ago; fall through to a fresh dial.
                self.nodes[from].connections.remove(target);
                self.nodes[target].connections.remove(from);
                self.metrics.incr_handle(self.hot.conn_idle_expired);
            } else {
                self.nodes[from].connections.insert(target, now);
                self.metrics.incr_handle(self.hot.dials_warm);
                return Some((target, SimDuration::ZERO));
            }
        }
        let extra_legs = if self.nodes[target].is_server {
            4 // SYN, SYN-ACK, TLS x2
        } else if self.cfg.enable_dcutr {
            // Hole punch through a relay (§3.1's DCUtR): relay signalling
            // plus the simultaneous-open attempt — roughly twice the legs
            // of a direct dial, and it only works sometimes.
            if self.rng.random_range(0.0..1.0) >= self.cfg.dcutr_success_rate {
                return None;
            }
            8
        } else {
            // NAT'ed peer without hole punching: not dialable (§3.1:
            // "peers behind NATs cannot host content themselves").
            return None;
        };
        let d = self.one_way(from, target) * extra_legs;
        let now = self.now();
        self.nodes[from].connections.insert(target, now);
        self.nodes[target].connections.insert(from, now);
        self.prune_connections(from);
        self.prune_connections(target);
        self.metrics.incr_handle(self.hot.dials_ok);
        Some((target, d))
    }

    /// Samples the one-way latency between two nodes, inflated by any
    /// active degradation on the path.
    pub(super) fn one_way(&mut self, a: NodeId, b: NodeId) -> SimDuration {
        let ra = self.nodes[a].region;
        let rb = self.nodes[b].region;
        let base = self.cfg.latency.sample_one_way(&mut self.rng, ra, rb);
        self.inflate_latency(base, ra, rb)
    }

    /// Applies any active degradation's latency multiplier to a sampled
    /// delay. No-op (and float-exact) when no window covers the path.
    pub(super) fn inflate_latency(&self, base: SimDuration, ra: Region, rb: Region) -> SimDuration {
        if !self.faults.has_active_faults() {
            return base;
        }
        let factor = self.faults.latency_factor(ra, rb);
        if factor > 1.0 {
            SimDuration::from_secs_f64(base.as_secs_f64() * factor)
        } else {
            base
        }
    }

    /// Samples the delay of a failed dial per the §6.1 timeout mix. A
    /// small positive overhead rides on top of each timer (address
    /// resolution, scheduler latency), so failures land just *past* the
    /// 5 s / 45 s marks like the spikes in Figure 9c. Returns the delay
    /// and its transport class, and meters the failure.
    pub(super) fn sample_fail_delay(&mut self) -> (SimDuration, DialClass) {
        let x: f64 = self.rng.random_range(0.0..1.0);
        let overhead = SimDuration::from_millis(self.rng.random_range(20..300));
        let t = &self.cfg.timeouts;
        let (delay, class) = if x < t.fast_refuse_share {
            (t.fast_refuse_delay + overhead, DialClass::FastRefuse)
        } else if x < t.fast_refuse_share + t.websocket_share {
            (t.websocket_timeout + overhead, DialClass::Websocket45s)
        } else {
            (t.dial_timeout + overhead, DialClass::Timeout5s)
        };
        self.metrics.incr_handle(self.hot.dials_failed);
        self.metrics.incr_handle(self.hot.dial_fail[dial_class_kind(class)]);
        (delay, class)
    }
}
