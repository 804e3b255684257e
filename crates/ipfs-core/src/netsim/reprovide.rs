//! Reprovide: keeping provider records alive past their 24 h expiry by
//! republishing every 12 h (§3.1) — per-CID timer chains, or one
//! keyspace-ordered sweep per node — and parking that work while the
//! provider is offline.

use super::lifecycle::OpState;
use super::{IpfsNetwork, NetEvent, NodeId};
use crate::config::REPROVIDE_BATCH_BITS;
use crate::obs::names;
use bytes::Bytes;
use kademlia::query::QueryTarget;
use kademlia::Key;
use merkledag::BlockStore;
use multiformats::Cid;
use simnet::{SimDuration, TimerId};

/// Lifecycle state of one provided CID on its providing node.
pub(super) struct ProvidedEntry {
    /// The CID itself (the map key is its DHT key).
    pub(super) cid: Cid,
    /// Armed per-CID republish timer (per-CID mode only; sweep mode
    /// leaves this `None` — the node-level sweep timer covers it).
    pub(super) timer: Option<TimerId>,
    /// Per-CID mode: the chain lapsed while the node was offline; the
    /// next rejoin re-announces this CID.
    pub(super) deferred: bool,
}

impl IpfsNetwork {
    /// Seeds `id` as the provider of `count` synthetic single-block CIDs
    /// (derived from `tag`) and arms the reprovide machinery for each —
    /// WITHOUT running the initial publication walks. Maintenance-bench
    /// setup: at catalog sizes of 10^5–10^6 CIDs, paying one full walk
    /// per CID just to set the stage would dwarf the steady-state
    /// reprovide traffic under measurement; the first republish cycle
    /// (per-CID chains or the keyspace sweep, per
    /// [`super::NetworkConfig::reprovide_sweep`]) places the records
    /// instead.
    pub fn seed_provided(&mut self, id: NodeId, tag: u64, count: usize) -> Vec<Cid> {
        assert!(self.cfg.auto_republish, "seed_provided requires auto_republish");
        let mut cids = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let mut payload = [0u8; 16];
            payload[..8].copy_from_slice(&tag.to_le_bytes());
            payload[8..].copy_from_slice(&i.to_le_bytes());
            let cid = Cid::from_raw_data(&payload);
            self.nodes[id].node.store.put(cid.clone(), Bytes::copy_from_slice(&payload));
            self.arm_reprovide(id, cid.clone());
            cids.push(cid);
        }
        cids
    }

    /// Registers `cid` in `id`'s provided set and arms whatever keeps it
    /// alive: in sweep mode the single per-node sweep timer (armed once,
    /// when the first CID arrives); in per-CID mode a dedicated republish
    /// timer chain. Republishing content that already has a pending timer
    /// replaces it instead of stacking chains.
    pub(super) fn arm_reprovide(&mut self, id: NodeId, cid: Cid) {
        let key = Key::from_cid(&cid);
        if self.cfg.reprovide_sweep {
            self.nodes[id]
                .provided
                .insert(key, ProvidedEntry { cid, timer: None, deferred: false });
            if self.nodes[id].sweep_timer.is_none() && !self.nodes[id].sweep_deferred {
                let timer = self.queue.schedule_cancellable(
                    self.cfg.node.republish_interval,
                    NetEvent::ReprovideSweep { node: id },
                );
                self.nodes[id].sweep_timer = Some(timer);
            }
        } else {
            if let Some(old) = self.nodes[id].provided.get_mut(&key).and_then(|e| e.timer.take()) {
                self.queue.cancel(old);
            }
            let timer = self.queue.schedule_cancellable(
                self.cfg.node.republish_interval,
                NetEvent::Republish { node: id, cid: cid.clone() },
            );
            self.nodes[id]
                .provided
                .insert(key, ProvidedEntry { cid, timer: Some(timer), deferred: false });
        }
    }

    /// A per-CID republish timer fires: the firing consumes its chain
    /// entry, and a silent publish re-arms it.
    pub(super) fn on_republish(&mut self, node: NodeId, cid: Cid) {
        let key = Key::from_cid(&cid);
        self.nodes[node].provided.remove(&key);
        if !self.nodes[node].node.store.has(&cid) {
            // Unpinned since the timer was armed: the chain ends.
        } else if self.online[node] {
            self.metrics.incr(names::PROVIDER_REPUBLISHES);
            self.publish_inner(node, cid, true);
        } else {
            // Raced with a churn-offline between scheduling and
            // dispatch: park the chain instead of dropping it.
            self.metrics.incr(names::PROVIDER_REPUBLISH_DEFERRED);
            self.nodes[node]
                .provided
                .insert(key, ProvidedEntry { cid, timer: None, deferred: true });
        }
    }

    /// The keyspace-ordered reprovide sweep: walks `id`'s provided CIDs in
    /// DHT-key order, groups them into keyspace neighborhoods by the top
    /// [`REPROVIDE_BATCH_BITS`] bits of their key,
    /// and runs one Closest walk per non-empty neighborhood, storing the
    /// whole group with batched ADD_PROVIDER RPCs — one walk + k messages
    /// per *neighborhood* instead of per CID. This is the maintenance loop
    /// go-ipfs's accelerated DHT client uses to survive million-record
    /// reprovides (§3.1's 12 h cycle).
    pub(super) fn run_reprovide_sweep(&mut self, id: NodeId) {
        self.nodes[id].sweep_timer = None;
        if !self.online[id] {
            // Raced with a churn-offline between scheduling and dispatch:
            // park the sweep; rejoin runs it immediately.
            self.nodes[id].sweep_deferred = true;
            self.metrics.incr(names::PROVIDER_REPUBLISH_DEFERRED);
            return;
        }
        // Unpinned CIDs leave the provided set; their records age out.
        let sim = &mut self.nodes[id];
        let store = &sim.node.store;
        sim.provided.retain(|_, e| store.has(&e.cid));
        let kept = sim.provided.len() as u64;
        if kept == 0 {
            return; // nothing provided: the sweep chain ends here
        }
        self.metrics.incr(names::PROVIDER_SWEEP_RUNS);
        self.metrics.add(names::PROVIDER_SWEEP_CIDS, kept);
        // Kept comparable across modes: one "republish" per maintained CID
        // per cycle, however the messages are amortized.
        self.metrics.add(names::PROVIDER_REPUBLISHES, kept);
        // Group by keyspace prefix. BTreeMap iteration hands over the keys
        // already sorted, so each group is a contiguous, ordered run.
        let mut batches: Vec<Vec<Key>> = Vec::new();
        let mut last_prefix: Option<u16> = None;
        for key in sim.provided.keys() {
            let wide = u16::from_be_bytes([key.0[0], key.0[1]]);
            let prefix = wide >> (16 - REPROVIDE_BATCH_BITS);
            if last_prefix != Some(prefix) {
                last_prefix = Some(prefix);
                batches.push(Vec::new());
            }
            batches.last_mut().unwrap().push(*key);
        }
        for keys in batches {
            let first_key = keys[0];
            self.metrics.incr(names::PROVIDER_SWEEP_BATCHES);
            let op = self.new_op();
            self.ops
                .insert(op, OpState::SweepBatch { node: id, keys: keys.into(), outstanding: 0 });
            self.tracer.start_op(op, id);
            // One walk toward the neighborhood's first key serves every
            // CID in the batch: within a 2^-bits slice of the keyspace,
            // the k closest peers are (to good approximation) shared.
            self.start_walk(id, op, first_key, QueryTarget::Closest);
        }
        // Re-arm: one timer maintains the whole provided set.
        let timer = self.queue.schedule_cancellable(
            self.cfg.node.republish_interval,
            NetEvent::ReprovideSweep { node: id },
        );
        self.nodes[id].sweep_timer = Some(timer);
    }

    /// Resumes reprovide work parked while `id` was offline. go-ipfs
    /// reprovides on startup, so parked content reannounces immediately
    /// instead of waiting out a full interval.
    pub(super) fn resume_reprovide(&mut self, id: NodeId) {
        if self.nodes[id].sweep_deferred {
            self.nodes[id].sweep_deferred = false;
            self.metrics.incr(names::PROVIDER_REPUBLISH_RESUMED);
            let timer = self
                .queue
                .schedule_cancellable(SimDuration::ZERO, NetEvent::ReprovideSweep { node: id });
            self.nodes[id].sweep_timer = Some(timer);
        }
        // Per-CID chains: each deferred entry re-announces now. BTreeMap
        // order keeps the event-scheduling order (and thus the RNG stream)
        // deterministic.
        let mut deferred = Vec::new();
        for entry in self.nodes[id].provided.values_mut() {
            if entry.deferred {
                entry.deferred = false;
                deferred.push(entry.cid.clone());
            }
        }
        for cid in deferred {
            self.metrics.incr(names::PROVIDER_REPUBLISH_RESUMED);
            self.queue.schedule(SimDuration::ZERO, NetEvent::Republish { node: id, cid });
        }
    }

    /// Parks a departing node's reprovide work: the sweep timer or every
    /// per-CID chain is cancelled and marked deferred for the rejoin.
    pub(super) fn park_reprovide(&mut self, id: NodeId) {
        if let Some(t) = self.nodes[id].sweep_timer.take() {
            self.queue.cancel(t);
            self.nodes[id].sweep_deferred = true;
            self.metrics.incr(names::PROVIDER_REPUBLISH_DEFERRED);
        }
        let mut parked = 0u64;
        for entry in self.nodes[id].provided.values_mut() {
            if let Some(timer) = entry.timer.take() {
                self.queue.cancel(timer);
                entry.deferred = true;
                parked += 1;
            }
        }
        self.metrics.add(names::PROVIDER_REPUBLISH_DEFERRED, parked);
    }
}
