//! Observability hooks: the metric handles the per-event hot path bumps,
//! the kind indexes into them, and the glue between the simulation's ops
//! and the trace recorder (causal contexts, re-route fragments, the
//! public trace and metrics accessors).

use super::lifecycle::OpState;
use super::{IpfsNetwork, NodeId};
use crate::obs::dtrace::{self, SpanFragment, TraceCtx};
use crate::obs::span::SpanTree;
use crate::obs::{
    names, CounterHandle, DialClass, HistogramHandle, MetricsRegistry, OpTrace, TraceConfig,
    TraceLevel,
};
use crate::ops::{OpId, RetrievePhase};
use bitswap::{EngineOutput, Message};
use kademlia::rpc::Request;
use multiformats::{Cid, PeerId};
use simnet::SimTime;

/// Index of a DHT RPC type into the [`HotMetrics`] RPC counter arrays.
pub(super) fn request_kind(request: &Request) -> usize {
    match request {
        Request::FindNode { .. } => 0,
        Request::GetProviders { .. } => 1,
        Request::AddProvider { .. } => 2,
        Request::PutPeerRecord { .. } => 3,
        Request::PutValue { .. } => 4,
        Request::GetValue { .. } => 5,
        Request::AddProviderBatch { .. } => 6,
    }
}

/// Index of a Bitswap message type into the [`HotMetrics`] counter arrays.
pub(super) fn bitswap_kind(message: &Message) -> usize {
    match message {
        Message::WantHave(_) => 0,
        Message::Have(_) => 1,
        Message::DontHave(_) => 2,
        Message::WantBlock(_) => 3,
        Message::Block { .. } => 4,
        Message::Cancel(_) => 5,
    }
}

/// Index of a dial-failure class into [`HotMetrics::dial_fail`].
pub(super) fn dial_class_kind(class: DialClass) -> usize {
    match class {
        DialClass::FastRefuse => 0,
        DialClass::Timeout5s => 1,
        DialClass::Websocket45s => 2,
    }
}

/// The first eight bytes of a CID's DHT key, big-endian — a compact,
/// deterministic identifier for naming a want in flight-recorder lines.
fn cid_low64(cid: &Cid) -> u64 {
    let key = cid.dht_key();
    u64::from_be_bytes(key[..8].try_into().unwrap())
}

/// Dense metric handles for everything the per-event hot path touches,
/// resolved once at [`IpfsNetwork::from_population`] from [`names`]
/// constants. Bumping through a handle is a bounds-checked array write —
/// no string hashing or tree walk per event. Cold paths (reports, fault
/// bookkeeping, per-operation counters) keep using the string-keyed API.
pub(super) struct HotMetrics {
    /// Outbound DHT RPCs by [`request_kind`].
    pub(super) rpc_sent: [CounterHandle; 7],
    /// Inbound DHT RPCs by [`request_kind`].
    pub(super) rpc_recv: [CounterHandle; 7],
    /// Outbound Bitswap messages by [`bitswap_kind`].
    pub(super) bitswap_sent: [CounterHandle; 6],
    /// Delivered Bitswap messages by [`bitswap_kind`].
    pub(super) bitswap_recv: [CounterHandle; 6],
    /// Failed dials by [`dial_class_kind`].
    pub(super) dial_fail: [CounterHandle; 3],
    pub(super) dht_rpc_ok: CounterHandle,
    pub(super) dht_rpc_failed: CounterHandle,
    pub(super) dials_attempted: CounterHandle,
    pub(super) dials_warm: CounterHandle,
    pub(super) dials_ok: CounterHandle,
    pub(super) dials_failed: CounterHandle,
    pub(super) conn_idle_expired: CounterHandle,
    pub(super) conn_prunes: CounterHandle,
    pub(super) provider_records_stored: CounterHandle,
    pub(super) churn_online: CounterHandle,
    pub(super) churn_offline: CounterHandle,
    pub(super) dht_walk_rpcs: HistogramHandle,
    /// Blocks received and verified by client sessions.
    pub(super) session_blocks_received: CounterHandle,
    /// Duplicate blocks attributed to client sessions.
    pub(super) session_dup_blocks: CounterHandle,
    /// WANT-BLOCKs issued by client sessions (added at op completion).
    pub(super) session_wants_sent: CounterHandle,
    /// Re-routed wants after a renege/crash (added at op completion).
    pub(super) session_reroutes: CounterHandle,
    /// Per-peer WANT-BLOCK→BLOCK latency in ms.
    pub(super) peer_latency_ms: HistogramHandle,
}

impl HotMetrics {
    pub(super) fn resolve(m: &mut MetricsRegistry) -> HotMetrics {
        let c = |m: &mut MetricsRegistry, name| m.counter_handle(name);
        HotMetrics {
            rpc_sent: [
                c(m, names::DHT_RPC_SENT_FIND_NODE),
                c(m, names::DHT_RPC_SENT_GET_PROVIDERS),
                c(m, names::DHT_RPC_SENT_ADD_PROVIDER),
                c(m, names::DHT_RPC_SENT_PUT_PEER_RECORD),
                c(m, names::DHT_RPC_SENT_PUT_VALUE),
                c(m, names::DHT_RPC_SENT_GET_VALUE),
                c(m, names::DHT_RPC_SENT_ADD_PROVIDER_BATCH),
            ],
            rpc_recv: [
                c(m, names::DHT_RPC_RECV_FIND_NODE),
                c(m, names::DHT_RPC_RECV_GET_PROVIDERS),
                c(m, names::DHT_RPC_RECV_ADD_PROVIDER),
                c(m, names::DHT_RPC_RECV_PUT_PEER_RECORD),
                c(m, names::DHT_RPC_RECV_PUT_VALUE),
                c(m, names::DHT_RPC_RECV_GET_VALUE),
                c(m, names::DHT_RPC_RECV_ADD_PROVIDER_BATCH),
            ],
            bitswap_sent: [
                c(m, names::BITSWAP_SENT_WANT_HAVE),
                c(m, names::BITSWAP_SENT_HAVE),
                c(m, names::BITSWAP_SENT_DONT_HAVE),
                c(m, names::BITSWAP_SENT_WANT_BLOCK),
                c(m, names::BITSWAP_SENT_BLOCK),
                c(m, names::BITSWAP_SENT_CANCEL),
            ],
            bitswap_recv: [
                c(m, names::BITSWAP_RECV_WANT_HAVE),
                c(m, names::BITSWAP_RECV_HAVE),
                c(m, names::BITSWAP_RECV_DONT_HAVE),
                c(m, names::BITSWAP_RECV_WANT_BLOCK),
                c(m, names::BITSWAP_RECV_BLOCK),
                c(m, names::BITSWAP_RECV_CANCEL),
            ],
            dial_fail: [
                c(m, DialClass::FastRefuse.metric()),
                c(m, DialClass::Timeout5s.metric()),
                c(m, DialClass::Websocket45s.metric()),
            ],
            dht_rpc_ok: c(m, names::DHT_RPC_OK),
            dht_rpc_failed: c(m, names::DHT_RPC_FAILED),
            dials_attempted: c(m, names::DIALS_ATTEMPTED),
            dials_warm: c(m, names::DIALS_WARM),
            dials_ok: c(m, names::DIALS_OK),
            dials_failed: c(m, names::DIALS_FAILED),
            conn_idle_expired: c(m, names::CONN_IDLE_EXPIRED),
            conn_prunes: c(m, names::CONN_PRUNES),
            provider_records_stored: c(m, names::PROVIDER_RECORDS_STORED),
            churn_online: c(m, names::CHURN_ONLINE),
            churn_offline: c(m, names::CHURN_OFFLINE),
            dht_walk_rpcs: m.histogram_handle(names::DHT_WALK_RPCS),
            session_blocks_received: c(m, names::BITSWAP_SESSION_BLOCKS_RECEIVED),
            session_dup_blocks: c(m, names::BITSWAP_SESSION_DUP_BLOCKS),
            session_wants_sent: c(m, names::BITSWAP_SESSION_WANTS_SENT),
            session_reroutes: c(m, names::BITSWAP_SESSION_REROUTES),
            // Per-peer transfer latencies are high-volume and only read as
            // percentiles: streaming buckets bound the footprint at a
            // ≤2.5% relative error instead of retaining every sample.
            peer_latency_ms: m.histogram_handle_streaming(names::BITSWAP_PEER_LATENCY_MS),
        }
    }
}

impl IpfsNetwork {
    /// Read access to the run's accumulated metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the run's metrics (experiments fold their own
    /// counters in alongside the simulator's).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Sets what the tracer records from now on; ops started earlier stay
    /// untraced. Already-collected traces are kept.
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        self.tracer.set_config(config);
    }

    /// The trace collected for an operation (tracing must have been
    /// enabled before the operation started).
    pub fn trace(&self, op: OpId) -> Option<&OpTrace> {
        self.tracer.trace(op)
    }

    /// Removes and returns the trace collected for an operation; the
    /// tracer keeps nothing of the op afterwards.
    pub fn take_trace(&mut self, op: OpId) -> Option<OpTrace> {
        self.tracer.take(op)
    }

    /// Former name of [`IpfsNetwork::set_trace_config`].
    pub fn set_dtrace(&mut self, cfg: TraceConfig) {
        self.set_trace_config(cfg);
    }

    /// The remote span fragments collected so far (record order).
    pub fn dtrace_fragments(&self) -> &[SpanFragment] {
        self.tracer.fragments()
    }

    /// Stitches an op's requester-side trace (taken or not) with every
    /// remote fragment its trace id produced, yielding one distributed
    /// [`SpanTree`].
    pub fn stitched_trace(&self, trace: &OpTrace) -> Option<SpanTree> {
        dtrace::stitch(trace, self.tracer.fragments())
    }

    /// Removes and returns every rendered flight-recorder post-mortem, in
    /// op-completion order (deterministic: completion is simulation
    /// order).
    pub fn drain_postmortems(&mut self) -> Vec<(OpId, String)> {
        self.tracer.drain_postmortems()
    }

    /// Records a gateway-side span (serve, bridge, fetch tiers) into an
    /// op's distributed trace, parented at the op root. The gateway layer
    /// sits above the simulator, so it reports its spans through this
    /// hook instead of carrying a [`TraceCtx`] of its own.
    pub fn record_gateway_span(
        &mut self,
        op: OpId,
        gateway_node: NodeId,
        detail: &'static str,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        let Some(origin) = self.tracer.origin(op) else { return };
        let tid = dtrace::trace_id(origin, op);
        let ctx = TraceCtx { trace_id: tid, parent_span: dtrace::root_span(tid) };
        self.tracer.record_span(ctx, gateway_node, None, "gw", detail, bytes, 0, start, end);
    }

    /// The node id a trace event names for `peer` (`usize::MAX` when the
    /// peer is not part of the network).
    pub(super) fn trace_peer(&self, peer: &PeerId) -> NodeId {
        self.resolve(peer).unwrap_or(usize::MAX)
    }

    /// The causal context of an op's current activity: trace id from the
    /// op's identity, parent span from its active retrieval phase (the op
    /// root for non-retrieve ops or ops already finalized). Returns
    /// [`TraceCtx::NONE`] below [`TraceLevel::Stitch`], so the disabled
    /// path costs one branch and carries zeroes.
    pub(super) fn op_ctx(&self, node: NodeId, op: OpId) -> TraceCtx {
        if !self.tracer.records(TraceLevel::Stitch) {
            return TraceCtx::NONE;
        }
        let tid = dtrace::trace_id(node, op);
        let parent = match self.ops.get(&op) {
            Some(OpState::Retrieve { phase, .. }) => {
                let label = match phase {
                    RetrievePhase::BitswapProbe => "bitswap_probe",
                    RetrievePhase::ProviderWalk => "provider_walk",
                    RetrievePhase::PeerWalk => "peer_walk",
                    RetrievePhase::Fetch => "fetch",
                };
                dtrace::phase_span(tid, label)
            }
            _ => dtrace::root_span(tid),
        };
        TraceCtx { trace_id: tid, parent_span: parent }
    }

    /// Records the causal trail of a mid-fetch peer loss: one
    /// `bs:reroute` fragment per want re-sent to a surviving candidate
    /// and one `bs:want_failed` per want with nowhere left to go. `b`
    /// carries the dead node's id so post-mortems can name the lost peer.
    pub(super) fn record_reroute_fragments(
        &mut self,
        op: OpId,
        node: NodeId,
        dead: NodeId,
        outputs: &[EngineOutput],
        now: SimTime,
    ) {
        let tid = dtrace::trace_id(node, op);
        let ctx = TraceCtx { trace_id: tid, parent_span: dtrace::root_span(tid) };
        for out in outputs {
            let (target, detail, cid) = match out {
                EngineOutput::Send { to, message: Message::WantBlock(cid) } => {
                    (self.resolve(to), "reroute", cid)
                }
                EngineOutput::WantFailed { cid, .. } => (None, "want_failed", cid),
                _ => continue,
            };
            let want = cid_low64(cid);
            self.tracer.record_span(ctx, node, target, "bs", detail, want, dead as u64, now, now);
        }
    }
}
