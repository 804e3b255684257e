//! Cross-node causal tracing and the crash flight recorder.
//!
//! The per-op [`super::Tracer`] only sees what the *requesting* node
//! observes: a remote peer's handler time, uplink queueing, or mid-fetch
//! re-routing collapses into an opaque RPC or fetch span. This module adds
//! the distributed half:
//!
//! * [`TraceCtx`] — a 16-byte `(trace_id, parent_span)` pair carried on
//!   simulated messages (kademlia RPCs, Bitswap WANT/BLOCK traffic). Both
//!   ids are **derived deterministically** from the operation's
//!   `(origin node, op sequence)` — never from randomness — so any two
//!   runs of the same seed produce the same ids at any worker/shard
//!   count.
//! * [`SpanFragment`] — a fixed-size, `Copy`, allocation-free record of
//!   one remote-side span (server handler time, BLOCK serve with uplink
//!   queue wait, a re-routed want, a gateway serve tier), written by the
//!   node where the work happened.
//! * [`DtraceSink`] — per-node storage: a bounded [`FlightRing`] of the
//!   most recent fragments (always on, one fixed buffer per active node)
//!   plus an unbounded collection vector used for stitching when
//!   [`DtraceConfig::collect`] is set.
//! * [`stitch`] — joins the requester's [`OpTrace`] with every fragment
//!   of the op's trace id into one distributed
//!   [`SpanTree`](super::span::SpanTree). Stitching sorts fragments by a
//!   total order first, so the result is byte-identical regardless of the
//!   order fragments were gathered in (shards, job counts, shuffles).
//! * [`render_postmortem`] — the flight-recorder dump: the causal trail
//!   of one op across every node that touched it, rendered when the op
//!   fails, breaches a deadline, or saw a mid-fetch re-route.
//!
//! Span-id scheme (all through [`span_id`], a splitmix64 mix):
//!
//! | id                      | derivation                                |
//! |-------------------------|-------------------------------------------|
//! | `trace_id`              | splitmix64(origin node, op seq), nonzero  |
//! | root span               | `span_id(tid, ROOT, 0)`                   |
//! | phase span              | `span_id(tid, PHASE, fnv1a(label))`       |
//! | requester RPC span      | `span_id(tid, RPC, nth RpcSent of op)`    |
//! | requester dial span     | `span_id(tid, DIAL, nth DialStarted)`     |
//! | remote fragment         | `span_id(tid, FRAGMENT, node«32 | seq)`   |
//!
//! The requester side of the scheme is reconstructible from the op's
//! trace alone (the stitcher counts `RpcSent` events the same way the
//! sender numbered them), so no id ever needs to travel backwards.

use super::span::{Span, SpanTree};
use super::{OpTrace, TraceEventKind};
use crate::ops::OpId;
use simnet::mix::{fnv1a, splitmix64, FNV_BASIS};
use simnet::{SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Sentinel for "no counterpart node" in [`SpanFragment::peer`].
pub const NO_PEER: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Deterministic ids
// ---------------------------------------------------------------------------

/// Span-id domains, so ids from different derivations can never collide
/// structurally.
pub mod domain {
    /// The op's root span.
    pub const ROOT: u64 = 1;
    /// A pipeline-phase span (keyed by the phase label).
    pub const PHASE: u64 = 2;
    /// A requester-side RPC span (keyed by per-op send index).
    pub const RPC: u64 = 3;
    /// A remote-side fragment (keyed by recording node and sequence).
    pub const FRAGMENT: u64 = 4;
    /// A requester-side dial span (keyed by per-op dial index).
    pub const DIAL: u64 = 5;
}

/// The op's deterministic trace id: mixed from `(origin node, op
/// sequence)`, never zero (zero means "no trace").
pub fn trace_id(node: usize, op: OpId) -> u64 {
    splitmix64(((node as u64 + 1) << 32) ^ op.0.wrapping_add(1)) | 1
}

/// Derives a span id inside `tid` from a domain and a qualifier. Never
/// zero.
pub fn span_id(tid: u64, domain: u64, q: u64) -> u64 {
    splitmix64(tid ^ domain.rotate_left(56) ^ splitmix64(q)) | 1
}

/// The root span id of a trace.
pub fn root_span(tid: u64) -> u64 {
    span_id(tid, domain::ROOT, 0)
}

/// The span id of the phase named `label` within a trace.
pub fn phase_span(tid: u64, label: &str) -> u64 {
    span_id(tid, domain::PHASE, fnv1a(FNV_BASIS, label.as_bytes()))
}

/// The span id of the requester's `seq`-th `RpcSent` (0-based, counted
/// over the whole op in event order).
pub fn rpc_span(tid: u64, seq: u32) -> u64 {
    span_id(tid, domain::RPC, seq as u64)
}

/// The span id of a remote fragment recorded by `node` with per-node
/// sequence `seq`.
pub fn fragment_span(tid: u64, node: usize, seq: u32) -> u64 {
    span_id(tid, domain::FRAGMENT, ((node as u64) << 32) | seq as u64)
}

// ---------------------------------------------------------------------------
// Trace context carried on messages
// ---------------------------------------------------------------------------

/// The causal context a simulated message carries: which trace it belongs
/// to and which span on the sender caused it. 16 bytes, `Copy`, and
/// all-zero when tracing is off — carrying it costs nothing beyond the
/// event's size budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The op's trace id ([`trace_id`]); zero when untraced.
    pub trace_id: u64,
    /// The sender-side span this message is causally part of.
    pub parent_span: u64,
}

impl TraceCtx {
    /// The untraced context.
    pub const NONE: TraceCtx = TraceCtx { trace_id: 0, parent_span: 0 };

    /// Whether this context carries no trace.
    pub fn is_none(self) -> bool {
        self.trace_id == 0
    }
}

// ---------------------------------------------------------------------------
// Span fragments and the flight recorder
// ---------------------------------------------------------------------------

/// One remote-side span, recorded by the node where the work happened.
/// Fixed-size and `Copy`: labels are `&'static str`, identities are
/// numeric, details ride in two untyped `u64`s interpreted per label —
/// recording one never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanFragment {
    /// Trace this fragment belongs to (zero = untraced ring-only entry).
    pub trace_id: u64,
    /// This fragment's own span id ([`fragment_span`]).
    pub span_id: u64,
    /// The sender-side span that caused the work (from the message's
    /// [`TraceCtx`]).
    pub parent: u64,
    /// Node that recorded the fragment.
    pub node: u32,
    /// Counterpart node ([`NO_PEER`] if not applicable).
    pub peer: u32,
    /// Fragment family ("srv", "bs", "gw").
    pub label: &'static str,
    /// Fragment kind within the family ("FIND_NODE", "block_serve",
    /// "reroute", ...).
    pub detail: &'static str,
    /// First detail word (per label: closer-peer count, payload bytes,
    /// low 64 bits of the want's DHT key, ...).
    pub a: u64,
    /// Second detail word (per label: queue-wait nanoseconds, the lost
    /// peer's node id, ...).
    pub b: u64,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Per-node record sequence (monotonic, used for tie-breaking).
    pub seq: u32,
}

impl SpanFragment {
    /// Stitched-tree label: `family:kind@n<node>`, e.g.
    /// `srv:FIND_NODE@n12` or `bs:block_serve@n7`.
    pub fn span_label(&self) -> String {
        if self.detail.is_empty() {
            format!("{}@n{}", self.label, self.node)
        } else {
            format!("{}:{}@n{}", self.label, self.detail, self.node)
        }
    }
}

/// A bounded ring of the most recent [`SpanFragment`]s one node recorded.
/// The buffer is allocated once (at the configured capacity) on the
/// node's first record and then overwritten in place, so steady-state
/// recording is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FlightRing {
    buf: Vec<SpanFragment>,
    next: usize,
    seq: u32,
}

impl FlightRing {
    /// Takes the next per-node fragment sequence number.
    pub fn take_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq = self.seq.wrapping_add(1);
        s
    }

    /// Records a fragment, overwriting the oldest once `cap` is reached.
    pub fn push(&mut self, cap: usize, frag: SpanFragment) {
        if cap == 0 {
            return;
        }
        if self.buf.len() < cap {
            if self.buf.capacity() < cap {
                self.buf.reserve_exact(cap - self.buf.capacity());
            }
            self.buf.push(frag);
        } else {
            self.buf[self.next % cap] = frag;
        }
        self.next = (self.next + 1) % cap;
    }

    /// Iterates the retained fragments (insertion order is not
    /// meaningful; consumers sort).
    pub fn iter(&self) -> impl Iterator<Item = &SpanFragment> {
        self.buf.iter()
    }

    /// Number of retained fragments.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Switches for distributed-trace collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtraceConfig {
    /// Keep every traced fragment for stitching (unbounded vector).
    pub collect: bool,
    /// Render flight-recorder post-mortems when an op fails, breaches
    /// `deadline`, or saw a mid-fetch re-route.
    pub postmortem: bool,
    /// Deadline whose breach triggers a post-mortem (in addition to
    /// failure and re-route triggers).
    pub deadline: Option<SimDuration>,
    /// Per-node flight-ring capacity (fragments). The ring records
    /// regardless of `collect`/`postmortem`; zero disables it.
    pub ring_cap: usize,
}

impl Default for DtraceConfig {
    fn default() -> Self {
        DtraceConfig { collect: false, postmortem: false, deadline: None, ring_cap: 64 }
    }
}

impl DtraceConfig {
    /// Collection on (for stitched traces), post-mortems off.
    pub fn collecting() -> Self {
        DtraceConfig { collect: true, ..Default::default() }
    }

    /// Post-mortems on with an optional deadline trigger.
    pub fn postmortems(deadline: Option<SimDuration>) -> Self {
        DtraceConfig { postmortem: true, deadline, ..Default::default() }
    }

    /// Both collection and post-mortems.
    pub fn full(deadline: Option<SimDuration>) -> Self {
        DtraceConfig { collect: true, postmortem: true, deadline, ..Default::default() }
    }
}

/// Per-network distributed-trace storage: one [`FlightRing`] per node,
/// the stitching collection, and the per-op bookkeeping the context
/// derivation needs (RPC send counters, op origins, re-route flags).
#[derive(Debug, Clone, Default)]
pub struct DtraceSink {
    cfg: DtraceConfig,
    rings: Vec<FlightRing>,
    fragments: Vec<SpanFragment>,
    rpc_seq: HashMap<u64, u32>,
    op_node: HashMap<u64, usize>,
    flagged: BTreeSet<u64>,
}

impl DtraceSink {
    /// A sink with rings for `nodes` nodes (buffers allocate lazily).
    pub fn new(nodes: usize) -> Self {
        DtraceSink { rings: vec![FlightRing::default(); nodes], ..Default::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> DtraceConfig {
        self.cfg
    }

    /// Replaces the configuration. Already-collected fragments are kept.
    pub fn set_config(&mut self, cfg: DtraceConfig) {
        self.cfg = cfg;
    }

    /// Whether any op-level bookkeeping (collection or post-mortems) is
    /// on.
    pub fn active(&self) -> bool {
        self.cfg.collect || self.cfg.postmortem
    }

    /// Records one remote-side span on `node`: always into the node's
    /// flight ring, and into the stitching collection when collecting a
    /// real trace.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &mut self,
        tid: u64,
        parent: u64,
        node: usize,
        peer: Option<usize>,
        label: &'static str,
        detail: &'static str,
        a: u64,
        b: u64,
        start: SimTime,
        end: SimTime,
    ) {
        if node >= self.rings.len() {
            self.rings.resize(node + 1, FlightRing::default());
        }
        let ring = &mut self.rings[node];
        let seq = ring.take_seq();
        let frag = SpanFragment {
            trace_id: tid,
            span_id: fragment_span(tid, node, seq),
            parent,
            node: node as u32,
            peer: peer.map(|p| p as u32).unwrap_or(NO_PEER),
            label,
            detail,
            a,
            b,
            start,
            end,
            seq,
        };
        ring.push(self.cfg.ring_cap, frag);
        if self.cfg.collect && tid != 0 {
            self.fragments.push(frag);
        }
    }

    /// Every fragment collected for stitching, in record order.
    pub fn fragments(&self) -> &[SpanFragment] {
        &self.fragments
    }

    /// Drops the stitching collection (rings are untouched).
    pub fn clear_fragments(&mut self) {
        self.fragments.clear();
    }

    /// Gathers the flight-ring entries of one trace across every node.
    pub fn ring_entries_for(&self, tid: u64) -> Vec<SpanFragment> {
        if tid == 0 {
            return Vec::new();
        }
        self.rings
            .iter()
            .flat_map(FlightRing::iter)
            .filter(|f| f.trace_id == tid)
            .copied()
            .collect()
    }

    /// Registers an op's origin node (needed to re-derive its trace id
    /// after the op state is gone). No-op unless the sink is active.
    pub fn note_op(&mut self, op: OpId, node: usize) {
        if self.active() {
            self.op_node.insert(op.0, node);
        }
    }

    /// The origin node registered for `op`, if any.
    pub fn op_node(&self, op: OpId) -> Option<usize> {
        self.op_node.get(&op.0).copied()
    }

    /// Takes the next per-op RPC send index (numbers `RpcSent` events the
    /// same way the stitcher counts them).
    pub fn next_rpc_seq(&mut self, op: OpId) -> u32 {
        let e = self.rpc_seq.entry(op.0).or_insert(0);
        let s = *e;
        *e += 1;
        s
    }

    /// Flags `op` for a post-mortem (e.g. a mid-fetch re-route was
    /// observed). No-op unless the sink is active.
    pub fn flag(&mut self, op: OpId) {
        if self.active() {
            self.flagged.insert(op.0);
        }
    }

    /// Whether `op` was flagged.
    pub fn is_flagged(&self, op: OpId) -> bool {
        self.flagged.contains(&op.0)
    }

    /// Releases the per-op counters once the op has finished (its origin
    /// registration is kept so late stitching still works).
    pub fn finish_op(&mut self, op: OpId) {
        self.rpc_seq.remove(&op.0);
        self.flagged.remove(&op.0);
    }
}

// ---------------------------------------------------------------------------
// Stitching
// ---------------------------------------------------------------------------

/// Arena node used while assembling the distributed tree.
struct ArenaNode {
    label: String,
    start: SimTime,
    end: SimTime,
    children: Vec<usize>,
}

/// Joins a requester-side trace with the remote fragments of the same
/// trace id into one distributed [`SpanTree`]. Returns `None` for an
/// empty trace.
///
/// The requester skeleton mirrors
/// [`SpanTree::from_trace`](super::span::SpanTree::from_trace) exactly
/// (same pairing and clamping rules), but additionally assigns every
/// skeleton span its deterministic id so fragments can find their
/// parents. Fragments are sorted by `(start, end, node, seq, span_id)`
/// before attachment and children are re-sorted at materialization, so
/// the output is independent of the order fragments arrive in.
pub fn stitch(
    node: usize,
    op: OpId,
    trace: &OpTrace,
    fragments: &[SpanFragment],
) -> Option<SpanTree> {
    let tid = trace_id(node, op);
    let events = &trace.events;
    let first = events.first()?;
    let start = first.at;
    let end = events
        .iter()
        .find(|e| matches!(e.kind, TraceEventKind::OpFinished { .. }))
        .map(|e| e.at)
        .unwrap_or_else(|| events.last().map(|e| e.at).unwrap_or(start));
    let end = end.max(start);
    let op_label = events
        .iter()
        .find_map(|e| match e.kind {
            TraceEventKind::OpStarted { kind } => Some(kind),
            _ => None,
        })
        .unwrap_or("op");

    let mut nodes: Vec<ArenaNode> = Vec::new();
    let mut parent_of: Vec<Option<usize>> = Vec::new();
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    let push = |nodes: &mut Vec<ArenaNode>,
                parent_of: &mut Vec<Option<usize>>,
                index: &mut HashMap<u64, Vec<usize>>,
                id: u64,
                parent: Option<usize>,
                label: String,
                s: SimTime,
                e: SimTime| {
        let idx = nodes.len();
        nodes.push(ArenaNode { label, start: s, end: e, children: Vec::new() });
        parent_of.push(parent);
        if let Some(p) = parent {
            nodes[p].children.push(idx);
        }
        index.entry(id).or_default().push(idx);
        idx
    };

    let root = push(
        &mut nodes,
        &mut parent_of,
        &mut index,
        root_span(tid),
        None,
        op_label.to_string(),
        start,
        end,
    );

    // Requester skeleton: phases tile the op; RPC and dial spans pair the
    // same way `SpanTree::from_trace` pairs them, while a global counter
    // assigns each `RpcSent` the send index the network numbered it with.
    let bounds: Vec<(usize, SimTime, &'static str)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            TraceEventKind::PhaseEntered { phase } => Some((i, e.at, phase)),
            _ => None,
        })
        .collect();
    let mut rpc_seq: u32 = 0;
    let mut dial_seq: u32 = 0;
    for (pi, &(idx, at, phase)) in bounds.iter().enumerate() {
        let (next_idx, phase_end) = match bounds.get(pi + 1) {
            Some(&(ni, na, _)) => (ni, na),
            None => (events.len(), end),
        };
        let phase_end = phase_end.max(at);
        let pnode = push(
            &mut nodes,
            &mut parent_of,
            &mut index,
            phase_span(tid, phase),
            Some(root),
            phase.to_string(),
            at,
            phase_end,
        );
        let mut claimed = vec![false; events.len()];
        for i in idx..next_idx {
            match events[i].kind {
                TraceEventKind::RpcSent { kind, peer } => {
                    let matched = (i + 1..next_idx).find(|&j| {
                        !claimed[j]
                            && matches!(
                                events[j].kind,
                                TraceEventKind::RpcOk { peer: p }
                                | TraceEventKind::RpcFailed { peer: p } if p == peer
                            )
                    });
                    let child_end = match matched {
                        Some(j) => {
                            claimed[j] = true;
                            events[j].at
                        }
                        None => phase_end,
                    };
                    push(
                        &mut nodes,
                        &mut parent_of,
                        &mut index,
                        rpc_span(tid, rpc_seq),
                        Some(pnode),
                        format!("rpc:{kind}"),
                        events[i].at,
                        child_end,
                    );
                    rpc_seq += 1;
                }
                TraceEventKind::DialStarted { peer } => {
                    let matched = (i + 1..events.len()).find(|&j| {
                        !claimed[j]
                            && matches!(
                                events[j].kind,
                                TraceEventKind::DialCompleted { peer: p }
                                | TraceEventKind::DialFailed { peer: p, .. } if p == peer
                            )
                    });
                    let child_end = match matched {
                        Some(j) => {
                            claimed[j] = true;
                            events[j].at
                        }
                        None => phase_end,
                    };
                    push(
                        &mut nodes,
                        &mut parent_of,
                        &mut index,
                        span_id(tid, domain::DIAL, dial_seq as u64),
                        Some(pnode),
                        "dial".to_string(),
                        events[i].at,
                        child_end,
                    );
                    dial_seq += 1;
                }
                _ => {}
            }
        }
    }

    // Fragment attachment, order-insensitively: total-order sort, dedup
    // by span id, insert all arena nodes, then link parents (so a child
    // sorting before its equal-start parent still finds it).
    let mut frags: Vec<SpanFragment> =
        fragments.iter().filter(|f| f.trace_id == tid).copied().collect();
    frags.sort_by_key(|f| (f.start, f.end, f.node, f.seq, f.span_id));
    let mut seen: HashSet<u64> = HashSet::with_capacity(frags.len());
    frags.retain(|f| seen.insert(f.span_id));
    let mut fidx = Vec::with_capacity(frags.len());
    for f in &frags {
        let i = push(
            &mut nodes,
            &mut parent_of,
            &mut index,
            f.span_id,
            None,
            f.span_label(),
            f.start,
            f.end,
        );
        fidx.push(i);
    }
    for (f, &i) in frags.iter().zip(&fidx) {
        let target = locate(&nodes, &index, f.parent, f.start)
            .filter(|&p| !reaches(&parent_of, p, i))
            .unwrap_or(root);
        parent_of[i] = Some(target);
        nodes[target].children.push(i);
    }

    Some(SpanTree { root: materialize(&nodes, root, start, end) })
}

/// Picks the arena node carrying span id `id` best matching time `at`:
/// prefer an interval containing `at`, else the latest one starting at or
/// before `at`, else the first registered.
fn locate(
    nodes: &[ArenaNode],
    index: &HashMap<u64, Vec<usize>>,
    id: u64,
    at: SimTime,
) -> Option<usize> {
    let cands = index.get(&id)?;
    if let Some(&i) = cands.iter().find(|&&i| nodes[i].start <= at && at <= nodes[i].end) {
        return Some(i);
    }
    cands
        .iter()
        .copied()
        .filter(|&i| nodes[i].start <= at)
        .max_by_key(|&i| nodes[i].start)
        .or_else(|| cands.first().copied())
}

/// Whether following parent links from `from` reaches `target` (cycle
/// guard for malformed fragment sets).
fn reaches(parent_of: &[Option<usize>], mut from: usize, target: usize) -> bool {
    loop {
        if from == target {
            return true;
        }
        match parent_of[from] {
            Some(p) => from = p,
            None => return false,
        }
    }
}

/// Recursively materializes an arena node into a [`Span`], sorting
/// children by `(start, end, label)` and clamping them into the parent.
fn materialize(nodes: &[ArenaNode], i: usize, pstart: SimTime, pend: SimTime) -> Span {
    let n = &nodes[i];
    let s = n.start.max(pstart).min(pend);
    let e = n.end.clamp(s, pend);
    let mut kids = n.children.clone();
    kids.sort_by(|&a, &b| {
        (nodes[a].start, nodes[a].end, nodes[a].label.as_str()).cmp(&(
            nodes[b].start,
            nodes[b].end,
            nodes[b].label.as_str(),
        ))
    });
    Span {
        label: n.label.clone(),
        start: s,
        end: e,
        children: kids.into_iter().map(|k| materialize(nodes, k, s, e)).collect(),
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Serialises a span tree as nested JSON objects
/// (`{"label", "start_us", "end_us", "children": [...]}`).
pub fn span_tree_json(tree: &SpanTree) -> String {
    fn rec(s: &Span, out: &mut String) {
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"start_us\":{},\"end_us\":{},\"children\":[",
            s.label,
            s.start.as_nanos() / 1_000,
            s.end.as_nanos() / 1_000
        ));
        for (i, c) in s.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            rec(c, out);
        }
        out.push_str("]}");
    }
    let mut out = String::new();
    rec(&tree.root, &mut out);
    out
}

/// One exported trace exemplar: metadata, the distributed critical path,
/// and the full stitched tree.
pub fn exemplar_json(cell: &str, op: OpId, tree: &SpanTree) -> String {
    let path = tree.critical_path();
    let hops: Vec<String> = path
        .iter()
        .map(|h| {
            format!(
                "{{\"label\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                h.label,
                h.start.as_nanos() / 1_000,
                h.end.as_nanos() / 1_000
            )
        })
        .collect();
    format!(
        "{{\"cell\":\"{}\",\"op\":{},\"duration_us\":{},\"critical_path_us\":{},\"critical_path\":[{}],\"tree\":{}}}",
        cell,
        op.0,
        tree.duration().as_nanos() / 1_000,
        tree.critical_path_duration().as_nanos() / 1_000,
        hops.join(","),
        span_tree_json(tree)
    )
}

/// Renders a flight-recorder post-mortem: the op's identity and outcome,
/// the peers it lost mid-op, and every retained fragment in causal
/// order. `entries` come from [`DtraceSink::ring_entries_for`].
pub fn render_postmortem(
    op: OpId,
    origin: usize,
    kind: &str,
    outcome: &str,
    t0: SimTime,
    end: SimTime,
    entries: &[SpanFragment],
) -> String {
    let mut es: Vec<SpanFragment> = entries.to_vec();
    es.sort_by_key(|f| (f.start, f.node, f.seq));
    let mut out = format!(
        "post-mortem op={} origin=n{} kind={} outcome={} dur_us={}\n",
        op.0,
        origin,
        kind,
        outcome,
        end.since(t0).as_nanos() / 1_000
    );
    let mut lost: Vec<u64> = es
        .iter()
        .filter(|f| f.detail == "reroute" || f.detail == "want_failed")
        .map(|f| f.b)
        .collect();
    lost.sort_unstable();
    lost.dedup();
    if !lost.is_empty() {
        let names: Vec<String> = lost.iter().map(|n| format!("n{n}")).collect();
        out.push_str(&format!("  peers lost mid-op: {}\n", names.join(" ")));
    }
    for f in &es {
        let dt = f.start.max(t0).since(t0).as_nanos() / 1_000;
        let line = match (f.label, f.detail) {
            ("srv", d) => format!(
                "  +{dt}us n{} srv:{d} from=n{} dur_us={} closer={}",
                f.node,
                f.peer,
                f.end.since(f.start).as_nanos() / 1_000,
                f.a
            ),
            ("bs", "block_serve") => format!(
                "  +{dt}us n{} bs:block_serve to=n{} bytes={} queue_us={}",
                f.node,
                f.peer,
                f.a,
                f.b / 1_000
            ),
            ("bs", "reroute") => format!(
                "  +{dt}us n{} bs:reroute want={:016x} -> n{} (lost n{})",
                f.node, f.a, f.peer, f.b
            ),
            ("bs", "want_failed") => {
                format!("  +{dt}us n{} bs:want_failed want={:016x} (lost n{})", f.node, f.a, f.b)
            }
            ("gw", d) => format!(
                "  +{dt}us n{} gw:{d} dur_us={}",
                f.node,
                f.end.since(f.start).as_nanos() / 1_000
            ),
            (l, d) => format!("  +{dt}us n{} {l}:{d} a={} b={}", f.node, f.a, f.b),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceEvent;
    use proptest::prelude::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn ev(ms: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { at: at(ms), kind }
    }

    /// The §3.2 retrieval trace from the span-tree tests: probe 1 s,
    /// provider walk 400 ms (2 RPCs), peer walk 300 ms, fetch 500 ms.
    fn retrieval_trace() -> OpTrace {
        OpTrace {
            events: vec![
                ev(0, TraceEventKind::OpStarted { kind: "retrieve" }),
                ev(0, TraceEventKind::PhaseEntered { phase: "bitswap_probe" }),
                ev(1000, TraceEventKind::PhaseEntered { phase: "provider_walk" }),
                ev(1000, TraceEventKind::RpcSent { kind: "GET_PROVIDERS", peer: 4 }),
                ev(1150, TraceEventKind::RpcOk { peer: 4 }),
                ev(1150, TraceEventKind::RpcSent { kind: "GET_PROVIDERS", peer: 9 }),
                ev(1400, TraceEventKind::RpcOk { peer: 9 }),
                ev(1400, TraceEventKind::PhaseEntered { phase: "peer_walk" }),
                ev(1450, TraceEventKind::RpcSent { kind: "FIND_NODE", peer: 2 }),
                ev(1700, TraceEventKind::RpcFailed { peer: 2 }),
                ev(1700, TraceEventKind::PhaseEntered { phase: "fetch" }),
                ev(1700, TraceEventKind::DialStarted { peer: 7 }),
                ev(1820, TraceEventKind::DialCompleted { peer: 7 }),
                ev(2200, TraceEventKind::OpFinished { success: true }),
            ],
        }
    }

    /// Fragments a remote-side recording of the same op would produce:
    /// handler spans inside both GET_PROVIDERS RPCs and a BLOCK serve
    /// inside the fetch phase.
    fn remote_fragments(tid: u64) -> Vec<SpanFragment> {
        let mk = |node: usize, seq: u32, parent, peer, detail, a, b, s, e| SpanFragment {
            trace_id: tid,
            span_id: fragment_span(tid, node, seq),
            parent,
            node: node as u32,
            peer,
            label: if detail == "block_serve" { "bs" } else { "srv" },
            detail,
            a,
            b,
            start: at(s),
            end: at(e),
            seq,
        };
        vec![
            mk(4, 0, rpc_span(tid, 0), 0, "GET_PROVIDERS", 12, 0, 1070, 1080),
            mk(9, 0, rpc_span(tid, 1), 0, "GET_PROVIDERS", 8, 0, 1270, 1280),
            mk(7, 0, phase_span(tid, "fetch"), 0, "block_serve", 262_144, 2_000_000, 1900, 2100),
        ]
    }

    fn labels_of(span: &Span) -> Vec<String> {
        let mut out = vec![span.label.clone()];
        for c in &span.children {
            out.extend(labels_of(c));
        }
        out
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = trace_id(7, OpId(42));
        let b = trace_id(7, OpId(42));
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(trace_id(7, OpId(43)), a);
        assert_ne!(trace_id(8, OpId(42)), a);
        for d in [domain::ROOT, domain::PHASE, domain::RPC, domain::FRAGMENT, domain::DIAL] {
            assert_ne!(span_id(a, d, 0), 0);
        }
        assert_ne!(rpc_span(a, 0), rpc_span(a, 1));
        assert_ne!(phase_span(a, "fetch"), phase_span(a, "bitswap_probe"));
    }

    #[test]
    fn flight_ring_is_bounded_and_overwrites_oldest() {
        let mut ring = FlightRing::default();
        let frag = |i: u32| SpanFragment {
            trace_id: 1,
            span_id: i as u64 + 1,
            parent: 0,
            node: 0,
            peer: NO_PEER,
            label: "srv",
            detail: "",
            a: i as u64,
            b: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            seq: i,
        };
        for i in 0..10 {
            let s = ring.take_seq();
            assert_eq!(s, i);
            ring.push(4, frag(i));
        }
        assert_eq!(ring.len(), 4);
        let kept: Vec<u64> = {
            let mut v: Vec<u64> = ring.iter().map(|f| f.a).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest entries overwritten");
        // Zero capacity records nothing.
        let mut off = FlightRing::default();
        off.push(0, frag(0));
        assert!(off.is_empty());
    }

    #[test]
    fn sink_routes_fragments_by_config() {
        let mut sink = DtraceSink::new(2);
        // Default config: ring only.
        sink.record_span(5, 9, 0, Some(1), "srv", "FIND_NODE", 3, 0, at(0), at(1));
        assert!(sink.fragments().is_empty());
        assert_eq!(sink.ring_entries_for(5).len(), 1);
        // Collecting: fragments retained; untraced (tid 0) ones are not.
        sink.set_config(DtraceConfig::collecting());
        sink.record_span(5, 9, 1, None, "srv", "FIND_NODE", 3, 0, at(1), at(2));
        sink.record_span(0, 0, 1, None, "srv", "FIND_NODE", 3, 0, at(2), at(3));
        assert_eq!(sink.fragments().len(), 1);
        assert_eq!(sink.ring_entries_for(5).len(), 2);
        // Per-op bookkeeping requires an active config.
        sink.note_op(OpId(1), 7);
        assert_eq!(sink.op_node(OpId(1)), Some(7));
        sink.flag(OpId(1));
        assert!(sink.is_flagged(OpId(1)));
        sink.finish_op(OpId(1));
        assert!(!sink.is_flagged(OpId(1)));
        assert_eq!(sink.op_node(OpId(1)), Some(7), "origin survives finish for late stitching");
        assert_eq!(sink.next_rpc_seq(OpId(2)), 0);
        assert_eq!(sink.next_rpc_seq(OpId(2)), 1);
    }

    #[test]
    fn stitch_attaches_remote_spans_under_their_causes() {
        let trace = retrieval_trace();
        let tid = trace_id(3, OpId(11));
        let frags = remote_fragments(tid);
        let tree = stitch(3, OpId(11), &trace, &frags).unwrap();
        let labels = labels_of(&tree.root);
        assert!(labels.contains(&"srv:GET_PROVIDERS@n4".to_string()), "{labels:?}");
        assert!(labels.contains(&"srv:GET_PROVIDERS@n9".to_string()), "{labels:?}");
        assert!(labels.contains(&"bs:block_serve@n7".to_string()), "{labels:?}");
        // The handler span sits inside the RPC span that caused it.
        let walk = &tree.root.children[1];
        assert_eq!(walk.label, "provider_walk");
        let rpc0 = &walk.children[0];
        assert_eq!(rpc0.label, "rpc:GET_PROVIDERS");
        assert_eq!(rpc0.children.len(), 1);
        assert_eq!(rpc0.children[0].label, "srv:GET_PROVIDERS@n4");
        // The BLOCK serve sits inside the fetch phase.
        let fetch = tree.root.children.iter().find(|c| c.label == "fetch").unwrap();
        assert!(fetch.children.iter().any(|c| c.label == "bs:block_serve@n7"));
        // Critical-path discipline carries over to the stitched tree.
        assert!(tree.critical_path_duration() <= tree.duration());
        let path = tree.critical_path();
        for pair in path.windows(2) {
            assert!(pair[0].end <= pair[1].start, "hops overlap: {path:?}");
        }
        // The distributed path descends into the remote serve span.
        assert!(path.iter().any(|h| h.label.contains("@n")), "remote hop on the path: {path:?}");
    }

    #[test]
    fn stitch_without_fragments_matches_local_tree_shape() {
        let trace = retrieval_trace();
        let local = crate::obs::span::SpanTree::from_trace(&trace).unwrap();
        let stitched = stitch(0, OpId(0), &trace, &[]).unwrap();
        assert_eq!(local, stitched, "no fragments → identical to the local tree");
    }

    #[test]
    fn orphan_fragments_fall_back_to_the_root() {
        let trace = retrieval_trace();
        let tid = trace_id(1, OpId(2));
        let orphan = SpanFragment {
            trace_id: tid,
            span_id: fragment_span(tid, 5, 0),
            parent: 0xDEAD_BEEF, // unknown parent span
            node: 5,
            peer: NO_PEER,
            label: "gw",
            detail: "serve",
            a: 0,
            b: 0,
            start: at(100),
            end: at(200),
            seq: 0,
        };
        let tree = stitch(1, OpId(2), &trace, &[orphan]).unwrap();
        assert!(tree.root.children.iter().any(|c| c.label == "gw:serve@n5"));
        // Fragments of other traces are ignored entirely.
        let foreign = SpanFragment { trace_id: tid ^ 2, ..orphan };
        let tree2 = stitch(1, OpId(2), &trace, &[foreign]).unwrap();
        assert!(!labels_of(&tree2.root).iter().any(|l| l.contains("gw")));
    }

    #[test]
    fn exemplar_json_is_well_formed() {
        let trace = retrieval_trace();
        let tid = trace_id(3, OpId(11));
        let tree = stitch(3, OpId(11), &trace, &remote_fragments(tid)).unwrap();
        let json = exemplar_json("smoke/EU", OpId(11), &tree);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cell\":\"smoke/EU\""));
        assert!(json.contains("\"op\":11"));
        assert!(json.contains("\"critical_path\":["));
        assert!(json.contains("srv:GET_PROVIDERS@n4"));
        assert!(json.contains("\"duration_us\":2200000"));
    }

    #[test]
    fn postmortem_names_lost_peers_and_rerouted_wants() {
        let tid = trace_id(7, OpId(3));
        let reroute = SpanFragment {
            trace_id: tid,
            span_id: fragment_span(tid, 7, 0),
            parent: phase_span(tid, "fetch"),
            node: 7,
            peer: 11,
            label: "bs",
            detail: "reroute",
            a: 0xABCD,
            b: 42,
            start: at(10),
            end: at(10),
            seq: 0,
        };
        let failed = SpanFragment {
            span_id: fragment_span(tid, 7, 1),
            peer: NO_PEER,
            detail: "want_failed",
            a: 0xEF01,
            seq: 1,
            ..reroute
        };
        let text =
            render_postmortem(OpId(3), 7, "retrieve", "failed", at(0), at(20), &[failed, reroute]);
        assert!(text.starts_with("post-mortem op=3 origin=n7 kind=retrieve outcome=failed"));
        assert!(text.contains("peers lost mid-op: n42"), "{text}");
        assert!(text.contains("bs:reroute want=000000000000abcd -> n11 (lost n42)"), "{text}");
        assert!(text.contains("bs:want_failed want=000000000000ef01 (lost n42)"), "{text}");
        // Rendering is order-insensitive (entries are sorted internally).
        let swapped =
            render_postmortem(OpId(3), 7, "retrieve", "failed", at(0), at(20), &[reroute, failed]);
        assert_eq!(text, swapped);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Stitching a shuffled fragment set reproduces the in-order
        /// tree byte-for-byte (satellite: order-insensitivity).
        #[test]
        fn stitching_is_order_insensitive(
            shuffle_keys in proptest::collection::vec(0u64..1_000_000, 16),
            extra in proptest::collection::vec((0u64..2_200, 0u64..400, 0usize..20), 0..13),
        ) {
            // A permutation of 0..16 derived by sorting random keys (the
            // vendored proptest shim has no shuffle strategy).
            let mut perm: Vec<usize> = (0..16).collect();
            perm.sort_by_key(|&i| (shuffle_keys[i], i));
            let trace = retrieval_trace();
            let tid = trace_id(3, OpId(11));
            let mut frags = remote_fragments(tid);
            // Extra fragments parented to arbitrary known spans.
            for (i, &(s, d, node)) in extra.iter().enumerate() {
                let parent = match i % 3 {
                    0 => rpc_span(tid, (i % 3) as u32),
                    1 => phase_span(tid, "fetch"),
                    _ => root_span(tid),
                };
                frags.push(SpanFragment {
                    trace_id: tid,
                    span_id: fragment_span(tid, node, 100 + i as u32),
                    parent,
                    node: node as u32,
                    peer: NO_PEER,
                    label: "srv",
                    detail: "FIND_NODE",
                    a: i as u64,
                    b: 0,
                    start: at(s),
                    end: at(s + d),
                    seq: 100 + i as u32,
                });
            }
            let canonical = stitch(3, OpId(11), &trace, &frags).unwrap();
            let shuffled: Vec<SpanFragment> =
                perm.iter().filter(|&&i| i < frags.len()).map(|&i| frags[i]).collect();
            // The permutation covers indices 0..16; restrict to the real
            // set and append any tail beyond 16 unshuffled.
            let mut rest: Vec<SpanFragment> = frags.iter().skip(16).copied().collect();
            let mut shuffled = shuffled;
            shuffled.append(&mut rest);
            prop_assert_eq!(shuffled.len(), frags.len());
            let stitched = stitch(3, OpId(11), &trace, &shuffled).unwrap();
            prop_assert_eq!(&canonical, &stitched);
            prop_assert_eq!(span_tree_json(&canonical), span_tree_json(&stitched));
            // Structural invariants hold for arbitrary fragment sets.
            prop_assert!(stitched.critical_path_duration() <= stitched.duration());
        }
    }
}
