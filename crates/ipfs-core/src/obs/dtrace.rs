//! Cross-node causal tracing, stitching and the crash flight recorder.
//!
//! An [`OpTrace`] only holds what the *requesting* node observes: a
//! remote peer's handler time, uplink queueing, or mid-fetch re-routing
//! collapses into an opaque RPC or fetch span. From
//! [`TraceLevel::Stitch`](super::TraceLevel::Stitch) up, the network's one
//! [`Tracer`](super::Tracer) also records the distributed half:
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
//!   node where the work happened into its bounded [`FlightRing`] and
//!   the tracer's stitching collection.
//! * [`stitch`] — the one span builder: folds a requester [`OpTrace`]
//!   into phase, RPC and dial spans and hangs every fragment of the op's
//!   trace id under its cause, yielding one distributed [`SpanTree`].
//!   With no fragments it is [`SpanTree::from_trace`]. Fragments are
//!   sorted by a total order first, so the result is byte-identical
//!   regardless of the order they were gathered in (shards, job counts,
//!   shuffles).
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
//! trace alone ([`Tracer::rpc_sent`](super::Tracer::rpc_sent) numbers an
//! RPC by the `RpcSent` events before it, which is what [`stitch`]
//! counts), so no id ever needs to travel backwards.

use super::span::{tile, Span, SpanTree};
use super::{OpTrace, TraceEventKind};
use crate::ops::OpId;
use simnet::mix::{fnv1a, splitmix64, FNV_BASIS};
use simnet::SimTime;
use std::collections::{HashMap, HashSet};

/// Former name of [`TraceConfig`](super::TraceConfig), kept for callers
/// that still use it.
pub type DtraceConfig = super::TraceConfig;

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

// ---------------------------------------------------------------------------
// Stitching
// ---------------------------------------------------------------------------

/// The tree under construction: nodes plus the span-id index fragments
/// find their parents through.
#[derive(Default)]
struct Arena {
    nodes: Vec<ArenaNode>,
    parent_of: Vec<Option<usize>>,
    index: HashMap<u64, Vec<usize>>,
}

/// One span while the tree is assembled.
struct ArenaNode {
    label: String,
    start: SimTime,
    end: SimTime,
    children: Vec<usize>,
}

impl Arena {
    fn push(
        &mut self,
        id: u64,
        parent: Option<usize>,
        label: String,
        start: SimTime,
        end: SimTime,
    ) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(ArenaNode { label, start, end, children: Vec::new() });
        self.parent_of.push(parent);
        if let Some(p) = parent {
            self.nodes[p].children.push(idx);
        }
        self.index.entry(id).or_default().push(idx);
        idx
    }
}

/// Folds a requester-side trace into a span tree and hangs every remote
/// fragment of the same trace id under its cause. Returns `None` for an
/// empty trace; with no fragments the result is
/// [`SpanTree::from_trace`].
///
/// The op span runs from the first event to `OpFinished` (or the last
/// event), and each phase runs from its `PhaseEntered` to the next one,
/// the tiling [`LatencyBreakdown`](super::span::LatencyBreakdown) also
/// reads. Within a phase, `RpcSent` pairs with the first later
/// `RpcOk`/`RpcFailed` for the same peer inside the phase, and
/// `DialStarted` with the first later `DialCompleted`/`DialFailed` for the
/// same peer; unmatched starts close at the phase end. Every span gets its
/// deterministic id so fragments can find their parents. Fragments are sorted by `(start, end, node,
/// seq, span_id)` before attachment and children are re-sorted and
/// clamped into their parent at materialization, so the output is
/// independent of the order fragments arrive in.
pub fn stitch(trace: &OpTrace, fragments: &[SpanFragment]) -> Option<SpanTree> {
    let tiling = tile(trace)?;
    let tid = trace_id(trace.origin, trace.op);
    let events = &trace.events;
    let (start, end) = (tiling.start, tiling.end);
    let mut arena = Arena::default();
    let root = arena.push(root_span(tid), None, tiling.kind.to_string(), start, end);

    // A global counter per span family assigns each `RpcSent` the send
    // index the network numbered it with.
    let (mut rpc_seq, mut dial_seq) = (0u32, 0u64);
    for phase in &tiling.phases {
        let pnode = arena.push(
            phase_span(tid, phase.label),
            Some(root),
            phase.label.to_string(),
            phase.start,
            phase.end,
        );
        let mut claimed = vec![false; events.len()];
        for i in phase.events.clone() {
            let (id, label, horizon) = match events[i].kind {
                TraceEventKind::RpcSent { kind, .. } => {
                    rpc_seq += 1;
                    (rpc_span(tid, rpc_seq - 1), format!("rpc:{kind}"), phase.events.end)
                }
                TraceEventKind::DialStarted { .. } => {
                    dial_seq += 1;
                    (span_id(tid, domain::DIAL, dial_seq - 1), "dial".to_string(), events.len())
                }
                _ => continue,
            };
            let closer =
                (i + 1..horizon).find(|&j| !claimed[j] && closes(&events[i].kind, &events[j].kind));
            let child_end = match closer {
                Some(j) => {
                    claimed[j] = true;
                    events[j].at
                }
                None => phase.end,
            };
            arena.push(id, Some(pnode), label, events[i].at, child_end);
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
    let first = arena.nodes.len();
    for f in &frags {
        arena.push(f.span_id, None, f.span_label(), f.start, f.end);
    }
    for (i, f) in (first..).zip(&frags) {
        let target = locate(&arena, f.parent, f.start)
            .filter(|&p| !reaches(&arena.parent_of, p, i))
            .unwrap_or(root);
        arena.parent_of[i] = Some(target);
        arena.nodes[target].children.push(i);
    }

    Some(SpanTree { root: materialize(&arena.nodes, root, start, end) })
}

/// Whether `reply` closes the span `open` started: an RPC's answer or
/// failure from its peer, a dial's completion or failure to its peer.
fn closes(open: &TraceEventKind, reply: &TraceEventKind) -> bool {
    match (open, reply) {
        (
            TraceEventKind::RpcSent { peer, .. },
            TraceEventKind::RpcOk { peer: p } | TraceEventKind::RpcFailed { peer: p },
        ) => p == peer,
        (
            TraceEventKind::DialStarted { peer },
            TraceEventKind::DialCompleted { peer: p } | TraceEventKind::DialFailed { peer: p, .. },
        ) => p == peer,
        _ => false,
    }
}

/// Picks the arena node carrying span id `id` best matching time `at`:
/// prefer an interval containing `at`, else the latest one starting at or
/// before `at`, else the first registered.
fn locate(arena: &Arena, id: u64, at: SimTime) -> Option<usize> {
    let nodes = &arena.nodes;
    let cands = arena.index.get(&id)?;
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
/// order. `entries` are the op's fragments from every node's flight ring.
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
    use simnet::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn ev(ms: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { at: at(ms), kind }
    }

    /// The §3.2 retrieval trace from the span-tree tests: probe 1 s,
    /// provider walk 400 ms (2 RPCs), peer walk 300 ms, fetch 500 ms.
    fn retrieval_trace(origin: usize, op: u64) -> OpTrace {
        OpTrace {
            op: OpId(op),
            origin,
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
        use crate::obs::{TraceConfig, Tracer};
        let traced = TraceCtx { trace_id: 5, parent_span: 9 };
        // Below the stitch level nothing is recorded, not even in a ring.
        let mut tracer = Tracer::new(TraceConfig::enabled());
        tracer.record_span(traced, 0, Some(1), "srv", "FIND_NODE", 3, 0, at(0), at(1));
        assert!(tracer.fragments().is_empty());
        assert!(tracer.ring_entries(5).is_empty());
        // Stitching: traced fragments are kept; untraced ones reach only
        // the recording node's ring.
        tracer.set_config(TraceConfig::collecting());
        tracer.record_span(traced, 1, None, "srv", "FIND_NODE", 3, 0, at(1), at(2));
        tracer.record_span(TraceCtx::NONE, 1, None, "srv", "FIND_NODE", 3, 0, at(2), at(3));
        assert_eq!(tracer.fragments().len(), 1);
        assert_eq!(tracer.ring_entries(5).len(), 1);
        assert_eq!(tracer.ring_entries(0).len(), 1);
        // Per-op bookkeeping lives in the op's record: its origin and the
        // RPC numbering the stitcher re-derives.
        let op = OpId(2);
        assert_eq!(tracer.rpc_sent(op, at(0), "FIND_NODE", 1), TraceCtx::NONE, "op not started");
        tracer.start_op(op, 7);
        assert_eq!(tracer.origin(op), Some(7));
        let tid = trace_id(7, op);
        for seq in 0..3 {
            let ctx = tracer.rpc_sent(op, at(seq.into()), "FIND_NODE", 1);
            assert_eq!(ctx, TraceCtx { trace_id: tid, parent_span: rpc_span(tid, seq) });
        }
        tracer.flag(op);
        let taken = tracer.take(op).unwrap();
        assert_eq!(taken.events.len(), 3);
        assert_eq!(tracer.open_ops(), 0, "taking a trace releases its record");
        assert_eq!(tracer.origin(op), None);
    }

    #[test]
    fn stitch_attaches_remote_spans_under_their_causes() {
        let trace = retrieval_trace(3, 11);
        let tid = trace_id(3, OpId(11));
        let frags = remote_fragments(tid);
        let tree = stitch(&trace, &frags).unwrap();
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
        let trace = retrieval_trace(3, 11);
        let local = SpanTree::from_trace(&trace).unwrap();
        // Fragments of another trace leave the local tree untouched.
        let foreign = stitch(&trace, &remote_fragments(trace_id(4, OpId(11)))).unwrap();
        assert_eq!(local, foreign, "no fragments of this trace → identical to the local tree");
        let phases: Vec<(&str, usize)> =
            local.root.children.iter().map(|p| (p.label.as_str(), p.children.len())).collect();
        assert_eq!(
            phases,
            vec![("bitswap_probe", 0), ("provider_walk", 2), ("peer_walk", 1), ("fetch", 1)]
        );
    }

    #[test]
    fn orphan_fragments_fall_back_to_the_root() {
        let trace = retrieval_trace(1, 2);
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
        let tree = stitch(&trace, &[orphan]).unwrap();
        assert!(tree.root.children.iter().any(|c| c.label == "gw:serve@n5"));
        // Fragments of other traces are ignored entirely.
        let foreign = SpanFragment { trace_id: tid ^ 2, ..orphan };
        let tree2 = stitch(&trace, &[foreign]).unwrap();
        assert!(!labels_of(&tree2.root).iter().any(|l| l.contains("gw")));
    }

    #[test]
    fn exemplar_json_is_well_formed() {
        let trace = retrieval_trace(3, 11);
        let tid = trace_id(3, OpId(11));
        let tree = stitch(&trace, &remote_fragments(tid)).unwrap();
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
            let trace = retrieval_trace(3, 11);
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
            let canonical = stitch(&trace, &frags).unwrap();
            let shuffled: Vec<SpanFragment> =
                perm.iter().filter(|&&i| i < frags.len()).map(|&i| frags[i]).collect();
            // The permutation covers indices 0..16; restrict to the real
            // set and append any tail beyond 16 unshuffled.
            let mut rest: Vec<SpanFragment> = frags.iter().skip(16).copied().collect();
            let mut shuffled = shuffled;
            shuffled.append(&mut rest);
            prop_assert_eq!(shuffled.len(), frags.len());
            let stitched = stitch(&trace, &shuffled).unwrap();
            prop_assert_eq!(&canonical, &stitched);
            prop_assert_eq!(span_tree_json(&canonical), span_tree_json(&stitched));
            // Structural invariants hold for arbitrary fragment sets.
            prop_assert!(stitched.critical_path_duration() <= stitched.duration());
        }
    }
}
