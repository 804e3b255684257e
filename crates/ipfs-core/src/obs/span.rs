//! Span trees, critical-path analysis, and latency attribution.
//!
//! A raw [`OpTrace`] is a flat list of timestamped events; this module
//! analyses the causal structure the paper's §6.2 decomposition needs:
//!
//! * [`SpanTree`] — op → phase → per-RPC / per-dial spans, built by
//!   [`stitch`](super::dtrace::stitch), the one span builder (phases tile
//!   the op interval; RPC and dial spans nest inside the phase that
//!   issued them; remote fragments, when given, nest under their causes).
//! * [`SpanTree::critical_path`] — the backward-greedy chain of leaf
//!   spans that bounds the op's latency from below: starting at the op's
//!   end, repeatedly step to the child span that finished last and
//!   recurse into it. The covered time never exceeds the op duration.
//! * [`LatencyBreakdown`] — the §6.2 / Fig. 9b split of one retrieval
//!   into `bitswap_probe → provider_walk → peer_walk → dial → fetch`
//!   (plus `other`), computed over the same phase tiling as the span
//!   tree, so the components **exactly** sum to the op duration in
//!   integer-nanosecond arithmetic.
//!
//! All of this is pure analysis over a collected trace: nothing here
//! touches the simulator, so it can run after the fact on a trace taken
//! with [`super::Tracer::take`].

use super::{OpTrace, TraceEventKind};
use simnet::{SimDuration, SimTime};
use std::ops::Range;

/// One node of a span tree: a labelled `[start, end]` interval with
/// child spans nested inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers ("retrieve", "provider_walk", "rpc:FIND_NODE",
    /// "dial", ...).
    pub label: String,
    /// When it began.
    pub start: SimTime,
    /// When it ended.
    pub end: SimTime,
    /// Spans causally contained in this one, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// One hop of a critical path: a leaf interval, clamped so hops never
/// overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Label of the leaf span the hop runs through.
    pub label: String,
    /// Hop start.
    pub start: SimTime,
    /// Hop end (clamped to the successor's start).
    pub end: SimTime,
}

impl CriticalHop {
    /// The hop's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// The causal span tree of one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The op-level span; phases are its children.
    pub root: Span,
}

impl SpanTree {
    /// Folds a trace into a span tree: [`stitch`](super::dtrace::stitch)
    /// with no remote fragments. Returns `None` for an empty trace.
    pub fn from_trace(trace: &OpTrace) -> Option<SpanTree> {
        super::dtrace::stitch(trace, &[])
    }

    /// The op duration (root span duration).
    pub fn duration(&self) -> SimDuration {
        self.root.duration()
    }

    /// Computes the critical path: starting from the op's end, repeatedly
    /// pick the child span that finished last before the cursor, recurse
    /// into it, and move the cursor to its start. Returned hops are in
    /// chronological order, non-overlapping, and clamped into their
    /// parents, so the summed hop time never exceeds the op duration.
    pub fn critical_path(&self) -> Vec<CriticalHop> {
        let mut hops = Vec::new();
        cover(&self.root, self.root.end, &mut hops);
        hops
    }

    /// Total time covered by the critical path (≤ [`Self::duration`]).
    pub fn critical_path_duration(&self) -> SimDuration {
        self.critical_path().iter().fold(SimDuration::ZERO, |acc, h| acc + h.duration())
    }
}

/// Backward-greedy critical-path cover of `span` up to `limit`, appending
/// chronological hops to `out`.
fn cover(span: &Span, limit: SimTime, out: &mut Vec<CriticalHop>) {
    let end = span.end.min(limit);
    if end <= span.start && !span.children.is_empty() {
        return;
    }
    if span.children.is_empty() {
        out.push(CriticalHop { label: span.label.clone(), start: span.start, end });
        return;
    }
    let mut cursor = end;
    let mut picked: Vec<(&Span, SimTime)> = Vec::new();
    loop {
        let next = span
            .children
            .iter()
            .filter(|c| c.start < cursor)
            .max_by_key(|c| (c.end.min(cursor), c.start));
        match next {
            Some(c) => {
                picked.push((c, cursor));
                cursor = c.start;
            }
            None => break,
        }
    }
    for (child, lim) in picked.into_iter().rev() {
        cover(child, lim, out);
    }
}

/// The §6.2 latency decomposition of one operation. All components are
/// disjoint slices of the op interval, so they sum to the op duration
/// exactly (integer nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Opportunistic 1 s Bitswap broadcast (§3.2 step 4).
    pub bitswap_probe: SimDuration,
    /// DHT walk for the provider record (also the single `walk` phase of
    /// publish and IPNS ops).
    pub provider_walk: SimDuration,
    /// DHT walk for the provider's peer record.
    pub peer_walk: SimDuration,
    /// Dialing the provider: from `DialStarted` to the connection coming
    /// up (`DialCompleted`); a fetch whose dial failed is attributed here
    /// entirely — the op burned its §6.1 timeout dialing.
    pub dial: SimDuration,
    /// Bitswap content exchange over the established connection.
    pub fetch: SimDuration,
    /// Everything else: pre-phase gap, `rpc_batch`, unknown phases.
    pub other: SimDuration,
}

impl LatencyBreakdown {
    /// Computes the breakdown of a trace. Empty traces yield all zeros.
    pub fn from_trace(trace: &OpTrace) -> LatencyBreakdown {
        let mut bd = LatencyBreakdown::default();
        let Some(tiling) = tile(trace) else { return bd };
        bd.other = tiling.phases.first().map_or(tiling.end, |p| p.start).since(tiling.start);
        for phase in &tiling.phases {
            let seg = phase.end.since(phase.start);
            match phase.label {
                "bitswap_probe" => bd.bitswap_probe += seg,
                "provider_walk" | "walk" => bd.provider_walk += seg,
                "peer_walk" => bd.peer_walk += seg,
                "fetch" => {
                    // Split the fetch phase at the instant the provider
                    // connection came up; a failed dial burns the whole
                    // segment dialing.
                    let window = &trace.events[phase.events.clone()];
                    let connected = window
                        .iter()
                        .find(|e| matches!(e.kind, TraceEventKind::DialCompleted { .. }))
                        .map(|e| e.at.clamp(phase.start, phase.end));
                    let failed =
                        window.iter().any(|e| matches!(e.kind, TraceEventKind::DialFailed { .. }));
                    match connected {
                        Some(tc) => {
                            bd.dial += tc.since(phase.start);
                            bd.fetch += phase.end.since(tc);
                        }
                        None if failed => bd.dial += seg,
                        None => bd.fetch += seg,
                    }
                }
                _ => bd.other += seg,
            }
        }
        bd
    }

    /// Sum of all components — exactly the op duration.
    pub fn total(&self) -> SimDuration {
        self.bitswap_probe
            + self.provider_walk
            + self.peer_walk
            + self.dial
            + self.fetch
            + self.other
    }

    /// The components as `(label, duration)` pairs, pipeline order.
    pub fn components(&self) -> [(&'static str, SimDuration); 6] {
        [
            ("bitswap_probe", self.bitswap_probe),
            ("provider_walk", self.provider_walk),
            ("peer_walk", self.peer_walk),
            ("dial", self.dial),
            ("fetch", self.fetch),
            ("other", self.other),
        ]
    }

    /// Combined DHT-walk time (provider + peer walk) — the component the
    /// paper finds dominant (§6.2).
    pub fn dht_walk(&self) -> SimDuration {
        self.provider_walk + self.peer_walk
    }

    /// The largest component, `(label, duration)`; ties break toward the
    /// earlier pipeline stage.
    pub fn dominant(&self) -> (&'static str, SimDuration) {
        let mut best = ("bitswap_probe", self.bitswap_probe);
        for (label, d) in self.components() {
            if d > best.1 {
                best = (label, d);
            }
        }
        best
    }

    /// Serialises the breakdown as a JSON object of `<component>_us`
    /// fields (microseconds of simulated time).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .components()
            .iter()
            .map(|(label, d)| format!("\"{label}_us\":{}", d.as_nanos() / 1_000))
            .collect();
        format!("{{{},\"total_us\":{}}}", fields.join(","), self.total().as_nanos() / 1_000)
    }
}

/// A requester log read as an op interval tiled by its phases: the one
/// reading of a trace that [`stitch`](super::dtrace::stitch) and
/// [`LatencyBreakdown`] share.
pub(super) struct Tiling {
    /// Op kind from `OpStarted` (`"op"` if absent).
    pub(super) kind: &'static str,
    /// The first event.
    pub(super) start: SimTime,
    /// `OpFinished`, else the last event; never before `start`.
    pub(super) end: SimTime,
    /// The phases in order.
    pub(super) phases: Vec<Phase>,
}

/// One phase of a [`Tiling`]: it runs from its `PhaseEntered` to the next
/// one (or the op end) and owns the events in between.
pub(super) struct Phase {
    pub(super) label: &'static str,
    pub(super) start: SimTime,
    pub(super) end: SimTime,
    /// Indices of the events the phase owns, its `PhaseEntered` first.
    pub(super) events: Range<usize>,
}

/// Tiles `trace`; `None` for an empty trace.
pub(super) fn tile(trace: &OpTrace) -> Option<Tiling> {
    let events = &trace.events;
    let start = events.first()?.at;
    let end = events
        .iter()
        .find(|e| matches!(e.kind, TraceEventKind::OpFinished { .. }))
        .or(events.last())
        .map_or(start, |e| e.at)
        .max(start);
    let kind = events
        .iter()
        .find_map(|e| match e.kind {
            TraceEventKind::OpStarted { kind } => Some(kind),
            _ => None,
        })
        .unwrap_or("op");
    let bounds: Vec<(usize, SimTime, &'static str)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            TraceEventKind::PhaseEntered { phase } => Some((i, e.at, phase)),
            _ => None,
        })
        .collect();
    let phases = bounds
        .iter()
        .enumerate()
        .map(|(pi, &(idx, at, label))| {
            let (next_idx, next_at) = match bounds.get(pi + 1) {
                Some(&(ni, na, _)) => (ni, na),
                None => (events.len(), end),
            };
            Phase { label, start: at, end: next_at.max(at), events: idx..next_idx }
        })
        .collect();
    Some(Tiling { kind, start, end, phases })
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

    /// A hand-built §3.2 retrieval trace:
    /// probe 1000 ms → provider walk 400 ms (2 RPCs) → peer walk 300 ms →
    /// fetch phase 500 ms split as dial 120 ms + transfer 380 ms.
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
            ..Default::default()
        }
    }

    #[test]
    fn span_tree_reconstructs_the_pipeline() {
        let tree = SpanTree::from_trace(&retrieval_trace()).unwrap();
        assert_eq!(tree.root.label, "retrieve");
        assert_eq!(tree.duration(), SimDuration::from_millis(2200));
        let labels: Vec<&str> = tree.root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["bitswap_probe", "provider_walk", "peer_walk", "fetch"]);
        // Phases tile the op interval.
        for pair in tree.root.children.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let walk = &tree.root.children[1];
        assert_eq!(walk.children.len(), 2, "two RPC spans: {walk:?}");
        assert_eq!(walk.children[0].duration(), SimDuration::from_millis(150));
        assert_eq!(walk.children[1].duration(), SimDuration::from_millis(250));
        let fetch = &tree.root.children[3];
        assert_eq!(fetch.children.len(), 1);
        assert_eq!(fetch.children[0].label, "dial");
        assert_eq!(fetch.children[0].duration(), SimDuration::from_millis(120));
    }

    #[test]
    fn breakdown_matches_the_pipeline_and_sums_exactly() {
        let bd = LatencyBreakdown::from_trace(&retrieval_trace());
        assert_eq!(bd.bitswap_probe, SimDuration::from_millis(1000));
        assert_eq!(bd.provider_walk, SimDuration::from_millis(400));
        assert_eq!(bd.peer_walk, SimDuration::from_millis(300));
        assert_eq!(bd.dial, SimDuration::from_millis(120));
        assert_eq!(bd.fetch, SimDuration::from_millis(380));
        assert_eq!(bd.other, SimDuration::ZERO);
        assert_eq!(bd.total(), SimDuration::from_millis(2200));
        assert_eq!(bd.dominant().0, "bitswap_probe");
        assert!(bd.to_json().contains("\"provider_walk_us\":400000"));
    }

    #[test]
    fn failed_dial_attributes_the_fetch_phase_to_dial() {
        let trace = OpTrace {
            events: vec![
                ev(0, TraceEventKind::OpStarted { kind: "retrieve" }),
                ev(0, TraceEventKind::PhaseEntered { phase: "fetch" }),
                ev(0, TraceEventKind::DialStarted { peer: 3 }),
                ev(0, TraceEventKind::DialFailed { peer: 3, class: crate::DialClass::Timeout5s }),
                ev(5000, TraceEventKind::OpFinished { success: false }),
            ],
            ..Default::default()
        };
        let bd = LatencyBreakdown::from_trace(&trace);
        assert_eq!(bd.dial, SimDuration::from_secs(5));
        assert_eq!(bd.fetch, SimDuration::ZERO);
        assert_eq!(bd.total(), SimDuration::from_secs(5));
    }

    #[test]
    fn empty_and_phaseless_traces_are_safe() {
        assert!(SpanTree::from_trace(&OpTrace::default()).is_none());
        assert_eq!(LatencyBreakdown::from_trace(&OpTrace::default()), LatencyBreakdown::default());
        let trace = OpTrace {
            events: vec![
                ev(5, TraceEventKind::OpStarted { kind: "retrieve" }),
                ev(42, TraceEventKind::OpFinished { success: false }),
            ],
            ..Default::default()
        };
        let bd = LatencyBreakdown::from_trace(&trace);
        assert_eq!(bd.other, SimDuration::from_millis(37));
        assert_eq!(bd.total(), SimDuration::from_millis(37));
        let tree = SpanTree::from_trace(&trace).unwrap();
        assert_eq!(tree.duration(), SimDuration::from_millis(37));
        assert_eq!(tree.critical_path_duration(), tree.duration());
    }

    #[test]
    fn critical_path_walks_the_latest_finishers() {
        let tree = SpanTree::from_trace(&retrieval_trace()).unwrap();
        let path = tree.critical_path();
        let labels: Vec<&str> = path.iter().map(|h| h.label.as_str()).collect();
        // Inside provider_walk the second RPC finishes at the phase end;
        // inside peer_walk the (failed) FIND_NODE does; inside fetch no
        // child reaches the end, so the dial is the last finisher.
        assert_eq!(
            labels,
            vec![
                "bitswap_probe",
                "rpc:GET_PROVIDERS",
                "rpc:GET_PROVIDERS",
                "rpc:FIND_NODE",
                "dial"
            ]
        );
        assert!(tree.critical_path_duration() <= tree.duration());
        for pair in path.windows(2) {
            assert!(pair[0].end <= pair[1].start, "hops must not overlap: {path:?}");
        }
    }

    /// Recursively asserts children nest within their parent and are
    /// clamped to it.
    fn assert_nested(span: &Span) {
        for c in &span.children {
            assert!(c.start >= span.start && c.end <= span.end, "child escapes parent: {span:?}");
            assert!(c.start <= c.end);
            assert_nested(c);
        }
    }

    /// Builds a synthetic retrieval trace from generated durations (ms)
    /// and per-walk RPC offsets, returning the trace and its exact end.
    #[allow(clippy::type_complexity)]
    fn synth_trace(
        probe_ms: u64,
        walk_ms: u64,
        peer_ms: u64,
        dial_ms: u64,
        transfer_ms: u64,
        rpcs: &[(u64, u64)],
    ) -> OpTrace {
        let mut events = vec![
            ev(0, TraceEventKind::OpStarted { kind: "retrieve" }),
            ev(0, TraceEventKind::PhaseEntered { phase: "bitswap_probe" }),
            ev(probe_ms, TraceEventKind::PhaseEntered { phase: "provider_walk" }),
        ];
        let walk_end = probe_ms + walk_ms;
        for (i, &(off, dur)) in rpcs.iter().enumerate() {
            let s = probe_ms + off % walk_ms.max(1);
            let e = (s + dur).min(walk_end);
            events.push(ev(s, TraceEventKind::RpcSent { kind: "GET_PROVIDERS", peer: i }));
            events.push(ev(e, TraceEventKind::RpcOk { peer: i }));
        }
        // RPC replies may land after the next phase starts; keep the
        // event list time-sorted as the tracer would have recorded it.
        events.sort_by_key(|e| e.at);
        let peer_end = walk_end + peer_ms;
        let fetch_end = peer_end + dial_ms + transfer_ms;
        events.push(ev(walk_end, TraceEventKind::PhaseEntered { phase: "peer_walk" }));
        events.push(ev(peer_end, TraceEventKind::PhaseEntered { phase: "fetch" }));
        events.push(ev(peer_end, TraceEventKind::DialStarted { peer: 99 }));
        events.push(ev(peer_end + dial_ms, TraceEventKind::DialCompleted { peer: 99 }));
        events.push(ev(fetch_end, TraceEventKind::OpFinished { success: true }));
        OpTrace { events, ..Default::default() }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn spans_nest_breakdown_sums_and_critical_path_is_bounded(
            probe_ms in 1u64..3_000,
            walk_ms in 1u64..60_000,
            peer_ms in 0u64..30_000,
            dial_ms in 0u64..5_000,
            transfer_ms in 1u64..30_000,
            rpcs in proptest::collection::vec((0u64..60_000, 1u64..10_000), 0..12),
        ) {
            let trace = synth_trace(probe_ms, walk_ms, peer_ms, dial_ms, transfer_ms, &rpcs);
            let total = SimDuration::from_millis(
                probe_ms + walk_ms + peer_ms + dial_ms + transfer_ms,
            );

            // (a) child spans nest within their parents.
            let tree = SpanTree::from_trace(&trace).unwrap();
            assert_nested(&tree.root);

            // (b) breakdown components sum exactly to the op duration.
            let bd = LatencyBreakdown::from_trace(&trace);
            prop_assert_eq!(bd.total(), total);
            prop_assert_eq!(bd.total(), tree.duration());
            prop_assert_eq!(bd.bitswap_probe, SimDuration::from_millis(probe_ms));
            prop_assert_eq!(bd.dial, SimDuration::from_millis(dial_ms));

            // (c) the critical path never exceeds the op duration, and
            // its hops are chronological and disjoint.
            let path = tree.critical_path();
            prop_assert!(tree.critical_path_duration() <= tree.duration());
            for pair in path.windows(2) {
                prop_assert!(pair[0].end <= pair[1].start);
            }
        }
    }
}
