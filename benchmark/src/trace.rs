//! Benchmark-side spans: one record around every call the benchmark
//! makes into a layer (name, start, end, parent, op id).
//!
//! Nothing inside `crates/` is instrumented. Spans live in a pre-sized
//! vector and are written out after the run; a disabled recorder costs one
//! branch per call, so the untraced run measures the program, not the
//! harness.

use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Call-site name (a fixed vocabulary, see `metrics::CALLS`).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (0 while still open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Innermost open span.
    current: u32,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn disabled() -> Spans {
        Spans { enabled: false, epoch: Instant::now(), spans: Vec::new(), current: NO_PARENT }
    }

    /// A recording recorder with room for `capacity` spans up front, so
    /// the measured phase never reallocates the span vector.
    pub fn enabled(capacity: usize) -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            current: NO_PARENT,
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: 0, parent: self.current, op });
        self.current = id;
        SpanId(id)
    }

    /// Closes a span. Spans close innermost-first.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        debug_assert_eq!(self.current, id.0, "spans must close innermost-first");
        self.current = span.parent;
    }

    /// Closes a span under a name only known once the call returned
    /// (a gateway request is named after the tier that served it).
    #[inline]
    pub fn exit_as(&mut self, id: SpanId, name: &'static str) {
        if self.enabled {
            self.spans[id.0 as usize].name = name;
        }
        self.exit(id);
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Gives up the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap here (the
/// recorder is a stack), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    spans.iter().zip(&child_ns).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_ns_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += self_ns,
            None => out.push((s.name, self_ns)),
        }
    }
    out
}

/// Renders spans as a JSON array, one object per span, in record order
/// (`id` is the index `parent` refers to).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, (s, self_ns)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] holds siblings a [10,30] and b [40,90];
        // b holds grandchild c [50,60].
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 40, 90, 0),
            span("c", 50, 60, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times partition the root interval.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_by_name_merges_repeated_calls() {
        let spans = [span("run", 0, 100, NO_PARENT), span("op", 0, 40, 0), span("op", 50, 100, 0)];
        assert_eq!(self_ns_by_name(&spans), vec![("run", 10), ("op", 90)]);
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let mut t = Spans::enabled(8);
        let outer = t.enter("outer", 7);
        let seen = t.span("inner", 7, || 42);
        let tier = t.enter("serve", 8);
        t.exit_as(tier, "serve.nginx");
        t.exit(outer);
        assert_eq!(seen, 42);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert_eq!(s[2].name, "serve.nginx");
        assert!(s[0].end_ns >= s[2].end_ns && s[1].start_ns >= s[0].start_ns);

        let mut off = Spans::disabled();
        let id = off.enter("x", 0);
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_has_one_object_per_span() {
        let spans = [span("root", 0, 9, NO_PARENT), span("kid", 1, 4, 0)];
        let json = spans_json(&spans);
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(json.contains("\"parent\":null") && json.contains("\"parent\":0"));
        assert!(json.contains("\"self_ns\":6"));
    }
}
