//! Observability layer: a metrics registry plus a structured per-operation
//! event trace.
//!
//! The simulation stack emits two kinds of telemetry:
//!
//! * **Metrics** — named monotonic counters and raw-sample histograms kept
//!   in a [`MetricsRegistry`]. Counters cover the surfaces the paper
//!   measures: DHT RPC volume by type (§3.1), dial attempts and failures
//!   split by transport timeout class (§6.1), Bitswap message counts by
//!   type (§3.2), provider-record lifecycle (§3.1), connection-manager
//!   prunes, gateway cache tiers (§6.3) and churn transitions (§4.1).
//!   Scripted fault injection (the `faultsim` crate) adds the `fault_*`
//!   family — partitions started/healed, dials blocked or spiked by the
//!   oracle, warm connections severed, messages cut or lost, crash-wave
//!   victims — plus the `fault_recovery_secs` histogram of
//!   time-to-first-successful-retrieval after heal.
//! * **Traces** — one [`Tracer`] per network, configured by one
//!   [`TraceConfig`] whose nested [`TraceLevel`] picks what it records:
//!   each op's requester-side [`OpTrace`] (the §3.2 pipeline: Bitswap
//!   probe → provider walk → peer walk → dial → fetch, and the
//!   publish/IPNS equivalents), then the span fragments remote nodes
//!   record for stitching, then flight-recorder post-mortems.
//!
//! Tracing is off by default. [`Tracer::record_with`] takes a closure that
//! builds the event, so a disabled tracer costs exactly one branch per
//! call site and performs no allocation.
//!
//! Four submodules build on this layer: [`names`] holds every canonical
//! metric name as a constant, [`dtrace`] carries trace context across
//! nodes and [`dtrace::stitch`]es a trace and its fragments into a span
//! tree, [`span`] analyses that tree (critical path, the §6.2
//! [`LatencyBreakdown`](span::LatencyBreakdown)), and [`timeseries`]
//! buckets counter deltas and samples into windows of simulated time
//! (the Fig. 4 longitudinal view).

use crate::ops::OpId;
use dtrace::{FlightRing, SpanFragment, TraceCtx};
use simnet::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

pub mod dtrace;
pub mod names;
pub mod span;
pub mod timeseries;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// How a [`MetricsRegistry`] stores histogram samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistogramMode {
    /// Raw `Vec<f64>` samples: exact percentiles, memory linear in the
    /// sample count. Right for small runs and anything a test pins.
    #[default]
    Exact,
    /// Log-bucketed [`StreamingHistogram`]s: memory is O(buckets)
    /// regardless of sample count, percentiles carry a bounded relative
    /// error (≤ ½·(γ−1) ≈ 2.5 % at the built-in growth factor). Right
    /// for paper-scale runs.
    Streaming,
}

/// A log-bucketed streaming histogram: geometric buckets with growth
/// factor [`StreamingHistogram::GROWTH`], so a positive sample `v` lands
/// in bucket `⌊ln v / ln γ⌋` and any percentile estimate (the bucket
/// midpoint) is within `(γ−1)/2` relative error of the true value.
/// Zero or negative samples are counted below every bucket and estimated
/// as `0.0` (the stack's histograms — latencies, counts — are
/// non-negative). Memory is the number of *occupied* buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingHistogram {
    buckets: BTreeMap<i32, u64>,
    zero_or_less: u64,
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl StreamingHistogram {
    /// Geometric bucket growth factor γ.
    pub const GROWTH: f64 = 1.05;

    fn bucket_of(v: f64) -> i32 {
        (v.ln() / Self::GROWTH.ln()).floor() as i32
    }

    fn bucket_estimate(idx: i32) -> f64 {
        // Arithmetic midpoint of [γ^i, γ^(i+1)).
        Self::GROWTH.powi(idx) * (1.0 + Self::GROWTH) / 2.0
    }

    /// Records one (finite) sample.
    pub fn observe(&mut self, v: f64) {
        if v > 0.0 {
            *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
        } else {
            self.zero_or_less += 1;
        }
        self.sum += v;
        self.min = if self.n == 0 { v } else { self.min.min(v) };
        self.max = if self.n == 0 { v } else { self.max.max(v) };
        self.n += 1;
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact arithmetic mean (the sum is tracked exactly).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Occupied buckets — the histogram's memory footprint.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zero_or_less > 0)
    }

    /// Nearest-rank percentile estimate (`q` in `0.0..=1.0`), clamped to
    /// the observed `[min, max]`.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n - 1) as f64 * q).round() as u64;
        let mut cum = self.zero_or_less;
        if rank < cum {
            return 0.0f64.clamp(self.min, self.max);
        }
        for (&idx, &c) in &self.buckets {
            cum += c;
            if rank < cum {
                return Self::bucket_estimate(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another streaming histogram into this one.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        self.zero_or_less += other.zero_or_less;
        self.sum += other.sum;
        if other.n > 0 {
            self.min = if self.n == 0 { other.min } else { self.min.min(other.min) };
            self.max = if self.n == 0 { other.max } else { self.max.max(other.max) };
        }
        self.n += other.n;
    }
}

/// Summary statistics of one histogram, computed the same way in both
/// [`HistogramMode`]s (exactly in `Exact`, within the bucket error bound
/// in `Streaming`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramStats {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean (exact in both modes).
    pub mean: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// One histogram's storage.
#[derive(Debug, Clone, PartialEq)]
enum Hist {
    Exact(Vec<f64>),
    Streaming(StreamingHistogram),
}

impl Hist {
    fn new(mode: HistogramMode) -> Hist {
        match mode {
            HistogramMode::Exact => Hist::Exact(Vec::new()),
            HistogramMode::Streaming => Hist::Streaming(StreamingHistogram::default()),
        }
    }

    fn observe(&mut self, sample: f64) {
        match self {
            Hist::Exact(v) => v.push(sample),
            Hist::Streaming(h) => h.observe(sample),
        }
    }

    fn stats(&self) -> HistogramStats {
        match self {
            Hist::Exact(samples) => {
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                let n = sorted.len();
                let mean = if n == 0 { 0.0 } else { sorted.iter().sum::<f64>() / n as f64 };
                HistogramStats {
                    n,
                    mean,
                    p50: pct(&sorted, 0.50),
                    p90: pct(&sorted, 0.90),
                    p99: pct(&sorted, 0.99),
                }
            }
            Hist::Streaming(h) => HistogramStats {
                n: h.count() as usize,
                mean: h.mean(),
                p50: h.percentile(0.50),
                p90: h.percentile(0.90),
                p99: h.percentile(0.99),
            },
        }
    }

    fn footprint(&self) -> usize {
        match self {
            Hist::Exact(v) => v.len(),
            Hist::Streaming(h) => h.bucket_count(),
        }
    }
}

/// Dense-slot handle to one counter, resolved once with
/// [`MetricsRegistry::counter_handle`]. Bumping through a handle is a
/// bounds-checked array write — no string hashing, no tree walk — which is
/// what per-event simulation fast paths use. Handles stay valid for the
/// registry that issued them (and its clones); names never un-register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Dense-slot handle to one histogram (see [`CounterHandle`]), resolved
/// once with [`MetricsRegistry::histogram_handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// Backing storage for one counter.
#[derive(Debug, Clone, Default)]
struct CounterSlot {
    value: u64,
    /// Whether incr/add/set ever hit this slot. Resolving a handle alone
    /// must not surface the counter in exports — pre-registered hot
    /// counters would otherwise litter every report with zero rows.
    touched: bool,
}

/// Backing storage for one histogram.
#[derive(Debug, Clone)]
struct HistSlot {
    hist: Hist,
    /// Whether any sample was ever recorded (same rationale as
    /// [`CounterSlot::touched`]).
    touched: bool,
}

/// Registry of named counters and histograms.
///
/// Counter names are `&'static str` so incrementing never allocates. The
/// string-keyed API (`incr`/`add`/`observe`) pays one name lookup per call
/// and suits cold paths; hot paths resolve a [`CounterHandle`] /
/// [`HistogramHandle`] once and hit the dense slot vector directly.
/// Name-ordered iteration (and therefore every export) is unchanged: the
/// name index is a `BTreeMap` pointing into the slots.
///
/// Histograms are stored per the registry's [`HistogramMode`]: exact raw
/// samples by default (small runs, exact percentiles at export time), or
/// log-bucketed streaming histograms for paper-scale runs
/// ([`MetricsRegistry::with_histogram_mode`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counter_index: BTreeMap<&'static str, usize>,
    counter_slots: Vec<CounterSlot>,
    hist_index: BTreeMap<&'static str, usize>,
    hist_slots: Vec<HistSlot>,
    mode: HistogramMode,
}

impl MetricsRegistry {
    /// Creates an empty registry in [`HistogramMode::Exact`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry with the given histogram mode.
    pub fn with_histogram_mode(mode: HistogramMode) -> Self {
        MetricsRegistry { mode, ..Default::default() }
    }

    /// The registry's histogram mode.
    pub fn histogram_mode(&self) -> HistogramMode {
        self.mode
    }

    /// Resolves (registering if needed) the slot for counter `name`.
    fn counter_slot(&mut self, name: &'static str) -> usize {
        let slots = &mut self.counter_slots;
        *self.counter_index.entry(name).or_insert_with(|| {
            slots.push(CounterSlot::default());
            slots.len() - 1
        })
    }

    /// Resolves (registering if needed) the slot for histogram `name`.
    fn hist_slot(&mut self, name: &'static str) -> usize {
        let slots = &mut self.hist_slots;
        let mode = self.mode;
        *self.hist_index.entry(name).or_insert_with(|| {
            slots.push(HistSlot { hist: Hist::new(mode), touched: false });
            slots.len() - 1
        })
    }

    /// Resolves a dense handle for counter `name`. Resolution pays the
    /// one-off name lookup; every subsequent [`MetricsRegistry::incr_handle`]
    /// / [`MetricsRegistry::add_handle`] is an array bump. Registration
    /// alone does not surface the counter in exports.
    pub fn counter_handle(&mut self, name: &'static str) -> CounterHandle {
        CounterHandle(self.counter_slot(name))
    }

    /// Resolves a dense handle for histogram `name` (see
    /// [`MetricsRegistry::counter_handle`]).
    pub fn histogram_handle(&mut self, name: &'static str) -> HistogramHandle {
        HistogramHandle(self.hist_slot(name))
    }

    /// Resolves a dense handle for histogram `name`, forcing that one
    /// histogram into [`HistogramMode::Streaming`] regardless of the
    /// registry-wide mode. Right for per-event hot-path histograms whose
    /// exact storage would grow with the sample count (e.g. per-peer
    /// Bitswap latencies). Samples already recorded in exact mode are
    /// re-observed into buckets, so the conversion loses no counts.
    pub fn histogram_handle_streaming(&mut self, name: &'static str) -> HistogramHandle {
        let i = self.hist_slot(name);
        let slot = &mut self.hist_slots[i];
        if let Hist::Exact(samples) = &slot.hist {
            let mut h = StreamingHistogram::default();
            for &s in samples {
                h.observe(s);
            }
            slot.hist = Hist::Streaming(h);
        }
        HistogramHandle(i)
    }

    /// Increments the counter behind `h` by one (no name lookup).
    #[inline]
    pub fn incr_handle(&mut self, h: CounterHandle) {
        self.add_handle(h, 1);
    }

    /// Increments the counter behind `h` by `n` (no name lookup).
    #[inline]
    pub fn add_handle(&mut self, h: CounterHandle, n: u64) {
        let slot = &mut self.counter_slots[h.0];
        slot.value += n;
        slot.touched = true;
    }

    /// Records one sample into the histogram behind `h` (no name lookup).
    /// Same non-finite guard as [`MetricsRegistry::observe`].
    #[inline]
    pub fn observe_handle(&mut self, h: HistogramHandle, sample: f64) {
        if !sample.is_finite() {
            self.add(names::OBS_SAMPLES_DROPPED, 1);
            return;
        }
        let slot = &mut self.hist_slots[h.0];
        slot.hist.observe(sample);
        slot.touched = true;
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `n`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        let i = self.counter_slot(name);
        let slot = &mut self.counter_slots[i];
        slot.value += n;
        slot.touched = true;
    }

    /// Sets counter `name` to an absolute value (for gauges sampled at
    /// export time, e.g. cache eviction totals owned by another struct).
    pub fn set(&mut self, name: &'static str, value: u64) {
        let i = self.counter_slot(name);
        let slot = &mut self.counter_slots[i];
        slot.value = value;
        slot.touched = true;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counter_index.get(name).map(|&i| self.counter_slots[i].value).unwrap_or(0)
    }

    /// Records one sample into histogram `name`. Non-finite samples are
    /// dropped and counted under [`names::OBS_SAMPLES_DROPPED`], so a NaN
    /// can never poison percentile computation or the JSON export.
    pub fn observe(&mut self, name: &'static str, sample: f64) {
        if !sample.is_finite() {
            self.add(names::OBS_SAMPLES_DROPPED, 1);
            return;
        }
        let i = self.hist_slot(name);
        let slot = &mut self.hist_slots[i];
        slot.hist.observe(sample);
        slot.touched = true;
    }

    /// Raw samples of histogram `name` (empty slice if never touched).
    /// Streaming histograms keep no raw samples, so they also yield an
    /// empty slice — use [`MetricsRegistry::stats`] for mode-independent
    /// summaries.
    pub fn samples(&self, name: &str) -> &[f64] {
        match self.hist_index.get(name).map(|&i| &self.hist_slots[i].hist) {
            Some(Hist::Exact(v)) => v.as_slice(),
            _ => &[],
        }
    }

    /// Summary statistics of histogram `name`, in either mode. `None` if
    /// the histogram was never touched.
    pub fn stats(&self, name: &str) -> Option<HistogramStats> {
        self.hist_index.get(name).and_then(|&i| {
            let slot = &self.hist_slots[i];
            slot.touched.then(|| slot.hist.stats())
        })
    }

    /// Stored values for histogram `name`: raw sample count in exact
    /// mode, occupied bucket count in streaming mode. Zero if never
    /// touched. This is the quantity the streaming mode bounds.
    pub fn histogram_footprint(&self, name: &str) -> usize {
        self.hist_index.get(name).map(|&i| self.hist_slots[i].hist.footprint()).unwrap_or(0)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_index.iter().filter_map(|(k, &i)| {
            let slot = &self.counter_slots[i];
            slot.touched.then_some((*k, slot.value))
        })
    }

    /// Iterates counters whose name starts with `prefix`, in name order.
    /// Used by report renderers to pull out a subsystem's counter family
    /// (e.g. the `fault_*` counters the fault-injection layer emits:
    /// partitions started/healed, dials blocked or spiked by the oracle,
    /// connections severed, messages cut or lost, nodes crashed).
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        self.counters().filter(move |(k, _)| k.starts_with(prefix))
    }

    /// Iterates raw-sample histograms in name order. Streaming entries
    /// hold no raw samples and are skipped; use
    /// [`MetricsRegistry::histogram_stats`] for a mode-independent view.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &[f64])> + '_ {
        self.touched_hists().filter_map(|(k, hist)| match hist {
            Hist::Exact(s) => Some((k, s.as_slice())),
            Hist::Streaming(_) => None,
        })
    }

    /// Iterates every histogram's summary statistics in name order,
    /// regardless of mode.
    pub fn histogram_stats(&self) -> impl Iterator<Item = (&'static str, HistogramStats)> + '_ {
        self.touched_hists().map(|(k, hist)| (k, hist.stats()))
    }

    /// Name-ordered iteration over histograms with at least one sample.
    fn touched_hists(&self) -> impl Iterator<Item = (&'static str, &Hist)> + '_ {
        self.hist_index.iter().filter_map(|(k, &i)| {
            let slot = &self.hist_slots[i];
            slot.touched.then_some((*k, &slot.hist))
        })
    }

    /// Folds another registry into this one (counters add, samples
    /// append). When either side of a histogram is streaming, the merged
    /// entry is streaming — exact samples are re-observed into buckets so
    /// a merge never resurrects unbounded storage.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &oi) in &other.counter_index {
            let theirs = &other.counter_slots[oi];
            if theirs.touched {
                self.add(k, theirs.value);
            }
        }
        for (k, &oi) in &other.hist_index {
            let theirs = &other.hist_slots[oi];
            if !theirs.touched {
                continue;
            }
            let i = self.hist_slot(k);
            let slot = &mut self.hist_slots[i];
            if !slot.touched {
                // Never sampled here: adopt theirs wholesale (keeps their
                // storage mode, exactly like inserting into an empty map).
                slot.hist = theirs.hist.clone();
                slot.touched = true;
                continue;
            }
            match (&mut slot.hist, &theirs.hist) {
                (Hist::Exact(mine), Hist::Exact(t)) => mine.extend_from_slice(t),
                (Hist::Streaming(mine), Hist::Streaming(t)) => mine.merge(t),
                (Hist::Streaming(mine), Hist::Exact(t)) => {
                    for &s in t {
                        mine.observe(s);
                    }
                }
                (mine @ Hist::Exact(_), Hist::Streaming(t)) => {
                    let mut merged = t.clone();
                    if let Hist::Exact(samples) = mine {
                        for &s in samples.iter() {
                            merged.observe(s);
                        }
                    }
                    *mine = Hist::Streaming(merged);
                }
            }
        }
    }

    /// Serialises the registry as a JSON object:
    /// `{"counters": {..}, "histograms": {"name": {"n": .., "mean": ..,
    /// "p50": .., "p90": .., "p99": ..}}}`. Floats are JSON-safe: any
    /// non-finite value renders as `null` (none can arise from observed
    /// samples, which are guarded at intake).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, hist)) in self.touched_hists().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = hist.stats();
            out.push_str(&format!(
                "\"{k}\":{{\"n\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                s.n,
                fmt_json_f64(s.mean),
                fmt_json_f64(s.p50),
                fmt_json_f64(s.p90),
                fmt_json_f64(s.p99),
            ));
        }
        out.push_str("}}");
        out
    }

    /// Flattens counters into `(name, value)` CSV rows.
    pub fn to_csv_rows(&self) -> Vec<(String, u64)> {
        self.counters().map(|(k, v)| (k.to_string(), v)).collect()
    }
}

/// Formats a float for embedding in JSON: non-finite values (which JSON
/// cannot represent) render as `null`.
fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Nearest-rank percentile over pre-sorted samples.
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// Transport class of a failed dial, following the §6.1 latency split:
/// immediate connection-refused, the 5 s TCP/QUIC timeout, and the 45 s
/// WebSocket timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DialClass {
    /// Target port closed: failure reported almost immediately.
    FastRefuse,
    /// TCP / QUIC dial timeout (5 s).
    Timeout5s,
    /// WebSocket dial timeout (45 s).
    Websocket45s,
}

impl DialClass {
    /// Metric/trace label for the class.
    pub fn label(self) -> &'static str {
        match self {
            DialClass::FastRefuse => "fast_refuse",
            DialClass::Timeout5s => "timeout_5s",
            DialClass::Websocket45s => "timeout_45s",
        }
    }

    /// Counter name bumped when a dial fails with this class.
    pub fn metric(self) -> &'static str {
        match self {
            DialClass::FastRefuse => names::DIAL_FAILED_FAST_REFUSE,
            DialClass::Timeout5s => names::DIAL_FAILED_TIMEOUT_5S,
            DialClass::Websocket45s => names::DIAL_FAILED_TIMEOUT_45S,
        }
    }
}

/// One step of an operation's lifecycle, as observed by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// The operation was submitted ("publish", "retrieve", ...).
    OpStarted {
        /// Operation kind label.
        kind: &'static str,
    },
    /// The operation entered a pipeline phase ("bitswap_probe",
    /// "provider_walk", "peer_walk", "fetch", "walk", "rpc_batch").
    PhaseEntered {
        /// Phase label.
        phase: &'static str,
    },
    /// A DHT RPC left this node on behalf of the operation.
    RpcSent {
        /// Request type label ("FIND_NODE", "GET_PROVIDERS", ...).
        kind: &'static str,
        /// Destination node.
        peer: usize,
    },
    /// A DHT RPC response came back.
    RpcOk {
        /// Responding node.
        peer: usize,
    },
    /// A DHT RPC failed (unreachable peer / dial timeout).
    RpcFailed {
        /// Unreachable node.
        peer: usize,
    },
    /// A DHT walk converged; carries the walk's final statistics.
    QueryConverged {
        /// RPCs issued by the walk.
        rpcs: u64,
        /// Responses received.
        responses: u64,
        /// Failed RPCs.
        failures: u64,
        /// Deepest hop reached.
        hops: u32,
    },
    /// A dial to `peer` began.
    DialStarted {
        /// Dialed node.
        peer: usize,
    },
    /// A dial succeeded.
    DialOk {
        /// Dialed node.
        peer: usize,
        /// Whether an existing warm connection was reused.
        warm: bool,
    },
    /// A dial failed.
    DialFailed {
        /// Dialed node.
        peer: usize,
        /// Failure class (§6.1 timeout split).
        class: DialClass,
    },
    /// A previously started dial's connection came up — the exact end of
    /// the dial component in the §6.2 latency split (a warm reuse
    /// completes at the same instant it started).
    DialCompleted {
        /// Dialed node.
        peer: usize,
    },
    /// A timer guarding the operation was armed.
    TimerArmed {
        /// Timer label ("bitswap_probe", ...).
        timer: &'static str,
    },
    /// A timer guarding the operation fired.
    TimerFired {
        /// Timer label.
        timer: &'static str,
    },
    /// A wanted block arrived and was stored.
    BlockReceived,
    /// The provider's address was already cached, skipping the peer walk
    /// (the multiaddress shortcut of §3.2).
    AddrBookHit,
    /// The operation finished.
    OpFinished {
        /// Whether it succeeded.
        success: bool,
    },
}

impl TraceEventKind {
    /// Snake-case label identifying the event variant.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::OpStarted { .. } => "op_started",
            TraceEventKind::PhaseEntered { .. } => "phase_entered",
            TraceEventKind::RpcSent { .. } => "rpc_sent",
            TraceEventKind::RpcOk { .. } => "rpc_ok",
            TraceEventKind::RpcFailed { .. } => "rpc_failed",
            TraceEventKind::QueryConverged { .. } => "query_converged",
            TraceEventKind::DialStarted { .. } => "dial_started",
            TraceEventKind::DialOk { .. } => "dial_ok",
            TraceEventKind::DialFailed { .. } => "dial_failed",
            TraceEventKind::DialCompleted { .. } => "dial_completed",
            TraceEventKind::TimerArmed { .. } => "timer_armed",
            TraceEventKind::TimerFired { .. } => "timer_fired",
            TraceEventKind::BlockReceived => "block_received",
            TraceEventKind::AddrBookHit => "addr_book_hit",
            TraceEventKind::OpFinished { .. } => "op_finished",
        }
    }

    /// Variant payload as JSON key/value pairs (without braces), empty for
    /// payload-free variants.
    fn json_fields(&self) -> String {
        match self {
            TraceEventKind::OpStarted { kind } => format!(",\"kind\":\"{kind}\""),
            TraceEventKind::PhaseEntered { phase } => format!(",\"phase\":\"{phase}\""),
            TraceEventKind::RpcSent { kind, peer } => {
                format!(",\"kind\":\"{kind}\",\"peer\":{peer}")
            }
            TraceEventKind::RpcOk { peer } | TraceEventKind::RpcFailed { peer } => {
                format!(",\"peer\":{peer}")
            }
            TraceEventKind::QueryConverged { rpcs, responses, failures, hops } => format!(
                ",\"rpcs\":{rpcs},\"responses\":{responses},\"failures\":{failures},\"hops\":{hops}"
            ),
            TraceEventKind::DialStarted { peer } | TraceEventKind::DialCompleted { peer } => {
                format!(",\"peer\":{peer}")
            }
            TraceEventKind::DialOk { peer, warm } => format!(",\"peer\":{peer},\"warm\":{warm}"),
            TraceEventKind::DialFailed { peer, class } => {
                format!(",\"peer\":{peer},\"class\":\"{}\"", class.label())
            }
            TraceEventKind::TimerArmed { timer } | TraceEventKind::TimerFired { timer } => {
                format!(",\"timer\":\"{timer}\"")
            }
            TraceEventKind::BlockReceived | TraceEventKind::AddrBookHit => String::new(),
            TraceEventKind::OpFinished { success } => format!(",\"success\":{success}"),
        }
    }
}

/// One timestamped trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time the event occurred.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The accumulated trace of one operation, as its origin node saw it.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    /// The operation.
    pub op: OpId,
    /// The node that started it; with `op` it fixes the trace id
    /// ([`dtrace::trace_id`]), so a taken trace can still be stitched.
    pub origin: usize,
    /// Events in emission (and therefore time) order.
    pub events: Vec<TraceEvent>,
}

impl OpTrace {
    /// Labels of the `PhaseEntered` events, in order — the observed
    /// pipeline of the operation.
    pub fn phases(&self) -> Vec<&'static str> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::PhaseEntered { phase } => Some(phase),
                _ => None,
            })
            .collect()
    }

    /// Index of the first event matching `pred`, if any.
    pub fn position<F: Fn(&TraceEventKind) -> bool>(&self, pred: F) -> Option<usize> {
        self.events.iter().position(|e| pred(&e.kind))
    }

    /// Whether any event matches `pred`.
    pub fn contains<F: Fn(&TraceEventKind) -> bool>(&self, pred: F) -> bool {
        self.position(pred).is_some()
    }

    /// Serialises the trace as a JSON array of event objects, each with
    /// `t_us` (microseconds of simulated time), `event`, and the variant's
    /// payload fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"t_us\":{},\"event\":\"{}\"{}}}",
                ev.at.as_nanos() / 1_000,
                ev.kind.label(),
                ev.kind.json_fields()
            ));
        }
        out.push(']');
        out
    }
}

/// How much a [`Tracer`] records. Each level includes every level below
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Nothing: every record site costs one branch.
    #[default]
    Off,
    /// Each op's requester-side event log ([`OpTrace`]).
    OpLog,
    /// Plus the span fragments remote nodes record, kept for
    /// [`dtrace::stitch`], and every node's flight ring.
    Stitch,
    /// Plus a flight-recorder post-mortem for each retrieval that fails,
    /// overruns [`TraceConfig::deadline`], or re-routes wants mid-fetch.
    Postmortem,
}

/// What a [`Tracer`] records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// How much is recorded.
    pub level: TraceLevel,
    /// At [`TraceLevel::Postmortem`], a retrieval that takes longer than
    /// this also gets a post-mortem.
    pub deadline: Option<SimDuration>,
}

impl TraceConfig {
    /// The op log alone.
    pub fn enabled() -> Self {
        TraceConfig { level: TraceLevel::OpLog, deadline: None }
    }

    /// The op log plus remote fragments for stitching.
    pub fn collecting() -> Self {
        TraceConfig { level: TraceLevel::Stitch, deadline: None }
    }

    /// Everything, post-mortems included, with an optional deadline
    /// trigger.
    pub fn full(deadline: Option<SimDuration>) -> Self {
        TraceConfig { level: TraceLevel::Postmortem, deadline }
    }
}

/// Fragments each node's flight ring keeps.
const RING_CAP: usize = 64;

/// One op's tracing state.
#[derive(Debug, Clone)]
struct OpRecord {
    trace: OpTrace,
    /// `RpcSent` events so far: the span index of the op's next RPC.
    rpcs: u32,
    /// A mid-fetch re-route flagged the op for a post-mortem.
    flagged: bool,
}

/// The network's one trace recorder: a record per traced op, every
/// node's flight ring, the fragments kept for stitching, and rendered
/// post-mortems, all gated by one [`TraceConfig`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    config: TraceConfig,
    ops: HashMap<OpId, OpRecord>,
    rings: Vec<FlightRing>,
    fragments: Vec<SpanFragment>,
    postmortems: Vec<(OpId, String)>,
}

impl Tracer {
    /// Creates a tracer with the given config.
    pub fn new(config: TraceConfig) -> Self {
        Tracer { config, ..Default::default() }
    }

    /// Replaces the config (everything recorded so far is kept).
    pub fn set_config(&mut self, config: TraceConfig) {
        self.config = config;
    }

    /// Whether `level` is being recorded.
    #[inline]
    pub fn records(&self, level: TraceLevel) -> bool {
        self.config.level >= level
    }

    /// Opens the record of `op`, started at node `origin`. Ops without a
    /// record are not traced.
    pub fn start_op(&mut self, op: OpId, origin: usize) {
        if self.records(TraceLevel::OpLog) {
            let trace = OpTrace { op, origin, events: Vec::new() };
            self.ops.insert(op, OpRecord { trace, rpcs: 0, flagged: false });
        }
    }

    /// Records an event for `op` at time `at`. The closure that builds the
    /// event only runs when tracing is enabled, so the disabled path is a
    /// single branch with no allocation.
    #[inline]
    pub fn record_with<F: FnOnce() -> TraceEventKind>(&mut self, op: OpId, at: SimTime, f: F) {
        if !self.records(TraceLevel::OpLog) {
            return;
        }
        if let Some(r) = self.ops.get_mut(&op) {
            r.trace.events.push(TraceEvent { at, kind: f() });
        }
    }

    /// Records that `op` sent a `kind` RPC to `peer` and returns the
    /// context the RPC carries. Its span is numbered by the op's count of
    /// `RpcSent` events, the count [`dtrace::stitch`] reads back.
    pub fn rpc_sent(&mut self, op: OpId, at: SimTime, kind: &'static str, peer: usize) -> TraceCtx {
        let Some(r) = self.ops.get_mut(&op) else { return TraceCtx::NONE };
        r.trace.events.push(TraceEvent { at, kind: TraceEventKind::RpcSent { kind, peer } });
        let trace_id = dtrace::trace_id(r.trace.origin, op);
        let parent_span = dtrace::rpc_span(trace_id, r.rpcs);
        r.rpcs += 1;
        TraceCtx { trace_id, parent_span }
    }

    /// The trace collected for `op`, if any.
    pub fn trace(&self, op: OpId) -> Option<&OpTrace> {
        self.ops.get(&op).map(|r| &r.trace)
    }

    /// Removes and returns the trace collected for `op`, releasing every
    /// per-op entry the tracer held for it.
    pub fn take(&mut self, op: OpId) -> Option<OpTrace> {
        self.ops.remove(&op).map(|r| r.trace)
    }

    /// The node `op` started at, while its record is held.
    pub fn origin(&self, op: OpId) -> Option<usize> {
        self.ops.get(&op).map(|r| r.trace.origin)
    }

    /// Flags `op` for a post-mortem (a mid-fetch re-route was observed).
    pub fn flag(&mut self, op: OpId) {
        if let Some(r) = self.ops.get_mut(&op) {
            r.flagged = true;
        }
    }

    /// Records one remote-side span on `node`, caused by `ctx`: into the
    /// node's flight ring, and into the stitching collection when it
    /// belongs to a trace. A no-op below [`TraceLevel::Stitch`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &mut self,
        ctx: TraceCtx,
        node: usize,
        peer: Option<usize>,
        label: &'static str,
        detail: &'static str,
        a: u64,
        b: u64,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.records(TraceLevel::Stitch) {
            return;
        }
        if node >= self.rings.len() {
            self.rings.resize(node + 1, FlightRing::default());
        }
        let ring = &mut self.rings[node];
        let seq = ring.take_seq();
        let frag = SpanFragment {
            trace_id: ctx.trace_id,
            span_id: dtrace::fragment_span(ctx.trace_id, node, seq),
            parent: ctx.parent_span,
            node: node as u32,
            peer: peer.map(|p| p as u32).unwrap_or(dtrace::NO_PEER),
            label,
            detail,
            a,
            b,
            start,
            end,
            seq,
        };
        ring.push(RING_CAP, frag);
        if !ctx.is_none() {
            self.fragments.push(frag);
        }
    }

    /// Every fragment collected for stitching, in record order.
    pub fn fragments(&self) -> &[SpanFragment] {
        &self.fragments
    }

    /// Ends the flight recorder's watch over a retrieval started at
    /// `origin` at `t0`: at [`TraceLevel::Postmortem`], one that failed,
    /// overran the deadline or was flagged gets a post-mortem rendered
    /// from every ring fragment of its trace, on any node.
    pub fn finish_retrieval(
        &mut self,
        op: OpId,
        origin: usize,
        success: bool,
        t0: SimTime,
        end: SimTime,
    ) {
        if !self.records(TraceLevel::Postmortem) {
            return;
        }
        let breached = self.config.deadline.is_some_and(|d| end.since(t0) > d);
        let outcome = if !success {
            "failed"
        } else if breached {
            "deadline_breached"
        } else if self.ops.get(&op).is_some_and(|r| r.flagged) {
            "rerouted"
        } else {
            return;
        };
        let tid = dtrace::trace_id(origin, op);
        let entries = self.ring_entries(tid);
        let text = dtrace::render_postmortem(op, origin, "retrieve", outcome, t0, end, &entries);
        self.postmortems.push((op, text));
    }

    /// Removes and returns every rendered post-mortem, in op-completion
    /// order.
    pub fn drain_postmortems(&mut self) -> Vec<(OpId, String)> {
        std::mem::take(&mut self.postmortems)
    }

    /// The flight-ring entries of one trace across every node.
    fn ring_entries(&self, tid: u64) -> Vec<SpanFragment> {
        self.rings
            .iter()
            .flat_map(FlightRing::iter)
            .filter(|f| f.trace_id == tid)
            .copied()
            .collect()
    }

    /// Per-op records currently held.
    #[cfg(test)]
    pub(crate) fn open_ops(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.get("dials_attempted"), 0);
        reg.incr("dials_attempted");
        reg.add("dials_attempted", 4);
        assert_eq!(reg.get("dials_attempted"), 5);
        reg.set("gauge", 42);
        reg.set("gauge", 17);
        assert_eq!(reg.get("gauge"), 17);
    }

    #[test]
    fn handle_and_name_paths_stay_in_lockstep() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter_handle(names::DIALS_ATTEMPTED);
        let h = reg.histogram_handle(names::DHT_WALK_RPCS);
        // Interleave handle- and string-keyed writes: both must hit the
        // same storage, observable through either read path.
        reg.incr_handle(c);
        reg.incr(names::DIALS_ATTEMPTED);
        reg.add_handle(c, 3);
        reg.add(names::DIALS_ATTEMPTED, 5);
        assert_eq!(reg.get(names::DIALS_ATTEMPTED), 10);
        reg.observe_handle(h, 4.0);
        reg.observe(names::DHT_WALK_RPCS, 8.0);
        assert_eq!(reg.samples(names::DHT_WALK_RPCS), &[4.0, 8.0]);
        // Re-resolving yields the same slot; exports see the merged view.
        assert_eq!(reg.counter_handle(names::DIALS_ATTEMPTED), c);
        assert_eq!(reg.histogram_handle(names::DHT_WALK_RPCS), h);
        let json = reg.to_json();
        assert!(json.contains("\"dials_attempted\":10"), "{json}");
        assert!(json.contains("\"dht_walk_rpcs\":{\"n\":2"), "{json}");
        // The non-finite guard applies on the handle path too.
        reg.observe_handle(h, f64::NAN);
        assert_eq!(reg.get(names::OBS_SAMPLES_DROPPED), 1);
        assert_eq!(reg.stats(names::DHT_WALK_RPCS).unwrap().n, 2);
    }

    #[test]
    fn handle_registration_alone_stays_out_of_exports() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter_handle("quiet_counter");
        let _h = reg.histogram_handle("quiet_hist");
        assert_eq!(reg.to_json(), "{\"counters\":{},\"histograms\":{}}");
        assert_eq!(reg.counters().count(), 0);
        assert_eq!(reg.histogram_stats().count(), 0);
        assert!(reg.to_csv_rows().is_empty());
        assert!(reg.stats("quiet_hist").is_none());
        // A merge of registered-but-untouched slots is also invisible.
        let mut into = MetricsRegistry::new();
        into.merge(&reg);
        assert_eq!(into.to_json(), "{\"counters\":{},\"histograms\":{}}");
        // First real touch surfaces it.
        reg.incr_handle(c);
        assert_eq!(reg.to_json(), "{\"counters\":{\"quiet_counter\":1},\"histograms\":{}}");
    }

    #[test]
    fn histograms_store_raw_samples() {
        let mut reg = MetricsRegistry::new();
        for i in 0..10 {
            reg.observe("walk_rpcs", i as f64);
        }
        assert_eq!(reg.samples("walk_rpcs").len(), 10);
        assert_eq!(reg.samples("missing"), &[] as &[f64]);
    }

    #[test]
    fn merge_adds_counters_and_appends_samples() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("x", 2);
        b.add("x", 3);
        b.incr("y");
        b.observe("h", 1.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
        assert_eq!(a.samples("h"), &[1.0]);
    }

    #[test]
    fn json_export_is_well_formed() {
        let mut reg = MetricsRegistry::new();
        reg.add("rpcs", 7);
        reg.observe("latency", 1.0);
        reg.observe("latency", 3.0);
        let json = reg.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rpcs\":7"));
        assert!(json.contains("\"n\":2"));
        assert!(json.contains("\"mean\":2"));
    }

    #[test]
    fn disabled_tracer_never_invokes_closure() {
        let mut tracer = Tracer::new(TraceConfig::default());
        let mut called = false;
        tracer.record_with(OpId(1), SimTime::ZERO, || {
            called = true;
            TraceEventKind::BlockReceived
        });
        assert!(!called, "closure must not run when tracing is disabled");
        tracer.start_op(OpId(1), 0);
        assert_eq!(tracer.open_ops(), 0, "no trace storage allocated when disabled");
    }

    #[test]
    fn enabled_tracer_collects_in_order() {
        let mut tracer = Tracer::new(TraceConfig::enabled());
        let op = OpId(9);
        tracer.start_op(op, 4);
        tracer.record_with(op, SimTime::ZERO, || TraceEventKind::OpStarted { kind: "retrieve" });
        tracer.record_with(op, SimTime::ZERO + SimDuration::from_secs(1), || {
            TraceEventKind::PhaseEntered { phase: "provider_walk" }
        });
        // Events of ops that were never started are not kept.
        tracer.record_with(OpId(10), SimTime::ZERO, || TraceEventKind::BlockReceived);
        assert!(tracer.trace(OpId(10)).is_none());
        let trace = tracer.trace(op).unwrap();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.phases(), vec!["provider_walk"]);
        let taken = tracer.take(op).unwrap();
        assert_eq!((taken.op, taken.origin, taken.events.len()), (op, 4, 2));
        assert!(tracer.trace(op).is_none());
        assert_eq!(tracer.open_ops(), 0);
    }

    #[test]
    fn json_export_handles_empty_and_single_sample() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.to_json(), "{\"counters\":{},\"histograms\":{}}");
        let mut reg = MetricsRegistry::new();
        reg.observe("h", 2.5);
        let json = reg.to_json();
        assert!(json.contains("\"h\":{\"n\":1,\"mean\":2.5,\"p50\":2.5,\"p90\":2.5,\"p99\":2.5}"));
        assert_eq!(reg.stats("h").unwrap().n, 1);
        assert!(reg.stats("missing").is_none());
    }

    #[test]
    fn non_finite_samples_are_dropped_and_counted() {
        let mut reg = MetricsRegistry::new();
        reg.observe("h", f64::NAN);
        reg.observe("h", f64::INFINITY);
        reg.observe("h", f64::NEG_INFINITY);
        reg.observe("h", 1.0);
        assert_eq!(reg.get(names::OBS_SAMPLES_DROPPED), 3);
        assert_eq!(reg.samples("h"), &[1.0]);
        let json = reg.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "JSON-safe: {json}");
        // Same guard in streaming mode.
        let mut s = MetricsRegistry::with_histogram_mode(HistogramMode::Streaming);
        s.observe("h", f64::NAN);
        assert_eq!(s.get(names::OBS_SAMPLES_DROPPED), 1);
        assert!(s.stats("h").is_none());
    }

    #[test]
    fn streaming_histogram_bounds_memory_and_percentile_error() {
        let mut exact = MetricsRegistry::new();
        let mut streaming = MetricsRegistry::with_histogram_mode(HistogramMode::Streaming);
        // 100k deterministic log-uniform-ish samples spanning 1e-3..1e3.
        let mut x = 0x2545F4914F6CDD1Du64;
        for _ in 0..100_000 {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let u = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
            let v = 10f64.powf(u * 6.0 - 3.0);
            exact.observe("lat", v);
            streaming.observe("lat", v);
        }
        // Memory: O(buckets), not O(samples). The full 1e-3..1e3 span is
        // ~283 buckets at γ=1.05.
        assert_eq!(exact.histogram_footprint("lat"), 100_000);
        assert!(
            streaming.histogram_footprint("lat") <= 300,
            "streaming footprint must be bucket-bounded, got {}",
            streaming.histogram_footprint("lat")
        );
        // Percentile relative error bounded by the bucket width (≤ 2.5 %,
        // asserted with slack at 5 %); the mean is exact.
        let e = exact.stats("lat").unwrap();
        let s = streaming.stats("lat").unwrap();
        assert_eq!(e.n, s.n);
        assert!((e.mean - s.mean).abs() / e.mean < 1e-9, "mean is tracked exactly");
        for (truth, est, q) in [(e.p50, s.p50, "p50"), (e.p90, s.p90, "p90"), (e.p99, s.p99, "p99")]
        {
            let rel = (truth - est).abs() / truth;
            assert!(rel < 0.05, "{q}: exact={truth} streaming={est} rel_err={rel}");
        }
    }

    #[test]
    fn per_histogram_streaming_override_bounds_memory_and_error() {
        // The override targets hot-path histograms like
        // `bitswap_peer_latency_ms` in an otherwise-exact registry.
        let mut exact = MetricsRegistry::new();
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.histogram_mode(), HistogramMode::Exact);
        let h = reg.histogram_handle_streaming(names::BITSWAP_PEER_LATENCY_MS);
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..50_000 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let u = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
            // Plausible per-peer latency range: 1 ms .. 10 s.
            let v = 10f64.powf(u * 4.0);
            reg.observe_handle(h, v);
            exact.observe(names::BITSWAP_PEER_LATENCY_MS, v);
        }
        // Memory is bucket-bounded, not sample-bounded…
        assert!(
            reg.histogram_footprint(names::BITSWAP_PEER_LATENCY_MS) <= 250,
            "override must stream: footprint {}",
            reg.histogram_footprint(names::BITSWAP_PEER_LATENCY_MS)
        );
        assert_eq!(exact.histogram_footprint(names::BITSWAP_PEER_LATENCY_MS), 50_000);
        // …and percentiles stay within the γ-bucket error bound
        // (≤ ½·(γ−1) = 2.5 %, asserted with slack at 5 %).
        let e = exact.stats(names::BITSWAP_PEER_LATENCY_MS).unwrap();
        let s = reg.stats(names::BITSWAP_PEER_LATENCY_MS).unwrap();
        assert_eq!(e.n, s.n);
        for (truth, est, q) in [(e.p50, s.p50, "p50"), (e.p90, s.p90, "p90"), (e.p99, s.p99, "p99")]
        {
            let rel = (truth - est).abs() / truth;
            assert!(rel < 0.05, "{q}: exact={truth} streaming={est} rel_err={rel}");
        }
        // Converting after exact samples were recorded keeps every count.
        let mut late = MetricsRegistry::new();
        late.observe("h", 1.0);
        late.observe("h", 2.0);
        let lh = late.histogram_handle_streaming("h");
        late.observe_handle(lh, 3.0);
        assert_eq!(late.stats("h").unwrap().n, 3);
        assert_eq!(late.samples("h"), &[] as &[f64], "storage switched to streaming");
        // Idempotent under the registry-wide streaming mode.
        let mut wide = MetricsRegistry::with_histogram_mode(HistogramMode::Streaming);
        wide.observe("h", 1.0);
        let _ = wide.histogram_handle_streaming("h");
        assert_eq!(wide.stats("h").unwrap().n, 1);
    }

    #[test]
    fn streaming_histograms_report_no_raw_samples() {
        let mut reg = MetricsRegistry::with_histogram_mode(HistogramMode::Streaming);
        reg.observe("h", 3.0);
        assert_eq!(reg.samples("h"), &[] as &[f64]);
        assert_eq!(reg.histograms().count(), 0, "raw-sample iteration skips streaming entries");
        assert_eq!(reg.histogram_stats().count(), 1);
        let s = reg.stats("h").unwrap();
        assert_eq!(s.n, 1);
        // A single sample is pinned by the min/max clamp.
        assert_eq!(s.p50, 3.0);
    }

    #[test]
    fn merge_handles_mixed_histogram_modes() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let mut exact = MetricsRegistry::new();
        let mut streaming = MetricsRegistry::with_histogram_mode(HistogramMode::Streaming);
        for &v in &samples {
            exact.observe("h", v);
            streaming.observe("h", v);
        }
        // Streaming absorbs exact…
        let mut a = streaming.clone();
        a.merge(&exact);
        assert_eq!(a.stats("h").unwrap().n, 200);
        assert!(a.histogram_footprint("h") < 200);
        // …and an exact registry merging a streaming one converts.
        let mut b = exact.clone();
        b.merge(&streaming);
        assert_eq!(b.stats("h").unwrap().n, 200);
        assert!(b.histogram_footprint("h") < 200, "merge must not resurrect raw storage");
        let p50 = b.stats("h").unwrap().p50;
        assert!((p50 - 50.0).abs() / 50.0 < 0.05, "merged percentiles stay bounded: {p50}");
    }

    #[test]
    fn trace_json_includes_timestamps_and_payload() {
        let mut tracer = Tracer::new(TraceConfig::enabled());
        let op = OpId(3);
        tracer.start_op(op, 0);
        tracer.record_with(op, SimTime::ZERO + SimDuration::from_millis(1500), || {
            TraceEventKind::DialFailed { peer: 12, class: DialClass::Timeout5s }
        });
        let json = tracer.trace(op).unwrap().to_json();
        assert_eq!(
            json,
            "[{\"t_us\":1500000,\"event\":\"dial_failed\",\"peer\":12,\"class\":\"timeout_5s\"}]"
        );
    }
}
