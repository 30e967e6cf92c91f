//! `good-trace` — zero-dependency tracing, metrics, and profiling for
//! the GOOD reproduction.
//!
//! The engine's pattern matcher, operation layer, method machinery, and
//! journaled store all emit structured [`Span`]s through this crate.
//! The design contract, in order of importance:
//!
//! 1. **Zero cost when off.** No recorder installed means every
//!    instrumentation point reduces to one relaxed atomic load
//!    ([`enabled`]) and an immediate return — no clock read, no
//!    allocation, no lock. E14 in EXPERIMENTS.md keeps this honest with
//!    an A/B benchmark.
//! 2. **Determinism-compatible.** The engine's results are bit-identical
//!    run to run; the trace layer must not break that, and its own
//!    output must be reproducible: spans carry a per-thread begin
//!    sequence and nesting depth, so a [`SpanTree`] rebuilt from any
//!    interleaving is deterministic per thread, and
//!    [`SpanTree::canonicalize`] erases thread scheduling entirely.
//!    Timestamps are monotonic ([`std::time::Instant`]-based) and kept
//!    out of the tree's identity.
//! 3. **Thread-safe.** The server runs a reader thread per connection
//!    and a writer thread; each thread gets its own ordinal and sequence
//!    from thread-local state, and completed spans are delivered
//!    straight to the installed [`Recorder`], so nothing is lost when a
//!    thread exits.
//!
//! Alongside spans there is **one** metrics registry: `static`
//! [`LiveCounter`]s, [`LiveGauge`]s and [`LiveHistogram`]s — lock-light
//! atomics (counters are sharded by thread ordinal) that record
//! whether or not a recorder is installed, so a production server can
//! answer "what are you doing right now" without paying for span
//! capture. E19 in EXPERIMENTS.md bounds the cost at ≤2% of wire
//! throughput; [`set_live_metrics`] is the kill switch that makes the
//! A/B measurable. [`metrics_snapshot`] copies every metric touched so
//! far into a [`MetricsSnapshot`], whose [`MetricsSnapshot::to_json`]
//! is the one JSON shape, and two renderers cover spans: an indented
//! text report and Chrome `trace_event` JSON loadable in
//! `chrome://tracing` / Perfetto ([`chrome_trace_json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---- global recorder registry ------------------------------------------

/// Fast-path gate: true iff a recorder is installed. Every
/// instrumentation point checks this single relaxed load before doing
/// any other work.
static ENABLED: AtomicBool = AtomicBool::new(false);

static RECORDER: Mutex<Option<Arc<dyn Recorder>>> = Mutex::new(None);

/// True iff a [`Recorder`] is installed. Instrumentation points with a
/// dynamically built span name (or any other per-span allocation)
/// should check this before constructing arguments.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `recorder` as the process-wide span sink, enabling all
/// instrumentation. Replaces (and returns) any previous recorder.
pub fn install(recorder: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    swap_recorder(Some(recorder))
}

/// Remove the installed recorder, disabling all instrumentation, and
/// return it.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    swap_recorder(None)
}

/// Replace the installed recorder wholesale, returning the previous
/// one (the CLI's `--profile` splices its collector in this way).
/// `None` disables tracing.
pub fn swap_recorder(next: Option<Arc<dyn Recorder>>) -> Option<Arc<dyn Recorder>> {
    let mut slot = RECORDER.lock().expect("recorder registry poisoned");
    ENABLED.store(next.is_some(), Ordering::Relaxed);
    std::mem::replace(&mut slot, next)
}

/// The currently installed recorder, if any.
fn current_recorder() -> Option<Arc<dyn Recorder>> {
    RECORDER.lock().expect("recorder registry poisoned").clone()
}

/// Monotonic nanoseconds since the first trace event of the process.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

// ---- per-thread bookkeeping --------------------------------------------

static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small dense ordinal for this thread, assigned on first use.
    static THREAD_ORD: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Per-thread begin-sequence counter: spans sorted by it recover
    /// the order in which they were *opened* on the thread.
    static NEXT_SEQ: Cell<u64> = const { Cell::new(0) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn thread_ord() -> u64 {
    THREAD_ORD.with(|cell| {
        let current = cell.get();
        if current != u64::MAX {
            return current;
        }
        let assigned = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
        cell.set(assigned);
        assigned
    })
}

// ---- spans --------------------------------------------------------------

/// A typed span/metric argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned count.
    UInt(u64),
    /// A signed quantity.
    Int(i64),
    /// A floating-point quantity.
    Float(f64),
    /// A short text value.
    Text(String),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::UInt(v) => write!(f, "{v}"),
            ArgValue::Int(v) => write!(f, "{v}"),
            ArgValue::Float(v) => write!(f, "{v}"),
            ArgValue::Text(v) => f.write_str(v),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::UInt(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::UInt(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::UInt(u64::from(v))
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::UInt(u64::from(v))
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Text(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Text(v)
    }
}

/// One completed span: a named, categorized interval with arguments and
/// enough ordering metadata (`thread`, `seq`, `depth`) to rebuild the
/// per-thread nesting deterministically.
#[derive(Debug, Clone)]
pub struct Span {
    /// Coarse category (`match`, `op`, `method`, `store`, `vfs`, ...).
    pub cat: &'static str,
    /// Span name, e.g. `match/roots` or `method/Update`.
    pub name: String,
    /// Monotonic start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense per-process thread ordinal (not an OS thread id).
    pub thread: u64,
    /// Per-thread begin sequence: sorting a thread's spans by `seq`
    /// recovers the order in which they were opened.
    pub seq: u64,
    /// Nesting depth at open time on the owning thread.
    pub depth: u32,
    /// Key/value arguments attached while the span was open.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A sink for completed spans. Implementations must be cheap and
/// thread-safe: `record` is called from every thread that emits spans.
pub trait Recorder: Send + Sync {
    /// Accept one completed span.
    fn record(&self, span: Span);
}

struct ActiveSpan {
    cat: &'static str,
    name: String,
    start_ns: u64,
    thread: u64,
    seq: u64,
    depth: u32,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII guard for an open span; records it on drop. Obtain via
/// [`span`]. A guard created while tracing is disabled is inert.
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// An inert guard. Useful at instrumentation points that build the
    /// span name dynamically and gate the allocation on [`enabled`]:
    ///
    /// ```
    /// let _span = if good_trace::enabled() {
    ///     good_trace::span("method", &format!("method/{}", "Update"))
    /// } else {
    ///     good_trace::SpanGuard::disabled()
    /// };
    /// ```
    pub const fn disabled() -> Self {
        SpanGuard(None)
    }

    /// True if this guard will record a span on drop.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Attach an argument. No-op on an inert guard.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(active) = &mut self.0 {
            active.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        DEPTH.with(|depth| depth.set(depth.get().saturating_sub(1)));
        let dur_ns = now_ns().saturating_sub(active.start_ns);
        // The recorder may have been swapped out while the span was
        // open (`swap_recorder` can do this); deliver to whatever is
        // installed now, or drop silently.
        if let Some(recorder) = current_recorder() {
            recorder.record(Span {
                cat: active.cat,
                name: active.name,
                start_ns: active.start_ns,
                dur_ns,
                thread: active.thread,
                seq: active.seq,
                depth: active.depth,
                args: active.args,
            });
        }
    }
}

/// Open a span. Returns an inert guard (no clock read, no allocation)
/// when no recorder is installed.
pub fn span(cat: &'static str, name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let thread = thread_ord();
    let seq = NEXT_SEQ.with(|cell| {
        let seq = cell.get();
        cell.set(seq + 1);
        seq
    });
    let depth = DEPTH.with(|cell| {
        let depth = cell.get();
        cell.set(depth + 1);
        depth
    });
    SpanGuard(Some(ActiveSpan {
        cat,
        name: name.to_string(),
        start_ns: now_ns(),
        thread,
        seq,
        depth,
        args: Vec::new(),
    }))
}

// ---- collector -----------------------------------------------------------

/// The standard in-memory [`Recorder`]: accumulates spans under a
/// mutex. Safe to share across threads.
#[derive(Default)]
pub struct Collector {
    spans: Mutex<Vec<Span>>,
}

impl Collector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Number of spans collected so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("collector poisoned").len()
    }

    /// True when no spans have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain all collected spans, sorted by `(thread, seq)` — i.e. by
    /// per-thread open order, threads in first-use order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("collector poisoned"));
        spans.sort_by_key(|s| (s.thread, s.seq));
        spans
    }

    /// Copy of the collected spans (same order as [`Collector::take`])
    /// without draining.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("collector poisoned").clone();
        spans.sort_by_key(|s| (s.thread, s.seq));
        spans
    }
}

impl Recorder for Collector {
    fn record(&self, span: Span) {
        self.spans.lock().expect("collector poisoned").push(span);
    }
}

// ---- span trees ----------------------------------------------------------

/// One node of a reconstructed span tree. Identity is `(cat, name,
/// args, children)` — durations are carried but excluded from
/// [`SpanTree::render`] so trees of deterministic
/// workloads compare byte-for-byte across runs.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span category.
    pub cat: &'static str,
    /// Span name.
    pub name: String,
    /// Stringified arguments, in attachment order.
    pub args: Vec<(String, String)>,
    /// Wall-clock duration (not part of tree identity).
    pub dur_ns: u64,
    /// Child spans, in per-thread open order (or canonical order after
    /// [`SpanTree::canonicalize`]).
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A canonical content key: the rendered subtree. Used to sort
    /// siblings scheduling-independently.
    fn key(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push_str("  [");
        out.push_str(self.cat);
        out.push(']');
        for (key, value) in &self.args {
            out.push(' ');
            out.push_str(key);
            out.push('=');
            out.push_str(value);
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, indent + 1);
        }
    }
}

/// A forest of spans reconstructed from a flat capture.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// Root spans (depth 0 on their owning thread), thread by thread.
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// Rebuild the forest from captured spans. Within a thread, spans
    /// are ordered by begin sequence and nested by recorded depth —
    /// both deterministic for a deterministic workload. Spans opened on
    /// other threads (whose stacks are independent) appear as roots.
    pub fn build(spans: &[Span]) -> SpanTree {
        let mut sorted: Vec<&Span> = spans.iter().collect();
        sorted.sort_by_key(|s| (s.thread, s.seq));
        let mut roots: Vec<SpanNode> = Vec::new();
        // Stack of (depth, index-path) per thread; rebuilt on thread switch.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        let mut current_thread = None;
        for span in sorted {
            if current_thread != Some(span.thread) {
                current_thread = Some(span.thread);
                stack.clear();
            }
            while let Some((depth, _)) = stack.last() {
                if *depth >= span.depth {
                    stack.pop();
                } else {
                    break;
                }
            }
            let node = SpanNode {
                cat: span.cat,
                name: span.name.clone(),
                args: span
                    .args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                dur_ns: span.dur_ns,
                children: Vec::new(),
            };
            // Walk the index path to the insertion point.
            let siblings = {
                let mut level: &mut Vec<SpanNode> = &mut roots;
                for (_, index) in &stack {
                    level = &mut level[*index].children;
                }
                level
            };
            siblings.push(node);
            stack.push((span.depth, siblings.len() - 1));
        }
        SpanTree { roots }
    }

    /// Sort sibling subtrees (recursively, roots included) by content,
    /// erasing thread-scheduling order. Two runs of the same
    /// deterministic workload render identically after this, whatever
    /// the thread count.
    pub fn canonicalize(&mut self) {
        fn sort(nodes: &mut [SpanNode]) {
            for node in nodes.iter_mut() {
                sort(&mut node.children);
            }
            nodes.sort_by_cached_key(SpanNode::key);
        }
        sort(&mut self.roots);
    }

    /// Indented text rendering *without* timestamps or durations: the
    /// deterministic identity of the tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            root.render_into(&mut out, 0);
        }
        out
    }
}

/// Human formatting for a nanosecond duration.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---- Chrome trace_event output ------------------------------------------

fn escape_json(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render captured spans as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form), loadable in `chrome://tracing`
/// and Perfetto. Every span becomes a complete (`"ph":"X"`) event;
/// timestamps are microseconds relative to the process trace epoch;
/// `tid` is the dense thread ordinal. Argument values are emitted as
/// strings so the vendored minimal JSON reader can round-trip them.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.thread, s.seq));
    let mut out = String::from("{\"traceEvents\":[");
    for (index, span) in sorted.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&span.name, &mut out);
        out.push_str("\",\"cat\":\"");
        escape_json(span.cat, &mut out);
        out.push_str("\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        out.push_str(&span.thread.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&format!(
            "{}.{:03}",
            span.start_ns / 1000,
            span.start_ns % 1000
        ));
        out.push_str(",\"dur\":");
        out.push_str(&format!("{}.{:03}", span.dur_ns / 1000, span.dur_ns % 1000));
        out.push_str(",\"args\":{");
        for (arg_index, (key, value)) in span.args.iter().enumerate() {
            if arg_index > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(key, &mut out);
            out.push_str("\":\"");
            escape_json(&value.to_string(), &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

// ---- metrics snapshot ---------------------------------------------------

/// Inclusive ("le") upper bound of power-of-two bucket `index`: bucket
/// 0 holds only zeros; bucket i holds `[2^(i-1), 2^i)`.
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A point-in-time copy of a [`LiveHistogram`]: total count, sum
/// (wrapping), max, and the non-empty `(inclusive upper bound, count)`
/// buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)` pairs,
    /// ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 when the histogram is empty). Power-of-two buckets make this
    /// an upper estimate within 2x of the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (upper, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return (*upper).min(self.max);
            }
        }
        self.max
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time copy of the metrics registry ([`metrics_snapshot`])
/// that renders to the stable JSON shape consumed by the stats wire
/// frame and the CLI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges by name.
    pub gauges: Vec<(String, i64)>,
    /// Power-of-two histograms by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(existing, _)| existing == name)
            .map(|(_, histogram)| histogram)
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(existing, _)| existing == name)
            .map(|(_, total)| *total)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(existing, _)| existing == name)
            .map(|(_, value)| *value)
    }

    /// Render as a JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{"count":..,"sum":..,"max":..,"buckets":[[le,count],..]}}}`.
    /// Names are escaped, so arbitrary strings stay parseable.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        for (index, (name, total)) in self.counters.iter().enumerate() {
            if index > 0 {
                counters.push(',');
            }
            counters.push('"');
            escape_json(name, &mut counters);
            counters.push_str(&format!("\":{total}"));
        }
        let mut gauges = String::new();
        for (index, (name, value)) in self.gauges.iter().enumerate() {
            if index > 0 {
                gauges.push(',');
            }
            gauges.push('"');
            escape_json(name, &mut gauges);
            gauges.push_str(&format!("\":{value}"));
        }
        let mut histograms = String::new();
        for (index, (name, histogram)) in self.histograms.iter().enumerate() {
            if index > 0 {
                histograms.push(',');
            }
            histograms.push('"');
            escape_json(name, &mut histograms);
            histograms.push_str(&format!(
                "\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                histogram.count, histogram.sum, histogram.max
            ));
            for (bucket_index, (upper, count)) in histogram.buckets.iter().enumerate() {
                if bucket_index > 0 {
                    histograms.push(',');
                }
                histograms.push_str(&format!("[{upper},{count}]"));
            }
            histograms.push_str("]}");
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }
}

/// Escape `text` for embedding inside a JSON string literal (quotes
/// not included). Shared by every hand-rolled JSON emitter in the
/// workspace so escaping bugs have one home.
pub fn escape_json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_json(text, &mut out);
    out
}

// ---- always-on live metrics ---------------------------------------------
//
// These record even when no `Recorder` is installed: a production
// server needs frame counts, queue depth, and stage latencies at all
// times, not only while profiling. The design keeps the hot path
// lock-free:
//
//   * counters are sharded `AtomicU64`s (indexed by thread ordinal) so
//     concurrent connection threads never contend on one cache line;
//   * histograms are fixed arrays of atomics (pow2 buckets: bucket `i`
//     counts observations in `[2^(i-1), 2^i)`, bucket 0 counts zeros);
//   * metrics are `static`s registered lazily into a global list on
//     first touch — one mutex acquisition per metric per process, then
//     never again (a relaxed flag short-circuits).
//
// `set_live_metrics(false)` is the kill switch used by the E19 bench
// to measure the overhead A/B; the gate in CI holds it at ≤2% of E17
// pipelined throughput.

static LIVE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn the always-on live metrics path on or off (default: on). Only
/// the E19 overhead bench and tests should ever turn it off.
pub fn set_live_metrics(on: bool) {
    LIVE_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the live metrics path is recording.
pub fn live_metrics_enabled() -> bool {
    LIVE_ENABLED.load(Ordering::Relaxed)
}

/// Shards per [`LiveCounter`]. Eight covers the writer, the ack pumps,
/// and a handful of reader threads without false sharing mattering.
const LIVE_SHARDS: usize = 8;

/// One cache line per shard so concurrent `add`s don't ping-pong.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

enum LiveMetric {
    Counter(&'static LiveCounter),
    Gauge(&'static LiveGauge),
    Histogram(&'static LiveHistogram),
}

fn live_registry() -> &'static Mutex<Vec<LiveMetric>> {
    static LIVE_REGISTRY: OnceLock<Mutex<Vec<LiveMetric>>> = OnceLock::new();
    LIVE_REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn live_register(flag: &AtomicBool, metric: impl FnOnce() -> LiveMetric) {
    if flag.load(Ordering::Relaxed) {
        return;
    }
    let mut registry = live_registry().lock().expect("live registry poisoned");
    if !flag.load(Ordering::Relaxed) {
        registry.push(metric());
        flag.store(true, Ordering::Relaxed);
    }
}

/// A monotonically increasing counter, sharded across cache lines.
/// Declare as a `static` and call [`LiveCounter::add`] from any thread.
pub struct LiveCounter {
    name: &'static str,
    registered: AtomicBool,
    shards: [PaddedU64; LIVE_SHARDS],
}

impl LiveCounter {
    /// Const-construct (for `static` declarations).
    pub const fn new(name: &'static str) -> LiveCounter {
        LiveCounter {
            name,
            registered: AtomicBool::new(false),
            shards: [const { PaddedU64(AtomicU64::new(0)) }; LIVE_SHARDS],
        }
    }

    /// Add `delta`. Lock-free after the first call process-wide.
    pub fn add(&'static self, delta: u64) {
        if !live_metrics_enabled() {
            return;
        }
        live_register(&self.registered, || LiveMetric::Counter(self));
        let shard = thread_ord() as usize % LIVE_SHARDS;
        self.shards[shard].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current total across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for shard in &self.shards {
            shard.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time gauge (queue depth, connection count). Declare as a
/// `static` and call [`LiveGauge::set`] / [`LiveGauge::add`].
pub struct LiveGauge {
    name: &'static str,
    registered: AtomicBool,
    value: AtomicI64,
}

impl LiveGauge {
    /// Const-construct (for `static` declarations).
    pub const fn new(name: &'static str) -> LiveGauge {
        LiveGauge {
            name,
            registered: AtomicBool::new(false),
            value: AtomicI64::new(0),
        }
    }

    /// Set the current value.
    pub fn set(&'static self, value: i64) {
        if !live_metrics_enabled() {
            return;
        }
        live_register(&self.registered, || LiveMetric::Gauge(self));
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adjust the current value by `delta` (connection open/close).
    pub fn add(&'static self, delta: i64) {
        if !live_metrics_enabled() {
            return;
        }
        live_register(&self.registered, || LiveMetric::Gauge(self));
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A power-of-two histogram of atomics, safe to observe into from any
/// thread without locks.
pub struct LiveHistogram {
    name: &'static str,
    registered: AtomicBool,
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LiveHistogram {
    /// Const-construct (for `static` declarations).
    pub const fn new(name: &'static str) -> LiveHistogram {
        LiveHistogram {
            name,
            registered: AtomicBool::new(false),
            buckets: [const { AtomicU64::new(0) }; 65],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation (typically nanoseconds).
    pub fn observe(&'static self, value: u64) {
        if !live_metrics_enabled() {
            return;
        }
        live_register(&self.registered, || LiveMetric::Histogram(self));
        let index = (64 - value.leading_zeros()) as usize;
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copy into the snapshot form. Concurrent
    /// `observe` calls may straddle the copy; each bucket read is
    /// itself consistent, which is all the JSON consumers need.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (index, bucket) in self.buckets.iter().enumerate() {
            let count = bucket.load(Ordering::Relaxed);
            if count > 0 {
                buckets.push((bucket_upper(index), count));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Snapshot every metric touched so far, sorted by name.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let registry = live_registry().lock().expect("live registry poisoned");
    let mut snapshot = MetricsSnapshot::default();
    for metric in registry.iter() {
        match metric {
            LiveMetric::Counter(counter) => snapshot
                .counters
                .push((counter.name.to_string(), counter.get())),
            LiveMetric::Gauge(gauge) => snapshot.gauges.push((gauge.name.to_string(), gauge.get())),
            LiveMetric::Histogram(histogram) => snapshot
                .histograms
                .push((histogram.name.to_string(), histogram.snapshot())),
        }
    }
    snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot
}

/// Zero every metric (the metrics stay registered). For tests;
/// production servers never reset.
pub fn reset_metrics() {
    let registry = live_registry().lock().expect("live registry poisoned");
    for metric in registry.iter() {
        match metric {
            LiveMetric::Counter(counter) => counter.reset(),
            LiveMetric::Gauge(gauge) => gauge.reset(),
            LiveMetric::Histogram(histogram) => histogram.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-global recorder slot; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = lock();
        uninstall();
        let mut span = span("test", "never");
        assert!(!span.is_live());
        span.arg("k", 1u64); // no-op, no panic
    }

    #[test]
    fn spans_nest_and_merge_deterministically() {
        let _guard = lock();
        let collector = Arc::new(Collector::new());
        install(collector.clone());
        {
            let mut outer = span("test", "outer");
            outer.arg("n", 2u64);
            {
                let _a = span("test", "child-a");
            }
            {
                let _b = span("test", "child-b");
            }
        }
        uninstall();
        let spans = collector.take();
        assert_eq!(spans.len(), 3);
        let tree = SpanTree::build(&spans);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "outer");
        assert_eq!(tree.roots[0].children.len(), 2);
        assert_eq!(tree.roots[0].children[0].name, "child-a");
        let rendered = tree.render();
        assert!(rendered.contains("outer  [test] n=2"), "{rendered}");
        assert!(
            !rendered.contains("ns"),
            "durations must stay out: {rendered}"
        );
    }

    #[test]
    fn scoped_worker_threads_get_their_own_roots() {
        let _guard = lock();
        let collector = Arc::new(Collector::new());
        install(collector.clone());
        {
            let _outer = span("test", "driver");
            std::thread::scope(|scope| {
                for index in 0..2 {
                    scope.spawn(move || {
                        let mut worker = span("test", "worker");
                        worker.arg("chunk", index as u64);
                    });
                }
            });
        }
        uninstall();
        let spans = collector.take();
        assert_eq!(spans.len(), 3);
        let mut tree = SpanTree::build(&spans);
        // Worker spans are roots of their own threads; the driver span
        // has no children.
        assert_eq!(tree.roots.len(), 3);
        tree.canonicalize();
        let rendered = tree.render();
        assert!(rendered.contains("chunk=0") && rendered.contains("chunk=1"));
    }

    #[test]
    fn canonicalize_erases_sibling_order() {
        let make = |first: &str, second: &str| {
            let spans = vec![
                Span {
                    cat: "t",
                    name: first.into(),
                    start_ns: 0,
                    dur_ns: 1,
                    thread: 0,
                    seq: 0,
                    depth: 0,
                    args: vec![],
                },
                Span {
                    cat: "t",
                    name: second.into(),
                    start_ns: 1,
                    dur_ns: 1,
                    thread: 1,
                    seq: 0,
                    depth: 0,
                    args: vec![],
                },
            ];
            let mut tree = SpanTree::build(&spans);
            tree.canonicalize();
            tree.render()
        };
        assert_eq!(make("a", "b"), make("b", "a"));
    }

    #[test]
    fn chrome_json_shape() {
        let spans = vec![Span {
            cat: "match",
            name: "match/find".into(),
            start_ns: 1_234_567,
            dur_ns: 89_012,
            thread: 0,
            seq: 0,
            depth: 0,
            args: vec![("matchings", ArgValue::UInt(3))],
        }];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"matchings\":\"3\""), "{json}");
    }

    #[test]
    fn histogram_bucket_bounds() {
        let _guard = lock();
        static BOUNDS: LiveHistogram = LiveHistogram::new("test.live.bounds");
        reset_metrics();
        for value in [0, 1, 2, u64::MAX] {
            BOUNDS.observe(value);
        }
        let snapshot = BOUNDS.snapshot();
        assert_eq!(snapshot.buckets[0], (0, 1)); // zeros land in bucket 0 (le 0)
        assert_eq!(snapshot.buckets[1], (1, 1)); // [1, 2) → le 1
        assert_eq!(snapshot.buckets[2], (3, 1)); // [2, 4) → le 3
        assert_eq!(snapshot.buckets[3], (u64::MAX, 1));
        assert_eq!((snapshot.count, snapshot.max), (4, u64::MAX));
        reset_metrics();
    }

    #[test]
    fn live_metrics_record_without_a_recorder() {
        let _guard = lock();
        uninstall(); // explicitly no recorder: live metrics still record
        static HITS: LiveCounter = LiveCounter::new("test.live.hits");
        static DEPTH_GAUGE: LiveGauge = LiveGauge::new("test.live.depth");
        static LAT: LiveHistogram = LiveHistogram::new("test.live.lat");
        reset_metrics();
        HITS.add(2);
        HITS.incr();
        DEPTH_GAUGE.set(10);
        DEPTH_GAUGE.add(-3);
        LAT.observe(1000);
        LAT.observe(1500);
        assert_eq!(HITS.get(), 3);
        assert_eq!(DEPTH_GAUGE.get(), 7);
        let snapshot = metrics_snapshot();
        assert_eq!(snapshot.counter("test.live.hits"), Some(3));
        assert_eq!(snapshot.gauge("test.live.depth"), Some(7));
        let lat = snapshot.histogram("test.live.lat").expect("lat registered");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max, 1500);
        assert_eq!(lat.sum, 2500);
        let json = snapshot.to_json();
        assert!(json.contains("\"test.live.hits\":3"), "{json}");
        assert!(json.contains("\"test.live.depth\":7"), "{json}");
        // 1000 lands in [512, 1024) (le 1023), 1500 in [1024, 2048).
        assert!(json.contains("[[1023,1],[2047,1]]"), "{json}");
        reset_metrics();
        assert_eq!(HITS.get(), 0);
        // Reset keeps registration: the name still appears, zeroed.
        assert_eq!(metrics_snapshot().counter("test.live.hits"), Some(0));
    }

    #[test]
    fn live_metrics_kill_switch() {
        let _guard = lock();
        static OFF_HITS: LiveCounter = LiveCounter::new("test.live.off");
        reset_metrics();
        set_live_metrics(false);
        OFF_HITS.add(5);
        set_live_metrics(true);
        assert_eq!(OFF_HITS.get(), 0);
        OFF_HITS.add(5);
        assert_eq!(OFF_HITS.get(), 5);
        reset_metrics();
    }

    #[test]
    fn live_counter_shards_sum_across_threads() {
        let _guard = lock();
        static SHARDED: LiveCounter = LiveCounter::new("test.live.sharded");
        reset_metrics();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        SHARDED.incr();
                    }
                });
            }
        });
        assert_eq!(SHARDED.get(), 8000);
        reset_metrics();
    }

    #[test]
    fn histogram_snapshot_quantiles() {
        // 90 observations of 100 (le 127), 10 of 10 000 (le 16383).
        let snapshot = HistogramSnapshot {
            count: 100,
            sum: 90 * 100 + 10 * 10_000,
            max: 10_000,
            buckets: vec![(127, 90), (16_383, 10)],
        };
        assert_eq!(snapshot.quantile(0.5), 127);
        assert_eq!(snapshot.quantile(0.99), 10_000); // capped at max
        assert_eq!(snapshot.quantile(1.0), 10_000);
        assert_eq!(snapshot.mean(), (90 * 100 + 10 * 10_000) / 100);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn escape_json_str_handles_controls() {
        assert_eq!(escape_json_str("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json_str("\u{1}"), "\\u0001");
    }
}
