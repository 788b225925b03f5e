//! Always-on observability: a zero-dependency, thread-safe metrics registry
//! plus a lightweight span API and a pluggable event sink.
//!
//! The tutorial's Fig. 1 pipeline is a multi-stage system whose value is
//! *measured* — comparisons pruned by meta-blocking, matches per comparison
//! over time in progressive ER, retries absorbed by the fault-tolerant
//! executors. This module makes those numbers visible in the live pipeline
//! instead of only inside `er-bench` experiments:
//!
//! * [`Obs`] — the handle every instrumented layer takes. [`Obs::enabled`]
//!   backs it with a shared [`registry`](Obs::snapshot); [`Obs::disabled`]
//!   is a no-op whose metric handles are `None` all the way down, so the
//!   disabled path costs a branch per call site (no locks, no allocation —
//!   the same < 5% bar the fault-tolerance layer meets, measured as E16).
//! * [`Counter`] / [`Gauge`] — atomic scalars. Counters are monotone `u64`
//!   adds; gauges store an `f64` bit pattern (pruning ratios, budgets).
//! * [`Histogram`] — fixed log2 buckets (`[0], [1], [2,3], [4,7], …`), one
//!   atomic per bucket, so recording is lock-free and snapshots are
//!   mergeable. Used for block sizes, task latencies and match positions.
//! * [`Span`] — RAII wall-clock timing with parent nesting: a span opened
//!   while another span is live on the same thread records that span as its
//!   parent, giving the snapshot a stage hierarchy without a tracing
//!   dependency.
//! * [`Event`] / [`EventSink`] — structured warnings replacing ad-hoc
//!   `eprintln!`: the default sink writes to stderr (preserving historical
//!   behavior), a [`CaptureSink`] collects events for tests and library
//!   users, [`NullSink`] silences them.
//! * [`MetricsSnapshot`] — a point-in-time copy of every metric, exported
//!   as deterministic sorted-key JSON ([`MetricsSnapshot::to_json`]) and
//!   re-imported by the CI checker ([`MetricsSnapshot::from_json`]).
//!
//! Metric names are dotted lowercase paths (`stage.metric`), catalogued in
//! `docs/observability.md`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of log2 histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`, and the last bucket tops
/// out at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Events and sinks
// ---------------------------------------------------------------------------

/// A structured observability event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Something recoverable went wrong in a stage (a rejected checkpoint, a
    /// degraded meta-blocking run, a failed checkpoint write).
    Warning {
        /// The pipeline stage or subsystem reporting the warning.
        stage: String,
        /// Human-readable cause.
        reason: String,
    },
    /// A noteworthy but healthy occurrence (a stage retried and recovered).
    Info {
        /// The pipeline stage or subsystem reporting the event.
        stage: String,
        /// Human-readable message.
        message: String,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Warning { stage, reason } => write!(f, "warning: {stage}: {reason}"),
            Event::Info { stage, message } => write!(f, "info: {stage}: {message}"),
        }
    }
}

/// Where emitted [`Event`]s go. Implementations must be cheap and must not
/// panic; they run inline on the emitting thread.
pub trait EventSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);
}

/// The default sink: one line per event on stderr — exactly the historical
/// `eprintln!` behavior the structured events replace.
#[derive(Debug, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, event: &Event) {
        eprintln!("{event}");
    }
}

/// Swallows every event. Install to silence library warnings.
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Collects events in memory for later inspection (tests, library users that
/// want to surface warnings in their own UI).
#[derive(Debug, Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    /// An empty capture sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything captured so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("capture sink poisoned").clone()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("capture sink poisoned").len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for CaptureSink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("capture sink poisoned")
            .push(event.clone());
    }
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotone counter handle. Cheap to clone; a disabled handle is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// An `f64` gauge handle (stored as a bit pattern in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn value(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Shared storage of one histogram: per-bucket atomics plus count and sum.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A histogram handle over fixed log2 buckets. Recording is lock-free.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// The bucket index of a value: 0 for 0, `floor(log2(v)) + 1` otherwise.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The inclusive `[lo, hi]` range of bucket `i`. Locked by a snapshot
    /// test — changing these boundaries invalidates recorded snapshots.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded values (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }
}

/// Wall-clock and call-count accounting of one span name.
#[derive(Clone, Debug, Default)]
struct SpanStat {
    count: u64,
    total: Duration,
    parent: Option<String>,
}

// ---------------------------------------------------------------------------
// Registry and the Obs handle
// ---------------------------------------------------------------------------

/// The shared registry behind an enabled [`Obs`]. Metric handles hold `Arc`s
/// into it, so the registry lock is only taken on handle creation and
/// snapshotting — never on the hot record path.
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    sink: Mutex<Arc<dyn EventSink>>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
            sink: Mutex::new(Arc::new(StderrSink)),
        }
    }

    fn finish_span(&self, name: &str, parent: Option<String>, elapsed: Duration) {
        let mut spans = self.spans.lock().expect("span registry poisoned");
        let stat = spans.entry(name.to_string()).or_default();
        stat.count += 1;
        stat.total += elapsed;
        if stat.parent.is_none() {
            stat.parent = parent;
        }
    }
}

thread_local! {
    /// The stack of open span names on this thread, for parent attribution.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The observability handle. Cheap to clone and share; every instrumented
/// layer takes one. A disabled handle is a `None` all the way down — metric
/// handles it vends are no-ops and spans don't read the clock.
#[derive(Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Obs {
    /// An enabled handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Obs {
            registry: Some(Arc::new(Registry::new())),
        }
    }

    /// The no-op handle (also `Obs::default()`).
    pub fn disabled() -> Self {
        Obs { registry: None }
    }

    /// Whether metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// A counter handle for `name` (registered on first use).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.registry {
            None => Counter(None),
            Some(r) => {
                let mut m = r.counters.lock().expect("counter registry poisoned");
                Counter(Some(Arc::clone(m.entry(name.to_string()).or_default())))
            }
        }
    }

    /// A gauge handle for `name` (registered on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.registry {
            None => Gauge(None),
            Some(r) => {
                let mut m = r.gauges.lock().expect("gauge registry poisoned");
                Gauge(Some(Arc::clone(m.entry(name.to_string()).or_default())))
            }
        }
    }

    /// A histogram handle for `name` (registered on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.registry {
            None => Histogram(None),
            Some(r) => {
                let mut m = r.histograms.lock().expect("histogram registry poisoned");
                Histogram(Some(Arc::clone(
                    m.entry(name.to_string())
                        .or_insert_with(|| Arc::new(HistogramCore::new())),
                )))
            }
        }
    }

    /// Opens a span: wall-clock from now until the returned guard is dropped
    /// (or [`Span::finish`]ed) is recorded under `name`. A span opened while
    /// another is live on this thread records that span as its parent.
    pub fn span(&self, name: &str) -> Span {
        match &self.registry {
            None => Span { inner: None },
            Some(r) => {
                let parent = SPAN_STACK.with(|s| {
                    let mut stack = s.borrow_mut();
                    let parent = stack.last().cloned();
                    stack.push(name.to_string());
                    parent
                });
                Span {
                    inner: Some(SpanInner {
                        registry: Arc::clone(r),
                        name: name.to_string(),
                        parent,
                        started: Instant::now(),
                    }),
                }
            }
        }
    }

    /// Emits a structured event. Enabled handles count it and forward it to
    /// the configured sink; a disabled handle writes straight to stderr, so
    /// warnings are never lost just because metrics are off.
    pub fn emit(&self, event: Event) {
        match &self.registry {
            None => StderrSink.emit(&event),
            Some(r) => {
                let name = match &event {
                    Event::Warning { .. } => "events.warning",
                    Event::Info { .. } => "events.info",
                };
                self.counter(name).incr();
                let sink = Arc::clone(&r.sink.lock().expect("sink poisoned"));
                sink.emit(&event);
            }
        }
    }

    /// Replaces the event sink (no-op on a disabled handle, which always
    /// writes to stderr).
    pub fn set_sink(&self, sink: Arc<dyn EventSink>) {
        if let Some(r) = &self.registry {
            *r.sink.lock().expect("sink poisoned") = sink;
        }
    }

    /// A point-in-time copy of every registered metric (empty when
    /// disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(r) = &self.registry else {
            return MetricsSnapshot::default();
        };
        let counters = r
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = r
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = r
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then(|| {
                            let (lo, hi) = Histogram::bucket_bounds(i);
                            BucketSnapshot { lo, hi, count: n }
                        })
                    })
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                    },
                )
            })
            .collect();
        let spans = r
            .spans
            .lock()
            .expect("span registry poisoned")
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    SpanSnapshot {
                        count: s.count,
                        total_micros: s.total.as_micros() as u64,
                        parent: s.parent.clone(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

/// Live state of an open [`Span`].
struct SpanInner {
    registry: Arc<Registry>,
    name: String,
    parent: Option<String>,
    started: Instant,
}

/// An RAII span guard: records wall-clock under its name when dropped.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed = inner.started.elapsed();
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Pop this span; tolerate out-of-order drops by removing the
                // deepest occurrence of the name instead of blind-popping.
                if let Some(pos) = stack.iter().rposition(|n| n == &inner.name) {
                    stack.remove(pos);
                }
            });
            inner
                .registry
                .finish_span(&inner.name, inner.parent, elapsed);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots and JSON
// ---------------------------------------------------------------------------

/// One non-empty log2 bucket of a [`HistogramSnapshot`]: values in
/// `[lo, hi]` were recorded `count` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Inclusive upper bound of the bucket.
    pub hi: u64,
    /// Number of recorded values in the bucket.
    pub count: u64,
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty buckets in ascending bound order.
    pub buckets: Vec<BucketSnapshot>,
}

/// Point-in-time copy of one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Times the span was opened and closed.
    pub count: u64,
    /// Total wall-clock across all closures, in microseconds.
    pub total_micros: u64,
    /// The span live when this one first opened, if any.
    pub parent: Option<String>,
}

/// A point-in-time copy of every metric in a registry, exportable as
/// deterministic sorted-key JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Spans by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, `None` when never registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// A gauge's value, `None` when never registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A span's snapshot, `None` when never opened.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.get(name)
    }

    /// Serializes the snapshot as JSON with fully deterministic layout:
    /// objects are sorted by key (the `BTreeMap` order), struct fields are
    /// emitted in a fixed order, and numbers use Rust's shortest-round-trip
    /// formatting. Two snapshots with equal contents serialize byte-equal.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        write_map(&mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"gauges\": {");
        write_map(&mut out, &self.gauges, |out, v| write_f64(out, *v));
        out.push_str("},\n  \"histograms\": {");
        write_map(&mut out, &self.histograms, |out, h| {
            out.push_str(&format!(
                "{{\"buckets\": [{}], \"count\": {}, \"sum\": {}}}",
                h.buckets
                    .iter()
                    .map(|b| format!(
                        "{{\"count\": {}, \"hi\": {}, \"lo\": {}}}",
                        b.count, b.hi, b.lo
                    ))
                    .collect::<Vec<_>>()
                    .join(", "),
                h.count,
                h.sum
            ))
        });
        out.push_str("},\n  \"spans\": {");
        write_map(&mut out, &self.spans, |out, s| {
            out.push_str("{\"count\": ");
            out.push_str(&s.count.to_string());
            out.push_str(", \"parent\": ");
            match &s.parent {
                Some(p) => {
                    out.push_str(&json_string(p));
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"total_micros\": ");
            out.push_str(&s.total_micros.to_string());
            out.push('}');
        });
        out.push_str("}\n}\n");
        out
    }

    /// Parses a snapshot previously produced by [`to_json`]. Accepts any
    /// whitespace layout; unknown top-level or nested keys are rejected so a
    /// drifted producer fails loudly instead of silently dropping data.
    ///
    /// [`to_json`]: MetricsSnapshot::to_json
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = json::parse(text)?;
        let top = value.as_object("top level")?;
        let mut snap = MetricsSnapshot::default();
        for (key, val) in top {
            match key.as_str() {
                "counters" => {
                    for (name, v) in val.as_object("counters")? {
                        snap.counters.insert(name.clone(), v.as_u64(name)?);
                    }
                }
                "gauges" => {
                    for (name, v) in val.as_object("gauges")? {
                        snap.gauges.insert(name.clone(), v.as_f64(name)?);
                    }
                }
                "histograms" => {
                    for (name, v) in val.as_object("histograms")? {
                        let fields = v.as_object(name)?;
                        let mut h = HistogramSnapshot::default();
                        for (f, fv) in fields {
                            match f.as_str() {
                                "count" => h.count = fv.as_u64(f)?,
                                "sum" => h.sum = fv.as_u64(f)?,
                                "buckets" => {
                                    for b in fv.as_array(f)? {
                                        let bf = b.as_object("bucket")?;
                                        let mut bs = BucketSnapshot {
                                            lo: 0,
                                            hi: 0,
                                            count: 0,
                                        };
                                        for (bk, bv) in bf {
                                            match bk.as_str() {
                                                "lo" => bs.lo = bv.as_u64(bk)?,
                                                "hi" => bs.hi = bv.as_u64(bk)?,
                                                "count" => bs.count = bv.as_u64(bk)?,
                                                other => {
                                                    return Err(format!(
                                                        "unknown bucket field {other:?}"
                                                    ))
                                                }
                                            }
                                        }
                                        h.buckets.push(bs);
                                    }
                                }
                                other => return Err(format!("unknown histogram field {other:?}")),
                            }
                        }
                        snap.histograms.insert(name.clone(), h);
                    }
                }
                "spans" => {
                    for (name, v) in val.as_object("spans")? {
                        let fields = v.as_object(name)?;
                        let mut s = SpanSnapshot::default();
                        for (f, fv) in fields {
                            match f.as_str() {
                                "count" => s.count = fv.as_u64(f)?,
                                "total_micros" => s.total_micros = fv.as_u64(f)?,
                                "parent" => {
                                    s.parent = match fv {
                                        json::Value::Null => None,
                                        other => Some(other.as_str(f)?.to_string()),
                                    }
                                }
                                other => return Err(format!("unknown span field {other:?}")),
                            }
                        }
                        snap.spans.insert(name.clone(), s);
                    }
                }
                other => return Err(format!("unknown top-level key {other:?}")),
            }
        }
        Ok(snap)
    }
}

/// Writes the entries of a sorted map as JSON object members (without the
/// surrounding braces, which the caller owns for indentation control).
fn write_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        out.push_str(&json_string(k));
        out.push_str(": ");
        write_value(out, v);
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

/// Formats an `f64` deterministically: shortest-round-trip via `{}`, with an
/// explicit `.0` suffix for integral values so the reader can tell gauges
/// from counters, and `null` for non-finite values (JSON has no NaN/inf).
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = v.to_string();
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') {
        out.push_str(".0");
    }
}

/// `s` as a quoted JSON string literal — the workspace's one JSON string
/// escaper (snapshots, quarantine reports, scenario scorecards).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal JSON reader for the subset [`MetricsSnapshot::to_json`] emits:
/// objects, arrays, strings, numbers and `null`. Kept private to the obs
/// module — it exists so the CI checker can parse snapshots without an
/// external dependency, not as a general-purpose parser.
mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// A JSON object with source-order keys.
        Object(Vec<(String, Value)>),
        /// A JSON array.
        Array(Vec<Value>),
        /// A string.
        String(String),
        /// Any JSON number.
        Number(f64),
        /// `null`.
        Null,
    }

    impl Value {
        pub fn as_object(&self, what: &str) -> Result<&Vec<(String, Value)>, String> {
            match self {
                Value::Object(m) => Ok(m),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        pub fn as_array(&self, what: &str) -> Result<&Vec<Value>, String> {
            match self {
                Value::Array(a) => Ok(a),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::String(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }

        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Number(n) => Ok(*n),
                Value::Null => Ok(f64::NAN),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }

        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            let n = self.as_f64(what)?;
            if n.fract() != 0.0 || !(0.0..=u64::MAX as f64).contains(&n) {
                return Err(format!("{what}: expected unsigned integer, got {n}"));
            }
            Ok(n as u64)
        }
    }

    /// Parses a complete JSON document (trailing content is an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b'n') => {
                    if self.bytes[self.pos..].starts_with(b"null") {
                        self.pos += 4;
                        Ok(Value::Null)
                    } else {
                        Err(format!("bad literal at byte {}", self.pos))
                    }
                }
                Some(b'-' | b'0'..=b'9') => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                members.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(members));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']' at byte {}, found {:?}",
                            self.pos,
                            other.map(|c| c as char)
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad \\u escape codepoint")?);
                                self.pos += 4;
                            }
                            other => return Err(format!("bad escape \\{other:?}")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (multibyte safe).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                        let c = s.chars().next().expect("non-empty by peek");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                self.pos += 1;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number bytes");
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        let c = obs.counter("x");
        c.add(7);
        obs.gauge("g").set(1.5);
        obs.histogram("h").record(4);
        let _span = obs.span("s");
        assert_eq!(c.value(), 0);
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let obs = Obs::enabled();
        obs.counter("a.count").add(3);
        obs.counter("a.count").incr();
        obs.gauge("a.ratio").set(0.25);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("a.count"), Some(4));
        assert_eq!(snap.gauge("a.ratio"), Some(0.25));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn counter_handles_share_storage() {
        let obs = Obs::enabled();
        let a = obs.counter("shared");
        let b = obs.counter("shared");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
    }

    #[test]
    fn histogram_bucket_indexing() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Bounds and indexes agree: every value lands inside its bucket.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 100, 1 << 20, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_snapshot_counts_and_sums() {
        let obs = Obs::enabled();
        let h = obs.histogram("sizes");
        for v in [0, 1, 2, 3, 8, 8, 9] {
            h.record(v);
        }
        let snap = obs.snapshot();
        let hs = &snap.histograms["sizes"];
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 31);
        // Buckets: [0]=1, [1]=1, [2,3]=2, [8,15]=3.
        assert_eq!(
            hs.buckets,
            vec![
                BucketSnapshot {
                    lo: 0,
                    hi: 0,
                    count: 1
                },
                BucketSnapshot {
                    lo: 1,
                    hi: 1,
                    count: 1
                },
                BucketSnapshot {
                    lo: 2,
                    hi: 3,
                    count: 2
                },
                BucketSnapshot {
                    lo: 8,
                    hi: 15,
                    count: 3
                },
            ]
        );
    }

    #[test]
    fn spans_record_counts_and_nesting() {
        let obs = Obs::enabled();
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
            }
            {
                let _inner = obs.span("inner");
            }
        }
        let snap = obs.snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        let inner = snap.span("inner").unwrap();
        assert_eq!(inner.count, 2);
        assert_eq!(inner.parent.as_deref(), Some("outer"));
        assert_eq!(snap.span("outer").unwrap().parent, None);
    }

    #[test]
    fn events_are_counted_and_captured() {
        let obs = Obs::enabled();
        let capture = Arc::new(CaptureSink::new());
        obs.set_sink(capture.clone());
        obs.emit(Event::Warning {
            stage: "meta-blocking".into(),
            reason: "degraded".into(),
        });
        obs.emit(Event::Info {
            stage: "blocking".into(),
            message: "retried".into(),
        });
        assert_eq!(capture.len(), 2);
        assert!(
            matches!(&capture.events()[0], Event::Warning { stage, .. } if stage == "meta-blocking")
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("events.warning"), Some(1));
        assert_eq!(snap.counter("events.info"), Some(1));
    }

    #[test]
    fn null_sink_silences() {
        let obs = Obs::enabled();
        obs.set_sink(Arc::new(NullSink));
        obs.emit(Event::Warning {
            stage: "s".into(),
            reason: "r".into(),
        });
        // Still counted even though the sink swallowed it.
        assert_eq!(obs.snapshot().counter("events.warning"), Some(1));
    }

    #[test]
    fn json_round_trips_byte_equal() {
        let obs = Obs::enabled();
        obs.counter("b.count").add(42);
        obs.counter("a.count").add(1);
        obs.gauge("ratio").set(0.6331473805599453);
        obs.gauge("whole").set(3.0);
        obs.histogram("h").record(5);
        {
            let _s = obs.span("parent");
            let _t = obs.span("child");
        }
        let snap = obs.snapshot();
        let json = snap.to_json();
        let parsed = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_json(), json, "round-trip is byte-equal");
    }

    #[test]
    fn json_keys_are_sorted() {
        let obs = Obs::enabled();
        obs.counter("zebra").incr();
        obs.counter("alpha").incr();
        let json = obs.snapshot().to_json();
        assert!(json.find("\"alpha\"").unwrap() < json.find("\"zebra\"").unwrap());
    }

    #[test]
    fn from_json_rejects_garbage_and_unknown_keys() {
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json("{\"bogus\": {}}").is_err());
        assert!(MetricsSnapshot::from_json("{\"counters\": {\"x\": 1}} trailing").is_err());
        let ok = MetricsSnapshot::from_json("{\"counters\": {\"x\": 1}}").unwrap();
        assert_eq!(ok.counter("x"), Some(1));
    }

    #[test]
    fn escaped_names_survive_the_round_trip() {
        let obs = Obs::enabled();
        obs.counter("weird\"name\\with\ttabs").add(9);
        let snap = obs.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed.counter("weird\"name\\with\ttabs"), Some(9));
    }

    #[test]
    fn non_finite_gauges_serialize_as_null() {
        let obs = Obs::enabled();
        obs.gauge("nan").set(f64::NAN);
        let json = obs.snapshot().to_json();
        assert!(json.contains("\"nan\": null"));
        let parsed = MetricsSnapshot::from_json(&json).unwrap();
        assert!(parsed.gauge("nan").unwrap().is_nan());
    }
}
