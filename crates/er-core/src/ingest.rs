//! Streaming ingest: bounded back-pressured arrival queues and
//! malformed-record quarantine.
//!
//! The tutorial's incremental-ER story (§IV) assumes a well-behaved stream of
//! arriving descriptions. Real web streams are neither bounded nor clean:
//! producers outrun consumers, and crawled records arrive truncated, with
//! missing or colliding identifiers, oversized payloads or undecodable
//! bytes. This module hardens the arrival side:
//!
//! * [`ArrivalQueue`] — a FIFO of [`RawRecord`]s whose **buffered bytes are
//!   charged against a [`MemoryBudget`]**. When the budget is exhausted,
//!   producers either block ([`ArrivalQueue::push`]) or receive a typed
//!   [`IngestError::Backpressure`] ([`ArrivalQueue::try_push`]) — the queue
//!   never grows past its budget.
//! * [`IngestValidator`] — admission control. Each record is either accepted
//!   (normalized attributes, ready for `EntityCollection::push`) or lands in
//!   the [`QuarantineReport`] with a typed [`QuarantineReason`]; the run
//!   continues either way. Quarantined records never receive an `EntityId`,
//!   so rejects cannot perturb the accepted-entity output.
//!
//! Observability: `ingest.records_seen` / `ingest.records_accepted` /
//! `ingest.records_quarantined` counters, the `ingest.backpressure_waits`
//! counter, the `ingest.queue_bytes` gauge, and one `Warning` event per
//! quarantined record. Counter values always agree with the corresponding
//! [`QuarantineReport`] / [`ArrivalQueue`] accessors — asserted by the chaos
//! suite.

use crate::entity::KbId;
use crate::obs::{json_string, Event, Obs};
use crate::resource::MemoryBudget;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Fixed per-record byte overhead charged on top of the payload (struct,
/// vector headers, queue slot) — keeps the budget honest for many tiny
/// records.
pub const RECORD_OVERHEAD_BYTES: u64 = 48;

// ---------------------------------------------------------------------------
// Raw records
// ---------------------------------------------------------------------------

/// One arrival as seen *before* validation: an optional external identifier,
/// a source-KB tag, and raw (possibly undecodable) attribute bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRecord {
    /// External identifier (a URI in the Web-of-data setting). `None` or
    /// empty means the producer lost it.
    pub id: Option<String>,
    /// Source knowledge base.
    pub kb: KbId,
    /// Attribute name/value pairs as raw bytes — undecodable sequences are a
    /// quarantine reason, not a panic.
    pub attributes: Vec<(Vec<u8>, Vec<u8>)>,
    /// Whether the producer detected the record was cut short (a partial
    /// line, a failed length check). Truncated records are never trusted.
    pub truncated: bool,
}

impl RawRecord {
    /// Convenience constructor from already-decoded strings.
    pub fn new(id: impl Into<String>, attributes: Vec<(String, String)>) -> Self {
        RawRecord {
            id: Some(id.into()),
            kb: KbId(0),
            attributes: attributes
                .into_iter()
                .map(|(k, v)| (k.into_bytes(), v.into_bytes()))
                .collect(),
            truncated: false,
        }
    }

    /// Sets the source KB.
    pub fn with_kb(mut self, kb: KbId) -> Self {
        self.kb = kb;
        self
    }

    /// Marks the record truncated.
    pub fn with_truncated(mut self, truncated: bool) -> Self {
        self.truncated = truncated;
        self
    }

    /// Bytes this record is charged for while buffered: payload plus
    /// [`RECORD_OVERHEAD_BYTES`].
    pub fn bytes(&self) -> u64 {
        let payload: usize = self.id.as_deref().map(str::len).unwrap_or(0)
            + self
                .attributes
                .iter()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>();
        payload as u64 + RECORD_OVERHEAD_BYTES
    }
}

// ---------------------------------------------------------------------------
// Quarantine
// ---------------------------------------------------------------------------

/// Why a record was quarantined. Checks run in a fixed, documented order —
/// truncation, size, identifier, decodability, content — so a record broken
/// in several ways always reports the same (first-failing) reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The producer flagged the record as cut short.
    Truncated,
    /// The record's buffered size exceeds the per-record limit.
    Oversized {
        /// Size of the offending record.
        bytes: u64,
        /// The configured per-record limit.
        limit: u64,
    },
    /// No external identifier (or an empty one).
    MissingId,
    /// The identifier was already accepted earlier in the stream.
    DuplicateId {
        /// The colliding identifier.
        id: String,
    },
    /// An attribute name or value is not valid UTF-8.
    NonUtf8 {
        /// Index of the first undecodable attribute.
        attribute: usize,
    },
    /// The record has no attributes, or only empty values — nothing to block
    /// or match on.
    EmptyAttributes,
    /// The record does not fit the source's declared schema — a delimited row
    /// with the wrong field count, an unparsable N-Triples line. Raised by
    /// format loaders through [`IngestValidator::quarantine`], never by the
    /// content checks of [`IngestValidator::admit`].
    SchemaMismatch {
        /// Loader-specific description of the mismatch (line number, counts).
        detail: String,
    },
}

impl QuarantineReason {
    /// Stable machine-readable code (the `reason` field of the JSON report).
    pub fn code(&self) -> &'static str {
        match self {
            QuarantineReason::Truncated => "truncated",
            QuarantineReason::Oversized { .. } => "oversized",
            QuarantineReason::MissingId => "missing-id",
            QuarantineReason::DuplicateId { .. } => "duplicate-id",
            QuarantineReason::NonUtf8 { .. } => "non-utf8",
            QuarantineReason::EmptyAttributes => "empty-attributes",
            QuarantineReason::SchemaMismatch { .. } => "schema-mismatch",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Truncated => write!(f, "record truncated by producer"),
            QuarantineReason::Oversized { bytes, limit } => {
                write!(f, "record is {bytes} bytes, limit {limit}")
            }
            QuarantineReason::MissingId => write!(f, "missing external id"),
            QuarantineReason::DuplicateId { id } => write!(f, "duplicate external id {id:?}"),
            QuarantineReason::NonUtf8 { attribute } => {
                write!(f, "attribute {attribute} is not valid UTF-8")
            }
            QuarantineReason::EmptyAttributes => write!(f, "no non-empty attributes"),
            QuarantineReason::SchemaMismatch { detail } => {
                write!(f, "schema mismatch: {detail}")
            }
        }
    }
}

/// One quarantined record: its position in the arrival stream, the id it
/// claimed (if decodable), and the typed reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// 0-based arrival sequence number (over *all* records, accepted or not).
    pub sequence: u64,
    /// The identifier the record claimed, if any.
    pub id: Option<String>,
    /// Why it was rejected.
    pub reason: QuarantineReason,
}

/// The quarantine ledger of an ingest run: every rejected record with its
/// typed reason, plus the accepted count for accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    records: Vec<QuarantinedRecord>,
    accepted: u64,
}

impl QuarantineReport {
    /// The quarantined records, in arrival order.
    pub fn records(&self) -> &[QuarantinedRecord] {
        &self.records
    }

    /// Number of quarantined records.
    pub fn quarantined(&self) -> u64 {
        self.records.len() as u64
    }

    /// Number of accepted records.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total records seen (accepted + quarantined).
    pub fn seen(&self) -> u64 {
        self.accepted + self.quarantined()
    }

    /// Rejection counts grouped by [`QuarantineReason::code`].
    pub fn counts_by_code(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.reason.code()).or_insert(0) += 1;
        }
        out
    }

    /// Renders the report as deterministic JSON (the `--quarantine-out`
    /// schema, documented in `docs/streaming_ingest.md`): summary counts
    /// plus one object per rejected record with `sequence`, `id` and
    /// `reason`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"accepted\": {},\n", self.accepted));
        out.push_str(&format!("  \"quarantined\": {},\n", self.quarantined()));
        out.push_str("  \"by_reason\": {");
        let counts = self.counts_by_code();
        for (i, (code, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{code}\": {n}"));
        }
        out.push_str("},\n  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let id = match &r.id {
                Some(id) => json_string(id),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"sequence\": {}, \"id\": {}, \"reason\": \"{}\", \"detail\": {}}}{}\n",
                r.sequence,
                id,
                r.reason.code(),
                json_string(&r.reason.to_string()),
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Ingest admission limits.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Per-record size ceiling ([`RawRecord::bytes`]); larger records are
    /// quarantined as [`QuarantineReason::Oversized`].
    pub max_record_bytes: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_record_bytes: 64 << 10,
        }
    }
}

/// A record that passed admission: decoded attributes ready for
/// `EntityCollection::push`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcceptedRecord {
    /// The (unique) external identifier.
    pub id: String,
    /// Source knowledge base.
    pub kb: KbId,
    /// Decoded attribute pairs.
    pub attributes: Vec<(String, String)>,
}

/// Admission control for an arrival stream: validates records in a fixed
/// order and maintains the [`QuarantineReport`] plus the `ingest.*`
/// observability counters.
pub struct IngestValidator {
    config: IngestConfig,
    seen_ids: HashSet<String>,
    sequence: u64,
    report: QuarantineReport,
    obs: Obs,
}

impl IngestValidator {
    /// Creates a validator with the given limits and a disabled obs handle.
    pub fn new(config: IngestConfig) -> Self {
        IngestValidator {
            config,
            seen_ids: HashSet::new(),
            sequence: 0,
            report: QuarantineReport::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability registry (counters + quarantine events).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Validates one record. `Some` with the decoded attributes on
    /// acceptance; `None` when the record was quarantined (the reason is
    /// recorded in [`report`](IngestValidator::report)).
    ///
    /// Checks run in this order: truncation → size → missing id → duplicate
    /// id → UTF-8 → empty attributes. The first failure wins.
    pub fn admit(&mut self, record: RawRecord) -> Option<AcceptedRecord> {
        let sequence = self.sequence;
        self.sequence += 1;
        self.obs.counter("ingest.records_seen").incr();
        let claimed_id = record.id.clone().filter(|id| !id.is_empty());

        let reason = self.validate(&record, claimed_id.as_deref());
        match reason {
            Some(reason) => {
                self.reject(sequence, claimed_id, reason);
                None
            }
            None => {
                let id = claimed_id.expect("validated: id present");
                self.seen_ids.insert(id.clone());
                self.report.accepted += 1;
                self.obs.counter("ingest.records_accepted").incr();
                let attributes = record
                    .attributes
                    .into_iter()
                    .map(|(k, v)| {
                        (
                            String::from_utf8(k).expect("validated: utf-8"),
                            String::from_utf8(v).expect("validated: utf-8"),
                        )
                    })
                    .collect();
                Some(AcceptedRecord {
                    id,
                    kb: record.kb,
                    attributes,
                })
            }
        }
    }

    /// Quarantines a record the caller could not even shape into a
    /// [`RawRecord`] — a delimited row with the wrong field count, an
    /// unparsable triple line. Format loaders use this to route *structural*
    /// failures into the same typed ledger (and `ingest.*` counters) the
    /// content checks of [`admit`](IngestValidator::admit) feed, so a single
    /// [`QuarantineReport`] accounts for every rejected arrival. The record
    /// consumes one arrival sequence number and counts as seen.
    pub fn quarantine(&mut self, id: Option<String>, reason: QuarantineReason) {
        let sequence = self.sequence;
        self.sequence += 1;
        self.obs.counter("ingest.records_seen").incr();
        self.reject(sequence, id.filter(|i| !i.is_empty()), reason);
    }

    fn reject(&mut self, sequence: u64, id: Option<String>, reason: QuarantineReason) {
        self.obs.counter("ingest.records_quarantined").incr();
        self.obs.emit(Event::Warning {
            stage: "ingest".to_string(),
            reason: format!("quarantined record {sequence}: {reason}"),
        });
        self.report.records.push(QuarantinedRecord {
            sequence,
            id,
            reason,
        });
    }

    fn validate(&self, record: &RawRecord, claimed_id: Option<&str>) -> Option<QuarantineReason> {
        if record.truncated {
            return Some(QuarantineReason::Truncated);
        }
        let bytes = record.bytes();
        if bytes > self.config.max_record_bytes {
            return Some(QuarantineReason::Oversized {
                bytes,
                limit: self.config.max_record_bytes,
            });
        }
        let id = match claimed_id {
            None => return Some(QuarantineReason::MissingId),
            Some(id) => id,
        };
        if self.seen_ids.contains(id) {
            return Some(QuarantineReason::DuplicateId { id: id.to_string() });
        }
        for (i, (k, v)) in record.attributes.iter().enumerate() {
            if std::str::from_utf8(k).is_err() || std::str::from_utf8(v).is_err() {
                return Some(QuarantineReason::NonUtf8 { attribute: i });
            }
        }
        if record.attributes.iter().all(|(_, v)| v.is_empty()) {
            return Some(QuarantineReason::EmptyAttributes);
        }
        None
    }

    /// The quarantine ledger so far.
    pub fn report(&self) -> &QuarantineReport {
        &self.report
    }

    /// Consumes the validator, yielding the final report.
    pub fn into_report(self) -> QuarantineReport {
        self.report
    }
}

// ---------------------------------------------------------------------------
// The bounded arrival queue
// ---------------------------------------------------------------------------

/// Typed ingest failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The queue's memory budget cannot admit the record right now (or, for
    /// a record larger than the whole budget, ever). Producers should slow
    /// down, retry, or shed.
    Backpressure {
        /// Bytes the record needs.
        needed: u64,
        /// Bytes the budget currently has available.
        remaining: u64,
    },
    /// The queue was closed; no further records are accepted.
    Closed,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Backpressure { needed, remaining } => write!(
                f,
                "ingest back-pressure: record needs {needed} bytes, budget has {remaining}"
            ),
            IngestError::Closed => write!(f, "arrival queue closed"),
        }
    }
}

impl std::error::Error for IngestError {}

struct QueueState {
    queue: VecDeque<(RawRecord, u64)>,
    buffered_bytes: u64,
    closed: bool,
}

struct QueueInner {
    state: Mutex<QueueState>,
    /// Signaled when a record arrives or the queue closes.
    readable: Condvar,
    /// Signaled when bytes are released or the queue closes.
    writable: Condvar,
    budget: MemoryBudget,
    obs: Obs,
    backpressure_waits: AtomicU64,
    high_watermark: AtomicU64,
}

/// A bounded, back-pressured FIFO of [`RawRecord`]s. Cloning shares the
/// queue (multi-producer / multi-consumer).
///
/// Every buffered record's [`RawRecord::bytes`] is reserved against the
/// shared [`MemoryBudget`] under the `"ingest"` stage and released when the
/// record is popped — so the queue's footprint is visible to (and bounded
/// by) the same budget that governs the rest of the pipeline, and
/// `buffered_bytes` can never exceed the budget's limit.
#[derive(Clone)]
pub struct ArrivalQueue {
    inner: Arc<QueueInner>,
}

/// How long a blocked producer sleeps between budget re-checks. The budget
/// is shared with other pipeline stages, whose releases don't signal this
/// queue's condvar — the timeout bounds how stale a blocked producer's view
/// can get.
const BACKPRESSURE_RECHECK: Duration = Duration::from_millis(2);

impl ArrivalQueue {
    /// Creates a queue charging its buffered bytes against `budget`.
    pub fn new(budget: MemoryBudget) -> Self {
        Self::with_obs(budget, &Obs::disabled())
    }

    /// [`new`](ArrivalQueue::new) with observability: the
    /// `ingest.backpressure_waits` counter and `ingest.queue_bytes` gauge.
    pub fn with_obs(budget: MemoryBudget, obs: &Obs) -> Self {
        ArrivalQueue {
            inner: Arc::new(QueueInner {
                state: Mutex::new(QueueState {
                    queue: VecDeque::new(),
                    buffered_bytes: 0,
                    closed: false,
                }),
                readable: Condvar::new(),
                writable: Condvar::new(),
                budget,
                obs: obs.clone(),
                backpressure_waits: AtomicU64::new(0),
                high_watermark: AtomicU64::new(0),
            }),
        }
    }

    /// Non-blocking push: enqueues the record or returns a typed error —
    /// [`IngestError::Backpressure`] when the budget cannot admit it,
    /// [`IngestError::Closed`] after [`close`](ArrivalQueue::close).
    pub fn try_push(&self, record: RawRecord) -> Result<(), IngestError> {
        let bytes = record.bytes();
        let mut state = self.inner.state.lock().expect("queue poisoned");
        if state.closed {
            return Err(IngestError::Closed);
        }
        if self.inner.budget.try_reserve("ingest", bytes).is_err() {
            return Err(IngestError::Backpressure {
                needed: bytes,
                remaining: self.inner.budget.remaining(),
            });
        }
        self.enqueue_locked(&mut state, record, bytes);
        Ok(())
    }

    /// Blocking push: waits under back-pressure until the budget admits the
    /// record, the queue closes ([`IngestError::Closed`]), or the record
    /// turns out to be larger than the entire budget — which can never fit,
    /// so it fails fast with [`IngestError::Backpressure`] instead of
    /// deadlocking. Each push that had to wait increments the
    /// `ingest.backpressure_waits` counter once.
    pub fn push(&self, record: RawRecord) -> Result<(), IngestError> {
        let bytes = record.bytes();
        if let Some(limit) = self.inner.budget.limit() {
            if bytes > limit {
                return Err(IngestError::Backpressure {
                    needed: bytes,
                    remaining: self.inner.budget.remaining(),
                });
            }
        }
        let mut state = self.inner.state.lock().expect("queue poisoned");
        let mut waited = false;
        loop {
            if state.closed {
                return Err(IngestError::Closed);
            }
            if self.inner.budget.try_reserve("ingest", bytes).is_ok() {
                self.enqueue_locked(&mut state, record, bytes);
                return Ok(());
            }
            if !waited {
                waited = true;
                self.inner
                    .backpressure_waits
                    .fetch_add(1, Ordering::Relaxed);
                self.inner.obs.counter("ingest.backpressure_waits").incr();
            }
            let (next, _) = self
                .inner
                .writable
                .wait_timeout(state, BACKPRESSURE_RECHECK)
                .expect("queue poisoned");
            state = next;
        }
    }

    fn enqueue_locked(&self, state: &mut QueueState, record: RawRecord, bytes: u64) {
        state.buffered_bytes += bytes;
        self.inner
            .high_watermark
            .fetch_max(state.buffered_bytes, Ordering::Relaxed);
        self.inner
            .obs
            .gauge("ingest.queue_bytes")
            .set(state.buffered_bytes as f64);
        state.queue.push_back((record, bytes));
        self.inner.readable.notify_one();
    }

    /// Blocking pop: the next record in arrival order, or `None` once the
    /// queue is closed *and* drained. Releases the record's bytes back to
    /// the budget and wakes blocked producers.
    pub fn pop(&self) -> Option<RawRecord> {
        let mut state = self.inner.state.lock().expect("queue poisoned");
        loop {
            if let Some((record, bytes)) = state.queue.pop_front() {
                state.buffered_bytes -= bytes;
                self.inner
                    .obs
                    .gauge("ingest.queue_bytes")
                    .set(state.buffered_bytes as f64);
                drop(state);
                self.inner.budget.release(bytes);
                self.inner.writable.notify_all();
                return Some(record);
            }
            if state.closed {
                return None;
            }
            state = self.inner.readable.wait(state).expect("queue poisoned");
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<RawRecord> {
        let mut state = self.inner.state.lock().expect("queue poisoned");
        let (record, bytes) = state.queue.pop_front()?;
        state.buffered_bytes -= bytes;
        self.inner
            .obs
            .gauge("ingest.queue_bytes")
            .set(state.buffered_bytes as f64);
        drop(state);
        self.inner.budget.release(bytes);
        self.inner.writable.notify_all();
        Some(record)
    }

    /// Closes the queue: producers fail with [`IngestError::Closed`],
    /// consumers drain the remaining records and then see `None`.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().expect("queue poisoned");
        state.closed = true;
        drop(state);
        self.inner.readable.notify_all();
        self.inner.writable.notify_all();
    }

    /// Bytes currently buffered (always ≤ the budget's limit).
    pub fn buffered_bytes(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("queue poisoned")
            .buffered_bytes
    }

    /// The largest `buffered_bytes` ever observed — the chaos suite asserts
    /// this never exceeds the budget.
    pub fn high_watermark(&self) -> u64 {
        self.inner.high_watermark.load(Ordering::Relaxed)
    }

    /// Number of pushes that had to wait for back-pressure to clear. Always
    /// equals the `ingest.backpressure_waits` counter.
    pub fn backpressure_waits(&self) -> u64 {
        self.inner.backpressure_waits.load(Ordering::Relaxed)
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.inner.state.lock().expect("queue poisoned").queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::CaptureSink;
    use std::sync::Arc as StdArc;

    fn rec(id: &str, value: &str) -> RawRecord {
        RawRecord::new(id, vec![("name".to_string(), value.to_string())])
    }

    #[test]
    fn queue_is_fifo_and_releases_budget() {
        let budget = MemoryBudget::bytes(1 << 20);
        let q = ArrivalQueue::new(budget.clone());
        q.push(rec("a", "alpha")).unwrap();
        q.push(rec("b", "beta")).unwrap();
        assert_eq!(q.len(), 2);
        assert!(budget.used() > 0);
        assert_eq!(q.pop().unwrap().id.as_deref(), Some("a"));
        assert_eq!(q.pop().unwrap().id.as_deref(), Some("b"));
        assert_eq!(budget.used(), 0, "all bytes released");
        assert_eq!(q.buffered_bytes(), 0);
    }

    #[test]
    fn try_push_reports_typed_backpressure() {
        let r = rec("a", "alpha");
        let budget = MemoryBudget::bytes(r.bytes());
        let q = ArrivalQueue::new(budget);
        q.try_push(r.clone()).unwrap();
        match q.try_push(r.clone()) {
            Err(IngestError::Backpressure { needed, remaining }) => {
                assert_eq!(needed, r.bytes());
                assert_eq!(remaining, 0);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        // Draining clears the pressure.
        q.pop().unwrap();
        q.try_push(r).unwrap();
    }

    #[test]
    fn blocking_push_waits_for_the_consumer() {
        let r = rec("a", "alpha");
        let budget = MemoryBudget::bytes(r.bytes());
        let q = ArrivalQueue::new(budget);
        q.push(r.clone()).unwrap();
        let producer = {
            let q = q.clone();
            let r = r.clone();
            std::thread::spawn(move || q.push(r))
        };
        // Give the producer a moment to block, then drain.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.len(), 1, "producer must be blocked, not enqueued");
        q.pop().unwrap();
        producer.join().unwrap().unwrap();
        assert_eq!(q.len(), 1);
        assert!(q.backpressure_waits() >= 1);
        assert!(q.high_watermark() <= r.bytes());
    }

    #[test]
    fn record_larger_than_the_whole_budget_fails_fast() {
        let budget = MemoryBudget::bytes(8);
        let q = ArrivalQueue::new(budget);
        let r = rec("a", "alpha");
        assert!(matches!(
            q.push(r.clone()),
            Err(IngestError::Backpressure { .. })
        ));
        assert!(matches!(
            q.try_push(r),
            Err(IngestError::Backpressure { .. })
        ));
    }

    #[test]
    fn close_rejects_producers_and_drains_consumers() {
        let q = ArrivalQueue::new(MemoryBudget::unlimited());
        q.push(rec("a", "alpha")).unwrap();
        q.close();
        assert_eq!(q.push(rec("b", "beta")), Err(IngestError::Closed));
        assert_eq!(q.try_push(rec("b", "beta")), Err(IngestError::Closed));
        assert_eq!(q.pop().unwrap().id.as_deref(), Some("a"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn buffered_bytes_never_exceed_the_budget_under_contention() {
        let limit = 600u64;
        let budget = MemoryBudget::bytes(limit);
        let q = ArrivalQueue::new(budget.clone());
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        q.push(rec(&format!("p{p}-{i}"), "some value payload"))
                            .unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), 200);
        assert!(
            q.high_watermark() <= limit,
            "watermark {} exceeded budget {limit}",
            q.high_watermark()
        );
        assert_eq!(budget.used(), 0);
    }

    fn admit_one(v: IngestValidator, r: RawRecord) -> (Option<AcceptedRecord>, QuarantineReport) {
        let mut v = v;
        let out = v.admit(r);
        (out, v.into_report())
    }

    #[test]
    fn validator_accepts_well_formed_records() {
        let mut v = IngestValidator::new(IngestConfig::default());
        let a = v.admit(rec("uri:a", "alan turing")).expect("accepted");
        assert_eq!(a.id, "uri:a");
        assert_eq!(a.attributes, vec![("name".into(), "alan turing".into())]);
        assert_eq!(v.report().accepted(), 1);
        assert_eq!(v.report().quarantined(), 0);
    }

    #[test]
    fn validator_quarantines_each_reason() {
        // Truncated.
        let (out, rep) = admit_one(
            IngestValidator::new(IngestConfig::default()),
            rec("a", "x").with_truncated(true),
        );
        assert!(out.is_none());
        assert_eq!(rep.records()[0].reason, QuarantineReason::Truncated);

        // Oversized.
        let (out, rep) = admit_one(
            IngestValidator::new(IngestConfig {
                max_record_bytes: 16,
            }),
            rec("a", "a long enough value"),
        );
        assert!(out.is_none());
        assert!(matches!(
            rep.records()[0].reason,
            QuarantineReason::Oversized { .. }
        ));

        // Missing id (both None and empty).
        let mut no_id = rec("", "x");
        assert_eq!(no_id.id.as_deref(), Some(""));
        let (out, rep) = admit_one(IngestValidator::new(IngestConfig::default()), no_id.clone());
        assert!(out.is_none());
        assert_eq!(rep.records()[0].reason, QuarantineReason::MissingId);
        no_id.id = None;
        let (out, _) = admit_one(IngestValidator::new(IngestConfig::default()), no_id);
        assert!(out.is_none());

        // Duplicate id — only accepted ids count as seen.
        let mut v = IngestValidator::new(IngestConfig::default());
        assert!(v.admit(rec("a", "x")).is_some());
        assert!(v.admit(rec("a", "y")).is_none());
        assert_eq!(
            v.report().records()[0].reason,
            QuarantineReason::DuplicateId { id: "a".into() }
        );

        // Non-UTF8.
        let mut bad = rec("a", "x");
        bad.attributes.push((b"k".to_vec(), vec![0xFF, 0xFE]));
        let (out, rep) = admit_one(IngestValidator::new(IngestConfig::default()), bad);
        assert!(out.is_none());
        assert_eq!(
            rep.records()[0].reason,
            QuarantineReason::NonUtf8 { attribute: 1 }
        );

        // Empty attributes: none at all, or only empty values.
        let mut empty = rec("a", "x");
        empty.attributes.clear();
        let (out, rep) = admit_one(IngestValidator::new(IngestConfig::default()), empty);
        assert!(out.is_none());
        assert_eq!(rep.records()[0].reason, QuarantineReason::EmptyAttributes);
        let (out, _) = admit_one(IngestValidator::new(IngestConfig::default()), rec("a", ""));
        assert!(out.is_none());
    }

    #[test]
    fn loader_quarantine_shares_the_ledger_and_counters() {
        let obs = Obs::enabled();
        let mut v = IngestValidator::new(IngestConfig::default()).with_obs(&obs);
        v.admit(rec("a", "x"));
        v.quarantine(
            Some("row-7".to_string()),
            QuarantineReason::SchemaMismatch {
                detail: "line 7: 3 fields, header has 5".to_string(),
            },
        );
        v.quarantine(
            None,
            QuarantineReason::SchemaMismatch { detail: "x".into() },
        );
        assert_eq!(v.report().seen(), 3);
        assert_eq!(v.report().accepted(), 1);
        assert_eq!(v.report().quarantined(), 2);
        let q = &v.report().records()[0];
        assert_eq!(q.sequence, 1, "quarantine consumes a sequence number");
        assert_eq!(q.id.as_deref(), Some("row-7"));
        assert_eq!(q.reason.code(), "schema-mismatch");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("ingest.records_seen"), Some(3));
        assert_eq!(snap.counter("ingest.records_quarantined"), Some(2));
        // A later well-formed record with the skipped row's id is accepted:
        // structural rejects never enter the seen-id set.
        assert!(v.admit(rec("row-7", "recovered")).is_some());
        assert_eq!(v.report().counts_by_code()["schema-mismatch"], 2);
        assert!(v.report().to_json().contains("\"schema-mismatch\": 2"));
    }

    #[test]
    fn first_failing_check_wins() {
        // Truncated AND missing id AND empty: reports Truncated.
        let mut r = rec("", "");
        r.truncated = true;
        let (_, rep) = admit_one(IngestValidator::new(IngestConfig::default()), r);
        assert_eq!(rep.records()[0].reason, QuarantineReason::Truncated);
    }

    #[test]
    fn rejected_ids_do_not_poison_the_seen_set() {
        let mut v = IngestValidator::new(IngestConfig::default());
        // "a" arrives first with empty attributes → quarantined.
        assert!(v.admit(rec("a", "")).is_none());
        // A later well-formed "a" is accepted: only accepted ids are taken.
        assert!(v.admit(rec("a", "x")).is_some());
    }

    #[test]
    fn counters_and_events_agree_with_the_report() {
        let obs = Obs::enabled();
        let sink = StdArc::new(CaptureSink::new());
        obs.set_sink(sink.clone());
        let mut v = IngestValidator::new(IngestConfig::default()).with_obs(&obs);
        v.admit(rec("a", "x"));
        v.admit(rec("a", "dup"));
        v.admit(rec("", "no id"));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("ingest.records_seen"), Some(3));
        assert_eq!(snap.counter("ingest.records_accepted"), Some(1));
        assert_eq!(snap.counter("ingest.records_quarantined"), Some(2));
        assert_eq!(v.report().seen(), 3);
        assert_eq!(v.report().quarantined(), 2);
        assert_eq!(sink.len(), 2, "one warning per quarantined record");
    }

    #[test]
    fn report_json_is_deterministic_and_structured() {
        let mut v = IngestValidator::new(IngestConfig::default());
        v.admit(rec("a", "x"));
        v.admit(rec("a", "dup"));
        v.admit(RawRecord::new("quote\"id", vec![]));
        let json = v.report().to_json();
        assert_eq!(json, v.report().to_json());
        assert!(json.contains("\"accepted\": 1"));
        assert!(json.contains("\"quarantined\": 2"));
        assert!(json.contains("\"duplicate-id\": 1"));
        assert!(json.contains("\"empty-attributes\": 1"));
        assert!(json.contains("quote\\\"id"));
        let counts = v.report().counts_by_code();
        assert_eq!(counts["duplicate-id"], 1);
        assert_eq!(counts["empty-attributes"], 1);
    }

    #[test]
    fn record_bytes_include_overhead() {
        let r = rec("ab", "cde");
        assert_eq!(r.bytes(), RECORD_OVERHEAD_BYTES + 2 + 4 + 3);
        let mut no_id = r;
        no_id.id = None;
        assert_eq!(no_id.bytes(), RECORD_OVERHEAD_BYTES + 4 + 3);
    }
}
