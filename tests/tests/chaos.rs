//! Chaos soak harness: randomized fault schedules × memory-budget pressure ×
//! stage deadlines × worker counts, composed in one property.
//!
//! The resource-governance contract under test:
//!
//! 1. **Never a panic.** Every cell either completes or returns a typed
//!    error ([`er_pipeline::PipelineError`], `er_mapreduce::ExecError`).
//! 2. **Complete ⇒ bit-identical or flagged.** A run that completes without
//!    degradation equals the plain ungoverned run bit-for-bit; a degraded run
//!    says so — [`RecoveryEvent::BlocksShedUnderPressure`] /
//!    [`RecoveryEvent::MatchingTruncatedByDeadline`] events that agree
//!    exactly with the `StageReport` recall-loss accounting.
//! 3. **Degradation is observable.** Shed comparisons surface in the metrics
//!    snapshot (`blocking.comparisons_shed`), not just in the return value.
//!
//! Schedules are seeded and deterministic. CI pins cells via environment
//! knobs read *inside* the properties (the vendored proptest shim derives
//! its RNG from the test name, so pinning must go through the generated
//! values, not the runner):
//!
//! * `ER_CHAOS_SEED=n` — mixed into every generated fault seed
//! * `ER_CHAOS_WORKERS=n` — overrides the generated worker count

use er_core::fault::{ExecPolicy, FaultInjector, FaultPlan, RetryPolicy, SeededFaults};
use er_core::obs::{MetricsSnapshot, Obs};
use er_core::profiles::KeyRows;
use er_core::resource::ResourceLimits;
use er_datagen::{DirtyDataset, NoiseModel};
use er_integration_tests::{serial_transpose, token_rows, ScratchDir};
use er_mapreduce::dist::SymbolBlock;
use er_mapreduce::{run_key_transpose, DistOptions, InProcessTransport};
use er_pipeline::{Pipeline, RecoveryEvent, RecoveryOptions, Resolution};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// CI pin: mixed into every generated fault seed.
fn chaos_seed_env() -> u64 {
    std::env::var("ER_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// CI pin: overrides the generated worker count when set.
fn chaos_workers_env() -> Option<usize> {
    std::env::var("ER_CHAOS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn dataset() -> &'static DirtyDataset {
    static DS: OnceLock<DirtyDataset> = OnceLock::new();
    DS.get_or_init(|| er_integration_tests::dataset(150, NoiseModel::light(), 37))
}

/// The ungoverned, fault-free reference resolution.
fn reference() -> &'static Resolution {
    static REF: OnceLock<Resolution> = OnceLock::new();
    REF.get_or_init(|| Pipeline::builder().build().run(&dataset().collection))
}

/// Memory-budget pressure ladder: unlimited → generous → tight → starved.
const BUDGETS: [Option<u64>; 4] = [None, Some(1 << 30), Some(16 << 10), Some(256)];

/// Stage-deadline ladder: disarmed → generous → already expired.
const DEADLINES: [Option<Duration>; 3] =
    [None, Some(Duration::from_secs(3600)), Some(Duration::ZERO)];

fn limits_for(budget_ix: usize, deadline_ix: usize) -> ResourceLimits {
    let mut limits = ResourceLimits::none();
    if let Some(bytes) = BUDGETS[budget_ix] {
        limits = limits.with_memory_bytes(bytes);
    }
    if let Some(t) = DEADLINES[deadline_ix] {
        limits = limits.with_stage_timeout(t);
    }
    limits
}

/// Whether this cell's limits can never bind on the suite's dataset.
fn limits_are_generous(budget_ix: usize, deadline_ix: usize) -> bool {
    !matches!(BUDGETS[budget_ix], Some(b) if b < (1 << 24)) && deadline_ix != 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The soak property: every (fault schedule, budget, deadline, retry)
    /// cell of the full pipeline completes bit-identically, completes with
    /// its degradation flagged and internally consistent, or returns a typed
    /// error. Nothing panics; nothing degrades silently.
    #[test]
    fn pipeline_chaos_cells_never_panic_and_never_degrade_silently(
        seed in 0u64..=u64::MAX,
        budget_ix in 0usize..=3,
        deadline_ix in 0usize..=2,
        attempts in 1u32..=3,
    ) {
        let seed = seed ^ chaos_seed_env().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let ds = dataset();
        let obs = Obs::enabled();
        let p = Pipeline::builder()
            .resource_limits(limits_for(budget_ix, deadline_ix))
            .observability(obs.clone())
            .build();
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(SeededFaults {
            seed,
            panic_per_mille: 200,
            transient_per_mille: 200,
            delay_per_mille: 0,
            delay: Duration::ZERO,
            max_attempt: 1,
        })));
        let opts = RecoveryOptions::retrying(RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(1),
            jitter_seed: seed,
        })
        .with_injector(injector);

        match p.run_with_recovery(&ds.collection, &opts) {
            // Typed failure: the retry budget was too small for the
            // schedule. Acceptable by contract — the point is it's an Err,
            // not a panic or a silently wrong result.
            Err(e) => prop_assert!(!e.message.is_empty(), "typed error carries a message"),
            Ok(out) => {
                let report = &out.resolution.report;
                // Degradation accounting and events must agree exactly.
                let shed_event = out.events.iter().find_map(|e| match e {
                    RecoveryEvent::BlocksShedUnderPressure { shed_comparisons, .. } =>
                        Some(*shed_comparisons),
                    _ => None,
                });
                prop_assert_eq!(
                    shed_event.unwrap_or(0),
                    report.shed_comparisons,
                    "shed event vs report"
                );
                let truncated_event = out.events.iter().find_map(|e| match e {
                    RecoveryEvent::MatchingTruncatedByDeadline { skipped_comparisons } =>
                        Some(*skipped_comparisons),
                    _ => None,
                });
                prop_assert_eq!(
                    truncated_event.unwrap_or(0),
                    report.skipped_comparisons,
                    "truncation event vs report"
                );
                prop_assert_eq!(
                    report.matched_comparisons + report.skipped_comparisons,
                    report.scheduled_comparisons
                );
                // Shed recall loss is observable in the metrics snapshot.
                if report.shed_comparisons > 0 {
                    prop_assert_eq!(
                        obs.snapshot().counter("blocking.comparisons_shed"),
                        Some(report.shed_comparisons)
                    );
                }
                if out.degraded() {
                    let meta_degraded = out
                        .events
                        .iter()
                        .any(|e| matches!(e, RecoveryEvent::MetaBlockingDegraded { .. }));
                    prop_assert!(
                        report.shed_comparisons > 0
                            || report.skipped_comparisons > 0
                            || meta_degraded,
                        "degraded flag must be backed by accounting or a fallback event: {:?}",
                        out.events
                    );
                } else {
                    // Complete and undegraded ⇒ bit-identical to the plain
                    // ungoverned run.
                    prop_assert_eq!(&out.resolution.matches, &reference().matches);
                    prop_assert_eq!(&out.resolution.clusters, &reference().clusters);
                }
                // Generous limits can never be the *cause* of degradation.
                if limits_are_generous(budget_ix, deadline_ix) {
                    prop_assert_eq!(report.shed_comparisons, 0);
                    prop_assert_eq!(report.skipped_comparisons, 0);
                }
            }
        }
    }

    /// The MapReduce shuffle (`run_key_transpose`'s map-result slices) under
    /// seeded faults and worker counts: every completed run is bit-identical
    /// to the serial transpose; exhausted retry budgets are typed errors.
    #[test]
    fn mapreduce_chaos_is_bit_identical_or_typed(
        seed in 0u64..=u64::MAX,
        workers_ix in 0usize..=2,
        attempts in 1u32..=3,
    ) {
        let seed = seed ^ chaos_seed_env().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let workers = chaos_workers_env().unwrap_or([1, 2, 4][workers_ix]);
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(
            SeededFaults::absorbable(seed),
        )));
        let policy = ExecPolicy::retrying(RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(1),
            jitter_seed: seed,
        })
        .with_injector(injector);
        let mut transport = InProcessTransport::new(workers, policy);
        let (rows, reference) = chaos_rows();
        match run_key_transpose(&mut transport, rows, &DistOptions::for_workers(workers)) {
            Ok(out) => prop_assert_eq!(&out.blocks, reference),
            Err(e) => {
                prop_assert!(attempts < 3, "absorbable schedules exhaust only small budgets: {e}");
                prop_assert!(e.stage == "map" || e.stage == "reduce", "{e}");
                prop_assert!(!e.message.is_empty());
            }
        }
    }
}

/// The token rows of the chaos dataset — what the subprocess backend's
/// blocking ships — and their serial transpose, which every MapReduce cell
/// must equal.
fn chaos_rows() -> &'static (KeyRows, Vec<SymbolBlock>) {
    static ROWS: OnceLock<(KeyRows, Vec<SymbolBlock>)> = OnceLock::new();
    ROWS.get_or_init(|| {
        let rows = token_rows(&dataset().collection);
        let reference = serial_transpose(&rows);
        (rows, reference)
    })
}

// ---------------------------------------------------------------------------
// Streaming ingest chaos: bounded queue × memory budget × hostile corpus
// ---------------------------------------------------------------------------

/// Arrival-queue budget ladder: unlimited → roomy → barely two records.
const QUEUE_BUDGETS: [Option<u64>; 3] = [None, Some(16 << 10), Some(640)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streaming soak property: seeded corrupt corpora × queue budgets ×
    /// producer counts. The contract:
    ///
    /// 1. **Never a panic** — back-pressure is a typed [`IngestError`], a
    ///    record larger than the whole budget fails fast instead of
    ///    deadlocking, quarantine is a ledger entry.
    /// 2. **The queue never buffers past its budget** — `high_watermark()`
    ///    stays ≤ the limit no matter how producers race.
    /// 3. **Events ↔ report accounting agrees exactly** — the
    ///    `ingest.records_*` / `ingest.backpressure_waits` counters, the
    ///    per-quarantine warning events and the `QuarantineReport` all tell
    ///    the same story, and every produced record is accounted for as
    ///    accepted, quarantined, or shed at the queue door.
    /// 4. **Chaos cannot bend the resolution contract** — whatever subset got
    ///    through, the session's clusters are batch R-Swoosh's over it.
    #[test]
    fn streaming_ingest_chaos_never_overruns_and_accounts_exactly(
        seed in 0u64..=u64::MAX,
        budget_ix in 0usize..=2,
        workers_ix in 0usize..=2,
        rate_pct in 0u64..=50,
    ) {
        use er_core::ingest::{IngestConfig, IngestError, RawRecord};
        use er_datagen::corrupt::{CorruptConfig, CorruptStream};
        use er_datagen::EvolvingConfig;
        use er_pipeline::streaming::{StreamingConfig, StreamingSession};
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

        let seed = seed ^ chaos_seed_env().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let workers = chaos_workers_env().unwrap_or([1, 2, 4][workers_ix]);
        const MAX_RECORD_BYTES: u64 = 2 << 10;
        let stream = CorruptStream::generate(&CorruptConfig {
            base: EvolvingConfig {
                entities: 40,
                seed: seed % 997,
                ..Default::default()
            },
            corruption_rate: rate_pct as f64 / 100.0,
            max_record_bytes: MAX_RECORD_BYTES,
            seed,
        });

        let mut limits = ResourceLimits::none();
        if let Some(bytes) = QUEUE_BUDGETS[budget_ix] {
            limits = limits.with_memory_bytes(bytes);
        }
        let obs = Obs::enabled();
        let sink = Arc::new(er_core::obs::CaptureSink::new());
        obs.set_sink(sink.clone());
        let mut session = StreamingSession::with_obs(
            StreamingConfig {
                batch_size: 8,
                ingest: IngestConfig {
                    max_record_bytes: MAX_RECORD_BYTES,
                },
                ..Default::default()
            },
            limits,
            obs.clone(),
        );

        // Producers race records into the bounded queue; pushes the budget
        // can never admit (record > whole budget) are shed at the door.
        let shed = Arc::new(AtomicU64::new(0));
        let live = Arc::new(AtomicUsize::new(workers));
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queue = session.queue();
                let shed = shed.clone();
                let live = live.clone();
                let records: Vec<RawRecord> = stream
                    .records
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .cloned()
                    .collect();
                std::thread::spawn(move || {
                    for r in records {
                        match queue.push(r) {
                            Ok(()) => {}
                            Err(IngestError::Backpressure { .. }) => {
                                shed.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(IngestError::Closed) => unreachable!("queue never closed here"),
                        }
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();

        let queue = session.queue();
        let mut taken = 0usize;
        loop {
            taken += session.drain().expect("generous stage limits");
            if live.load(Ordering::SeqCst) == 0 && queue.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().expect("producer panicked");
        }
        taken += session.drain().expect("generous stage limits");
        session.flush().expect("generous stage limits");

        // (2) The budget bound held at every instant.
        if let Some(limit) = QUEUE_BUDGETS[budget_ix] {
            prop_assert!(
                queue.high_watermark() <= limit,
                "watermark {} exceeded budget {limit}",
                queue.high_watermark()
            );
        }
        prop_assert_eq!(queue.buffered_bytes(), 0, "fully drained");

        // (3) Every record is accounted for exactly once, and the counters,
        // events and report agree.
        let report = session.quarantine_report().clone();
        let shed = shed.load(Ordering::SeqCst);
        prop_assert_eq!(taken as u64 + shed, stream.records.len() as u64);
        prop_assert_eq!(report.seen(), taken as u64);
        let snap = obs.snapshot();
        prop_assert_eq!(
            snap.counter("ingest.records_quarantined").unwrap_or(0),
            report.quarantined()
        );
        prop_assert_eq!(
            snap.counter("ingest.records_accepted").unwrap_or(0),
            report.accepted()
        );
        prop_assert_eq!(snap.counter("ingest.records_seen").unwrap_or(0), report.seen());
        prop_assert_eq!(
            snap.counter("ingest.backpressure_waits").unwrap_or(0),
            queue.backpressure_waits()
        );
        let warnings = sink
            .events()
            .iter()
            .filter(|e| matches!(e, er_core::obs::Event::Warning { stage, .. } if stage == "ingest"))
            .count() as u64;
        prop_assert_eq!(warnings, report.quarantined(), "one warning per quarantine");
        // Only records bigger than the whole budget are ever shed.
        if shed > 0 {
            let limit = QUEUE_BUDGETS[budget_ix].expect("unlimited budgets never shed");
            let oversized = stream.records.iter().filter(|r| r.bytes() > limit).count() as u64;
            prop_assert!(shed <= oversized, "shed {shed} > over-budget records {oversized}");
        }

        // (4) Equivalence is chaos-proof: whatever subset was admitted, the
        // session resolved it as batch R-Swoosh does.
        prop_assert_eq!(session.collection().len() as u64, report.accepted());
        prop_assert_eq!(
            session.clusters(),
            er_iterative::swoosh::r_swoosh(
                session.collection(),
                &er_core::merge::SharedTokenMatcher::new(2)
            )
            .clusters()
        );
    }
}

/// An already-expired stage deadline surfaces as a typed
/// [`er_core::resource::ResourceError`] from the streaming flush — state
/// stays consistent, nothing panics.
#[test]
fn streaming_flush_under_expired_deadline_is_a_typed_error() {
    use er_core::ingest::RawRecord;
    use er_pipeline::streaming::{StreamingConfig, StreamingSession};

    let mut session = StreamingSession::new(
        StreamingConfig {
            batch_size: 1024,
            ..Default::default()
        },
        ResourceLimits::none().with_stage_timeout(Duration::ZERO),
    );
    session
        .offer(RawRecord::new(
            "a",
            vec![("n".into(), "alpha beta gamma".into())],
        ))
        .expect("staging alone does not hit the watchdog");
    let err = session.flush().expect_err("expired deadline must surface");
    assert!(
        matches!(
            err,
            er_core::resource::ResourceError::DeadlineExceeded { .. }
        ),
        "unexpected error: {err:?}"
    );
    // The ingest side is untouched by the failed flush.
    assert_eq!(session.quarantine_report().accepted(), 1);
}

// ---------------------------------------------------------------------------
// Parser robustness: hostile byte streams are typed errors, never panics
// ---------------------------------------------------------------------------

fn mutate(text: &str, seed: u64) -> String {
    let mut bytes: Vec<u8> = text.bytes().collect();
    if bytes.is_empty() {
        return String::new();
    }
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    match seed % 4 {
        // Truncate at an arbitrary byte offset.
        0 => bytes.truncate((next() as usize) % bytes.len()),
        // Flip a printable byte.
        1 => {
            let i = (next() as usize) % bytes.len();
            bytes[i] = b'!' + (next() % 90) as u8;
        }
        // Delete a slice from the middle.
        2 => {
            let a = (next() as usize) % bytes.len();
            let b = ((next() as usize) % (bytes.len() - a)).min(64);
            bytes.drain(a..a + b);
        }
        // Duplicate a prefix over the tail (corrupts the footer).
        _ => {
            let k = ((next() as usize) % bytes.len()).max(1);
            let prefix: Vec<u8> = bytes[..k].to_vec();
            bytes.extend_from_slice(&prefix);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn snapshot_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let obs = Obs::enabled();
        let p = Pipeline::builder().observability(obs.clone()).build();
        p.run(&dataset().collection);
        obs.snapshot().to_json()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `MetricsSnapshot::from_json` on truncated/mutated snapshots: parses
    /// or rejects with `Err`, never panics. (A single-byte value flip can
    /// still be valid JSON — that's fine; the property is about panics and
    /// the round-trip of the *unmutated* text.)
    #[test]
    fn metrics_snapshot_parser_survives_hostile_input(seed in 0u64..=u64::MAX) {
        let good = snapshot_json();
        prop_assert!(MetricsSnapshot::from_json(good).is_ok());
        let bad = mutate(good, seed);
        let _ = MetricsSnapshot::from_json(&bad); // must not panic
    }

    /// The worker-protocol frame decoder on arbitrary byte soup: every
    /// stream parses to frames, ends in clean EOF, or fails with a typed
    /// [`er_mapreduce::proto::FrameError`] carrying a byte offset inside
    /// the stream. Never a panic, never an unbounded allocation (oversized
    /// length prefixes are rejected before the payload is reserved).
    #[test]
    fn frame_decoder_survives_arbitrary_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        use er_mapreduce::proto::FrameReader;
        let total = bytes.len() as u64;
        let mut r = FrameReader::new(&bytes[..]);
        loop {
            match r.read() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    let offset = match e {
                        er_mapreduce::proto::FrameError::Truncated { offset, .. }
                        | er_mapreduce::proto::FrameError::Oversized { offset, .. }
                        | er_mapreduce::proto::FrameError::Malformed { offset, .. }
                        | er_mapreduce::proto::FrameError::Io { offset, .. } => offset,
                    };
                    prop_assert!(offset <= total, "error offset {offset} past stream end {total}");
                    break;
                }
            }
        }
    }

    /// A mutated *valid* frame stream (truncate / flip / splice /
    /// duplicate, the byte-level [`mutate_bytes`] kinds) parses or fails
    /// typed — the framed protocol gives a crashed or corrupted worker pipe
    /// no way to panic the coordinator.
    #[test]
    fn frame_decoder_survives_mutated_streams(seed in 0u64..=u64::MAX) {
        use er_mapreduce::proto::{Frame, FrameReader, FrameWriter};
        let mut bytes = Vec::new();
        {
            let mut w = FrameWriter::new(&mut bytes);
            w.write(&Frame::Hello {
                version: 1,
                fingerprint: seed,
                worker_id: 7,
                heartbeat_ms: 25,
            })
            .unwrap();
            w.write(&Frame::Task {
                job: er_mapreduce::KEY_TRANSPOSE.to_string(),
                stage: "map".to_string(),
                task: 3,
                attempt: 1,
                payload: b"a\tb\nc\\d\xff".to_vec(),
            })
            .unwrap();
            w.write(&Frame::Shutdown).unwrap();
        }
        let corrupted = mutate_bytes(&bytes, seed);
        let mut r = FrameReader::new(&corrupted[..]);
        loop {
            match r.read() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(!e.to_string().is_empty());
                    break;
                }
            }
        }
    }

    /// The wire decoder, which reads every frame, task payload, shuffle row
    /// and checkpoint record. On byte soup it decodes or fails typed, and
    /// `Ok` means the bytes are exactly the encoding of what it returned.
    /// Stored the way every durable record is — one bytes section of a
    /// segment — and hit by the four [`mutate_bytes`] kinds, `Ok` means
    /// exactly the original records. Every `Err` names an offset inside the
    /// input. Never a panic.
    #[test]
    fn wire_decoder_survives_hostile_input(
        seed in 0u64..=u64::MAX,
        soup in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        match decode_wire_records(&soup, 0) {
            Ok(records) => prop_assert_eq!(encode_wire_records(&records), soup),
            Err(e) => prop_assert!(e.offset <= soup.len() as u64, "{e}"),
        }

        let original = wire_records();
        let dir = ScratchDir::new("chaos-wire");
        let path = dir.join("wire.seg");
        let mut w = er_core::SegmentWriter::create(&path, SEG_FINGERPRINT).unwrap();
        w.bytes(&encode_wire_records(&original)).unwrap();
        w.finish().unwrap();
        let good = std::fs::read(&path).unwrap();
        let bad = mutate_bytes(&good, seed);
        std::fs::write(&path, &bad).unwrap();
        match read_wire_segment(&path) {
            Ok(records) => prop_assert_eq!(records, original),
            Err(offset) => prop_assert!(
                offset <= bad.len() as u64,
                "error offset {} past file length {}", offset, bad.len()
            ),
        }
    }
}

/// One record of every wire field kind.
#[derive(Debug, PartialEq)]
struct WireRecord {
    tag: u8,
    id: u32,
    weight: u64,
    key: String,
    blob: Vec<u8>,
}

fn wire_records() -> Vec<WireRecord> {
    ["alpha", "tab\tnew\nline", "", "zürich \\ 日本"]
        .iter()
        .enumerate()
        .map(|(i, key)| WireRecord {
            tag: i as u8,
            id: 0xfeed_0000 + i as u32,
            weight: (0.5_f64 * i as f64).to_bits(),
            key: key.to_string(),
            blob: vec![0xff; i],
        })
        .collect()
}

fn encode_wire_records(records: &[WireRecord]) -> Vec<u8> {
    use er_core::wire::{put_bytes, put_str, put_u32, put_u64};
    let mut out = Vec::new();
    for r in records {
        out.push(r.tag);
        put_u32(&mut out, r.id);
        put_u64(&mut out, r.weight);
        put_str(&mut out, &r.key);
        put_bytes(&mut out, &r.blob);
    }
    out
}

/// Decodes records up to the end of `bytes`, which lie at offset `base` of
/// their file.
fn decode_wire_records(
    bytes: &[u8],
    base: u64,
) -> Result<Vec<WireRecord>, er_core::wire::WireError> {
    let mut d = er_core::wire::Decoder::at(bytes, base);
    let mut records = Vec::new();
    while !d.is_empty() {
        records.push(WireRecord {
            tag: d.u8()?,
            id: d.u32()?,
            weight: d.u64()?,
            key: d.str()?.to_string(),
            blob: d.bytes()?.to_vec(),
        });
    }
    d.finish()?;
    Ok(records)
}

/// Opens a one-section segment of wire records and decodes them; an error
/// is returned as the file offset it names (0 when it names none).
fn read_wire_segment(path: &std::path::Path) -> Result<Vec<WireRecord>, u64> {
    let seg = er_core::Segment::open(path, SEG_FINGERPRINT)
        .map_err(|e| segment_error_offset(&e).unwrap_or(0))?;
    let payload = seg
        .bytes(0)
        .map_err(|e| segment_error_offset(&e).unwrap_or(0))?;
    decode_wire_records(&payload, seg.sections()[0].payload_offset).map_err(|e| e.offset)
}

// ---------------------------------------------------------------------------
// Segment codec robustness: the segment store under hostile bytes
// ---------------------------------------------------------------------------

/// Byte-level sibling of [`mutate`]: the same four mutation kinds (truncate /
/// flip / splice-out / duplicate-over-tail) applied to raw bytes, because
/// segment files are binary and a UTF-8 round-trip would corrupt them in
/// ways no filesystem ever produces.
fn mutate_bytes(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    if bytes.is_empty() {
        return bytes;
    }
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    match seed % 4 {
        0 => bytes.truncate((next() as usize) % bytes.len()),
        1 => {
            let i = (next() as usize) % bytes.len();
            bytes[i] ^= (1 << (next() % 8)) as u8;
        }
        2 => {
            let a = (next() as usize) % bytes.len();
            let b = ((next() as usize) % (bytes.len() - a)).min(64);
            bytes.drain(a..a + b);
        }
        _ => {
            let k = ((next() as usize) % bytes.len()).max(1);
            let prefix: Vec<u8> = bytes[..k].to_vec();
            bytes.extend_from_slice(&prefix);
        }
    }
    bytes
}

/// Fingerprint every chaos segment is written (and opened) with.
const SEG_FINGERPRINT: u64 = 0xfeed_beef;

/// A valid two-section segment (two bytes sections of wire records, the
/// first long) exercising the codec the checkpoint path reads back.
fn segment_bytes() -> &'static Vec<u8> {
    use er_core::colstore::SegmentWriter;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = ScratchDir::new("chaos-segment-template");
        let path = dir.join("template.seg");
        let mut w = SegmentWriter::create(&path, SEG_FINGERPRINT).unwrap();
        w.bytes(&encode_wire_records(&wire_records()).repeat(16))
            .unwrap();
        w.bytes(&encode_wire_records(&wire_records())).unwrap();
        w.finish().unwrap();
        std::fs::read(&path).unwrap()
    })
}

/// Opens `path` as a segment and, if the envelope validates, decodes every
/// section through its codec — the full read surface a checkpoint load
/// would touch. Any failure is returned, never panicked.
fn scan_segment(path: &std::path::Path) -> Result<(), er_core::SegmentError> {
    use er_core::colstore::KIND_BYTES;
    let seg = er_core::Segment::open(path, SEG_FINGERPRINT)?;
    for (i, info) in seg.sections().iter().enumerate() {
        if info.kind == KIND_BYTES {
            let payload = seg.bytes(i)?;
            decode_wire_records(&payload, info.payload_offset).map_err(|e| {
                er_core::SegmentError::Malformed {
                    path: path.to_path_buf(),
                    offset: e.offset,
                    reason: e.to_string(),
                }
            })?;
        }
    }
    Ok(())
}

/// The byte offset a [`SegmentError`] anchors its diagnosis to, if the
/// variant carries one (`Version`/`Fingerprint` pin fixed header offsets in
/// their rendered message instead).
fn segment_error_offset(e: &er_core::SegmentError) -> Option<u64> {
    use er_core::SegmentError as E;
    match e {
        E::Io { offset, .. }
        | E::Truncated { offset, .. }
        | E::BadMagic { offset, .. }
        | E::Checksum { offset, .. }
        | E::Malformed { offset, .. } => Some(*offset),
        E::Version { .. } | E::Fingerprint { .. } => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A segment truncated at an arbitrary byte offset is always rejected
    /// with a typed error anchored inside the file — the footer geometry
    /// and checksum make silent short reads impossible. Never a panic.
    #[test]
    fn segment_reader_survives_truncation_at_any_offset(seed in 0u64..=u64::MAX) {
        let good = segment_bytes();
        let cut = (seed as usize) % good.len();
        let dir = ScratchDir::created("chaos-seg-trunc");
        let path = dir.join("trunc.seg");
        std::fs::write(&path, &good[..cut]).unwrap();
        let err = scan_segment(&path).expect_err("a truncated segment must be rejected");
        prop_assert!(!err.to_string().is_empty());
        if let Some(offset) = segment_error_offset(&err) {
            prop_assert!(
                offset <= cut as u64,
                "error offset {offset} past truncated length {cut}: {err}"
            );
        }
    }

    /// A mutated segment (truncate / bit-flip / splice-out / duplicated
    /// tail) either still validates — only possible when the mutation was
    /// byte-for-byte idempotent — or fails with a typed error whose offset
    /// lies inside the mutated file. Never a panic.
    #[test]
    fn segment_reader_survives_mutated_files(seed in 0u64..=u64::MAX) {
        let good = segment_bytes();
        let bad = mutate_bytes(good, seed);
        let dir = ScratchDir::created("chaos-seg-mut");
        let path = dir.join("mut.seg");
        std::fs::write(&path, &bad).unwrap();
        match scan_segment(&path) {
            // The FNV checksum covers every payload byte, so acceptance
            // means the mutation reproduced the original bytes exactly
            // (e.g. a duplicated-prefix mutation of an empty range).
            Ok(()) => prop_assert_eq!(&bad, good, "a changed segment must not validate"),
            Err(e) => {
                prop_assert!(!e.to_string().is_empty());
                if let Some(offset) = segment_error_offset(&e) {
                    prop_assert!(
                        offset <= bad.len() as u64,
                        "error offset {} past file length {}: {}", offset, bad.len(), e
                    );
                }
            }
        }
    }

    /// Arbitrary byte soup presented as a segment: always a typed error
    /// (open demands magic, version, fingerprint, footer geometry and a
    /// matching checksum), never a panic, never an unbounded allocation —
    /// section lengths are validated against the file before any read.
    #[test]
    fn segment_reader_survives_arbitrary_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let dir = ScratchDir::created("chaos-seg-soup");
        let path = dir.join("soup.seg");
        std::fs::write(&path, &bytes).unwrap();
        let err = scan_segment(&path).expect_err("byte soup must be rejected");
        prop_assert!(!err.to_string().is_empty());
        if let Some(offset) = segment_error_offset(&err) {
            prop_assert!(
                offset <= bytes.len() as u64,
                "error offset {} past file length {}: {}", offset, bytes.len(), err
            );
        }
    }
}
