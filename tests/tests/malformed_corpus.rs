//! Malformed-input corpus: every corruption class the `er_datagen::corrupt`
//! generator produces lands in quarantine with its matching typed reason,
//! the run always completes, and the `corruption_rate` knob behaves at both
//! extremes.

use er_core::entity::KbId;
use er_core::ingest::{IngestConfig, QuarantineReason, RawRecord};
use er_core::resource::ResourceLimits;
use er_datagen::corrupt::{CorruptConfig, CorruptStream, CorruptionKind};
use er_datagen::evolving::EvolvingConfig;
use er_pipeline::streaming::{StreamingConfig, StreamingSession};

const MAX_RECORD_BYTES: u64 = 2 << 10;

fn corpus(rate: f64) -> CorruptStream {
    CorruptStream::generate(&CorruptConfig {
        base: EvolvingConfig {
            entities: 100,
            seed: 17,
            ..Default::default()
        },
        corruption_rate: rate,
        max_record_bytes: MAX_RECORD_BYTES,
        seed: 404,
    })
}

fn session() -> StreamingSession {
    StreamingSession::new(
        StreamingConfig {
            batch_size: 16,
            ingest: IngestConfig {
                max_record_bytes: MAX_RECORD_BYTES,
            },
            ..Default::default()
        },
        ResourceLimits::none(),
    )
}

/// Hand-built worst cases, one per reason, pushed through a live session
/// between well-formed records: each lands with its exact typed reason and
/// the session keeps accepting afterwards.
#[test]
fn every_reason_lands_typed_and_the_run_continues() {
    let mut s = session();
    s.offer(RawRecord::new(
        "ok-1",
        vec![("n".into(), "alpha beta".into())],
    ))
    .unwrap();

    let cases: Vec<(RawRecord, QuarantineReason)> = vec![
        (
            RawRecord::new("t", vec![("n".into(), "x".into())]).with_truncated(true),
            QuarantineReason::Truncated,
        ),
        (
            RawRecord {
                id: None,
                kb: KbId(0),
                attributes: vec![(b"n".to_vec(), b"x".to_vec())],
                truncated: false,
            },
            QuarantineReason::MissingId,
        ),
        (
            RawRecord::new("ok-1", vec![("n".into(), "again".into())]),
            QuarantineReason::DuplicateId { id: "ok-1".into() },
        ),
        (
            RawRecord {
                id: Some("u".into()),
                kb: KbId(0),
                attributes: vec![(b"n".to_vec(), vec![0xFF, 0xFE])],
                truncated: false,
            },
            QuarantineReason::NonUtf8 { attribute: 0 },
        ),
        (
            RawRecord::new("e", vec![]),
            QuarantineReason::EmptyAttributes,
        ),
    ];
    let mut expected = Vec::new();
    for (record, reason) in cases {
        assert!(
            s.offer(record).unwrap().is_none(),
            "malformed record accepted ({reason:?})"
        );
        expected.push(reason);
    }
    // Oversized: pad one attribute past the limit.
    let mut big = RawRecord::new("big", vec![("n".into(), "x".into())]);
    big.attributes
        .push((b"pad".to_vec(), vec![b'x'; MAX_RECORD_BYTES as usize + 1]));
    assert!(s.offer(big).unwrap().is_none());

    // The session is still live.
    assert!(s
        .offer(RawRecord::new(
            "ok-2",
            vec![("n".into(), "gamma delta".into())]
        ))
        .unwrap()
        .is_some());

    let report = s.quarantine_report();
    assert_eq!(report.accepted(), 2);
    assert_eq!(report.quarantined(), 6);
    for (got, want) in report.records().iter().zip(&expected) {
        assert_eq!(&got.reason, want, "reason order must follow arrivals");
    }
    assert!(matches!(
        report.records()[5].reason,
        QuarantineReason::Oversized { limit, .. } if limit == MAX_RECORD_BYTES
    ));
    // Sequence numbers count *all* arrivals, accepted included.
    assert_eq!(report.records()[0].sequence, 1);
    assert_eq!(report.records()[5].sequence, 6);
}

/// The generated corpus end-to-end: the session finishes (never panics, no
/// typed error under generous limits), the ledger matches the generator's
/// bookkeeping exactly, and each quarantined record carries the reason its
/// `CorruptionKind` promised — in arrival order.
#[test]
fn generated_corpus_completes_with_exact_ledger() {
    let stream = corpus(0.35);
    assert!(stream.corrupted_count() > 0);
    let mut s = session();
    for r in &stream.records {
        s.offer(r.clone()).expect("generous limits never error");
    }
    let (report, clusters) = s.finish().expect("finish completes");
    assert_eq!(report.accepted() as usize, stream.clean_count());
    assert_eq!(report.quarantined() as usize, stream.corrupted_count());
    assert!(!clusters.is_empty(), "accepted entities resolve");

    let expected_kinds: Vec<CorruptionKind> = stream.kinds.iter().filter_map(|k| *k).collect();
    assert_eq!(report.records().len(), expected_kinds.len());
    for (got, kind) in report.records().iter().zip(&expected_kinds) {
        assert_eq!(
            got.reason.code(),
            kind.code(),
            "sequence {}: expected {kind:?}",
            got.sequence
        );
    }
    // The JSON ledger is well-formed and carries the histogram.
    let json = report.to_json();
    for (code, n) in report.counts_by_code() {
        assert!(
            json.contains(&format!("\"{code}\": {n}")),
            "ledger JSON must include {code}"
        );
    }
}

/// `corruption_rate` extremes: 0.0 quarantines nothing; 1.0 quarantines
/// everything (DuplicateId degrades to DropId when no clean record ever
/// precedes it, so the corpus stays internally consistent).
#[test]
fn corruption_rate_extremes() {
    let clean = corpus(0.0);
    assert_eq!(clean.corrupted_count(), 0);
    let mut s = session();
    for r in &clean.records {
        s.offer(r.clone()).unwrap();
    }
    assert_eq!(s.quarantine_report().quarantined(), 0);
    assert_eq!(
        s.quarantine_report().accepted() as usize,
        clean.records.len()
    );

    let hostile = corpus(1.0);
    assert_eq!(hostile.clean_count(), 0);
    assert!(hostile
        .kinds
        .iter()
        .all(|k| *k != Some(CorruptionKind::DuplicateId)));
    let mut s = session();
    for r in &hostile.records {
        s.offer(r.clone()).unwrap();
    }
    assert_eq!(s.quarantine_report().accepted(), 0);
    assert_eq!(
        s.quarantine_report().quarantined() as usize,
        hostile.records.len()
    );
    assert_eq!(s.collection().len(), 0);
    assert!(s.clusters().is_empty());
}
