//! Streaming equivalence suite — the lock on the streaming contract
//! (`docs/streaming_ingest.md`) and on the incremental blocking primitives:
//!
//! 1. **Clusters**: a [`StreamingSession`]'s clusters equal batch R-Swoosh
//!    over its accepted collection with the same `SharedTokenMatcher` —
//!    after the last flush and after the checkpoint, at every tested seed ×
//!    arrival order × batch size × corruption rate, and at a match overlap
//!    whose answer is not one giant cluster.
//! 2. **Blocks**: an `IncrementalTokenIndex` fed the session's accepted
//!    collection batch by batch is bit-identical to a full `TokenBlocking`
//!    rebuild — at every tested arrival order × batch size × seed, and at
//!    every intermediate batch boundary — so its candidate pairs, and the
//!    pinned PC / PQ of an evolving stream, are the batch path's.
//! 3. **Quarantine is invisible downstream**: interleaving malformed records
//!    (from `er_datagen::corrupt`) changes nothing about the accepted-only
//!    output — collection and clusters are bit-identical to a run that never
//!    saw the rejects.
//!
//! The session runs no blocking; 2 drives the index directly. (The
//! index's graph, `er_metablocking::IncrementalGraph`, is a rebuild over
//! the index's snapshot, so it has no row of its own here.)

use er_blocking::{IncrementalTokenIndex, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::ingest::{IngestConfig, RawRecord};
use er_core::merge::SharedTokenMatcher;
use er_core::pair::Pair;
use er_core::resource::ResourceLimits;
use er_datagen::corrupt::{CorruptConfig, CorruptStream};
use er_datagen::evolving::{EvolvingConfig, EvolvingStream};
use er_iterative::swoosh::r_swoosh;
use er_pipeline::streaming::{StreamingConfig, StreamingSession};

const BATCH_SIZES: [usize; 3] = [1, 7, 64];
const MAX_RECORD_BYTES: u64 = 2 << 10;
/// The session's default match overlap, which merges most of these corpora
/// into one cluster (90 of 121 entities at seed 3), and one whose answer
/// keeps dozens of multi-member clusters of at most three.
const MATCH_OVERLAPS: [usize; 2] = [2, NON_DEGENERATE_OVERLAP];
const NON_DEGENERATE_OVERLAP: usize = 4;

/// CI pin: `ER_STREAMING_SEED=n` narrows the matrix to one stream seed (the
/// workflow fans the full {3, 11} set across jobs instead of one long run).
fn seeds() -> Vec<u64> {
    match std::env::var("ER_STREAMING_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(s) => vec![s],
        None => vec![3, 11],
    }
}

fn corpus(seed: u64, corruption_rate: f64) -> CorruptStream {
    CorruptStream::generate(&CorruptConfig {
        base: EvolvingConfig {
            entities: 60,
            seed,
            ..Default::default()
        },
        corruption_rate,
        max_record_bytes: MAX_RECORD_BYTES,
        seed: seed ^ 0x5EED,
    })
}

fn session(batch_size: usize, match_overlap: usize) -> StreamingSession {
    StreamingSession::new(
        StreamingConfig {
            batch_size,
            ingest: IngestConfig {
                max_record_bytes: MAX_RECORD_BYTES,
            },
            match_overlap,
            ..Default::default()
        },
        ResourceLimits::none(),
    )
}

/// Offers every record to a fresh session and flushes it.
fn replay(records: &[RawRecord], batch_size: usize, match_overlap: usize) -> StreamingSession {
    let mut s = session(batch_size, match_overlap);
    for r in records {
        s.offer(r.clone()).expect("generous limits");
    }
    s.flush().expect("generous limits");
    s
}

/// Arrival order `order` of `stream`: 0 is the generated order, the others
/// seeded permutations of it.
fn arrivals(stream: &CorruptStream, seed: u64, order: u64) -> Vec<RawRecord> {
    let mut records = stream.records.clone();
    if order > 0 {
        shuffle(&mut records, seed.wrapping_mul(0x9e37_79b9) + order);
    }
    records
}

/// Deterministic Fisher–Yates over a seeded xorshift — arrival-order
/// permutations without pulling a test-only RNG dependency.
fn shuffle(records: &mut [RawRecord], seed: u64) {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in (1..records.len()).rev() {
        records.swap(i, (next() as usize) % (i + 1));
    }
}

fn assert_collections_equal(got: &EntityCollection, want: &EntityCollection, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: collection size");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g.id(), w.id(), "{ctx}: id order");
        assert_eq!(g.uri(), w.uri(), "{ctx}: uri of {:?}", g.id());
        assert_eq!(g.kb(), w.kb(), "{ctx}: kb of {:?}", g.id());
        assert_eq!(
            g.attributes(),
            w.attributes(),
            "{ctx}: attrs of {:?}",
            g.id()
        );
    }
}

/// The session's product: seeds × corruption rates × arrival orders × batch
/// sizes × match overlaps. After the last flush and again after a
/// checkpoint, the clusters are batch R-Swoosh's over the accepted
/// collection; at the non-degenerate overlap they hold several merges.
#[test]
fn session_clusters_equal_r_swoosh_of_the_accepted_collection() {
    for &seed in &seeds() {
        for rate in [0.0, 0.3] {
            let stream = corpus(seed, rate);
            for order in 0..3u64 {
                let records = arrivals(&stream, seed, order);
                for &k in &MATCH_OVERLAPS {
                    for &batch_size in &BATCH_SIZES {
                        let ctx = format!(
                            "seed {seed} rate {rate} order {order} k {k} batch {batch_size}"
                        );
                        let mut s = replay(&records, batch_size, k);
                        let want = r_swoosh(s.collection(), &SharedTokenMatcher::new(k)).clusters();
                        assert_eq!(s.clusters(), want, "{ctx}: after flush");
                        s.checkpoint().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(s.clusters(), want, "{ctx}: after checkpoint");
                        if order == 0 {
                            let accepted = stream.accepted_collection();
                            assert_collections_equal(s.collection(), &accepted, &ctx);
                        }
                        if k == NON_DEGENERATE_OVERLAP {
                            let merged = want.iter().filter(|c| c.len() > 1).count();
                            assert!(merged > 1, "{ctx}: only {merged} multi-member cluster(s)");
                            let largest = want.iter().map(Vec::len).max().unwrap_or(0);
                            assert!(
                                4 * largest < s.collection().len(),
                                "{ctx}: one cluster holds {largest} entities"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The headline blocking matrix: arrival orders × batch sizes × seeds, on a
/// clean stream. Fed the session's accepted collection, the incremental
/// index equals a full `TokenBlocking` rebuild (bit-identical `assert_eq`).
#[test]
fn incremental_equals_full_rebuild_across_the_matrix() {
    for &seed in &seeds() {
        let stream = corpus(seed, 0.0);
        for order in 0..3u64 {
            let records = arrivals(&stream, seed, order);
            let s = replay(&records, 64, 2);
            let accepted = s.collection();
            assert_eq!(accepted.len(), records.len(), "all accepted");
            let full = TokenBlocking::new().build(accepted);
            let entities: Vec<_> = accepted.iter().collect();
            for &batch_size in &BATCH_SIZES {
                let mut index = IncrementalTokenIndex::new();
                for chunk in entities.chunks(batch_size) {
                    index.insert_batch(chunk.iter().copied());
                }
                let ctx = format!("seed {seed} order {order} batch {batch_size}");
                assert_eq!(index.snapshot_blocks(), full, "{ctx}: blocks diverged");
            }
        }
    }
}

/// Block bit-identity holds at *every batch boundary*, not just at the end:
/// indexing the stream seven arrivals at a time, the incremental snapshot
/// always equals a full rebuild of the entities seen so far.
#[test]
fn mid_stream_snapshots_are_exact() {
    for &seed in &seeds() {
        let accepted = corpus(seed, 0.0).accepted_collection();
        let mut prefix = EntityCollection::new(accepted.mode());
        let mut index = IncrementalTokenIndex::new();
        let entities: Vec<_> = accepted.iter().collect();
        for (i, chunk) in entities.chunks(7).enumerate() {
            for e in chunk {
                prefix.push(e.kb(), e.attributes().to_vec());
            }
            index.insert_batch(prefix.iter().skip(i * 7));
            let ctx = format!("seed {seed} after chunk {i}");
            let full = TokenBlocking::new().build(&prefix);
            assert_eq!(
                index.snapshot_blocks(),
                full,
                "{ctx}: prefix blocks diverged"
            );
        }
    }
}

/// Quarantined records never perturb the accepted-entity output: a session
/// fed the corrupt stream produces exactly the accepted-only oracle —
/// collection and clusters bit-identical — and the ledger agrees with the
/// generator's per-record corruption bookkeeping.
#[test]
fn interleaved_quarantine_does_not_perturb_accepted_output() {
    for &seed in &seeds() {
        let stream = corpus(seed, 0.3);
        assert!(
            stream.corrupted_count() > 0,
            "corpus must corrupt something"
        );
        let oracle_collection = stream.accepted_collection();
        let oracle_clusters = r_swoosh(&oracle_collection, &SharedTokenMatcher::new(2)).clusters();
        for &batch_size in &BATCH_SIZES {
            let ctx = format!("seed {seed} batch {batch_size}");
            let mut s = replay(&stream.records, batch_size, 2);
            s.checkpoint().unwrap();

            assert_collections_equal(s.collection(), &oracle_collection, &ctx);
            assert_eq!(
                s.clusters(),
                oracle_clusters,
                "{ctx}: clusters saw the rejects?"
            );

            let report = s.quarantine_report();
            assert_eq!(
                report.quarantined() as usize,
                stream.corrupted_count(),
                "{ctx}: ledger count"
            );
            assert_eq!(
                report.accepted() as usize,
                stream.clean_count(),
                "{ctx}: accepted count"
            );
            let by_code = report.counts_by_code();
            for kind in [
                er_datagen::CorruptionKind::DropId,
                er_datagen::CorruptionKind::DuplicateId,
                er_datagen::CorruptionKind::Truncate,
                er_datagen::CorruptionKind::Oversize,
                er_datagen::CorruptionKind::NonUtf8,
                er_datagen::CorruptionKind::EmptyAttributes,
            ] {
                let expected = stream.kinds.iter().filter(|k| **k == Some(kind)).count() as u64;
                assert_eq!(
                    by_code.get(kind.code()).copied().unwrap_or(0),
                    expected,
                    "{ctx}: reason histogram for {kind:?}"
                );
            }
        }
    }
}

/// The queue path (producer thread → bounded queue → drain) yields the same
/// output as the synchronous offer path, record for record.
#[test]
fn queue_and_direct_paths_agree() {
    for &seed in &seeds() {
        let stream = corpus(seed, 0.2);
        let direct = {
            let mut s = replay(&stream.records, 16, 2);
            s.checkpoint().unwrap();
            s
        };

        let mut s = session(16, 2);
        let queue = s.queue();
        let records = stream.records.clone();
        let producer = std::thread::spawn(move || {
            for r in records {
                queue.push(r).expect("queue open");
            }
        });
        let queue = s.queue();
        let mut taken = 0;
        while taken < stream.records.len() {
            match queue.try_pop() {
                Some(r) => {
                    s.offer(r).unwrap();
                    taken += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        s.checkpoint().unwrap();

        let ctx = format!("seed {seed} queue path");
        assert_collections_equal(s.collection(), direct.collection(), &ctx);
        assert_eq!(s.clusters(), direct.clusters(), "{ctx}: clusters");
        assert_eq!(
            s.quarantine_report().counts_by_code(),
            direct.quarantine_report().counts_by_code(),
            "{ctx}: ledgers"
        );
    }
}

// ---- incremental blocking quality over a stream ---------------------------
//
// An evolving stream (300 latent entities, seed 0xE5) is fed through an
// `IncrementalTokenIndex` in batches of 16 and PC / PQ / candidate counts
// are measured at four stream checkpoints (25 / 50 / 75 / 100 % of
// arrivals), each against the ground-truth pairs fully contained in the
// prefix. Two locks:
//
// 1. **Equivalence is quality-preserving** (the structural claim): at every
//    checkpoint the incremental index's blocks yield *exactly* the same
//    candidate set — hence bit-equal PC / PQ — as a from-scratch
//    `TokenBlocking` rebuild of the same prefix. Incremental maintenance
//    can never cost recall, not even transiently.
// 2. **The absolute numbers are pinned** (the drift tripwire): comparisons
//    are integers locked exactly; PC / PQ are locked to the tolerances the
//    report tables print (5e-4 / 5e-5). If an intentional generator or
//    tokenizer change shifts them, re-measure (`ER_PRINT_RECALL=1 cargo
//    test -p er-integration-tests --test streaming_equivalence
//    incremental_recall -- --nocapture`) and refresh the constants in the
//    same commit.

/// One locked checkpoint row: after `arrivals` records, the candidate count
/// and the prefix-truth PC / PQ of the (incremental ≡ batch) token blocks.
struct LockedCheckpoint {
    arrivals: usize,
    comparisons: u64,
    truth_pairs: usize,
    pc: f64,
    pq: f64,
}

/// Measured on the current seeds (stream 0xE5, vendored PRNG); printed by
/// `ER_PRINT_RECALL=1`.
const LOCKED: &[LockedCheckpoint] = &[
    LockedCheckpoint {
        arrivals: 153,
        comparisons: 3472,
        truth_pairs: 27,
        pc: 1.000,
        pq: 0.0078,
    },
    LockedCheckpoint {
        arrivals: 306,
        comparisons: 13626,
        truth_pairs: 110,
        pc: 1.000,
        pq: 0.0081,
    },
    LockedCheckpoint {
        arrivals: 459,
        comparisons: 31435,
        truth_pairs: 232,
        pc: 0.987,
        pq: 0.0073,
    },
    LockedCheckpoint {
        arrivals: 612,
        comparisons: 51994,
        truth_pairs: 414,
        pc: 0.990,
        pq: 0.0079,
    },
];

fn evolving_stream() -> EvolvingStream {
    EvolvingStream::generate(&EvolvingConfig {
        entities: 300,
        seed: 0xE5,
        ..Default::default()
    })
}

/// PC and PQ of a candidate set against the truth pairs fully contained in
/// the first `prefix` arrivals.
fn prefix_quality(pairs: &[Pair], s: &EvolvingStream, prefix: usize) -> (usize, f64, f64) {
    let truth: Vec<Pair> = s
        .truth
        .iter()
        .filter(|p| p.second().index() < prefix)
        .collect();
    let found = pairs.iter().filter(|p| truth.contains(p)).count();
    let pc = if truth.is_empty() {
        1.0
    } else {
        found as f64 / truth.len() as f64
    };
    let pq = if pairs.is_empty() {
        0.0
    } else {
        found as f64 / pairs.len() as f64
    };
    (truth.len(), pc, pq)
}

#[test]
fn incremental_recall_matches_batch_and_locked_values() {
    let s = evolving_stream();
    let n = s.collection.len();
    let checkpoints = [n / 4, n / 2, 3 * n / 4, n];
    let print = std::env::var("ER_PRINT_RECALL").is_ok();

    let mut index = IncrementalTokenIndex::new();
    let mut prefix = EntityCollection::new(s.collection.mode());
    for (ci, &cp) in checkpoints.iter().enumerate() {
        let arrived: Vec<_> = s
            .collection
            .iter()
            .skip(prefix.len())
            .take(cp - prefix.len())
            .collect();
        for batch in arrived.chunks(16) {
            let start = prefix.len();
            for e in batch {
                prefix.push(e.kb(), e.attributes().to_vec());
            }
            index.insert_batch(prefix.iter().skip(start));
        }

        // Structural lock: the incremental snapshot *is* the batch rebuild,
        // so candidates — and any quality metric over them — are identical.
        let incremental = index.snapshot_blocks();
        let batch = TokenBlocking::new().build(&prefix);
        assert_eq!(incremental, batch, "checkpoint {ci}: blocks diverged");
        let inc_pairs = incremental.distinct_pairs(&prefix);
        let batch_pairs = batch.distinct_pairs(&prefix);
        assert_eq!(
            inc_pairs, batch_pairs,
            "checkpoint {ci}: candidates diverged"
        );

        let (truth_pairs, pc, pq) = prefix_quality(&inc_pairs, &s, cp);
        if print {
            println!(
                "checkpoint {ci}: arrivals {cp}, comparisons {}, truth {truth_pairs}, \
                 PC {pc:.3}, PQ {pq:.4}",
                inc_pairs.len()
            );
            continue;
        }
        let locked = &LOCKED[ci];
        let ctx = format!("checkpoint {ci} ({cp} arrivals)");
        assert_eq!(cp, locked.arrivals, "{ctx}: stream length drifted");
        assert_eq!(
            inc_pairs.len() as u64,
            locked.comparisons,
            "{ctx}: comparisons drifted"
        );
        assert_eq!(
            truth_pairs, locked.truth_pairs,
            "{ctx}: truth pairs drifted"
        );
        assert!(
            (pc - locked.pc).abs() < 5e-4,
            "{ctx}: PC drifted: got {pc:.6}, locked {:.3}",
            locked.pc
        );
        assert!(
            (pq - locked.pq).abs() < 5e-5,
            "{ctx}: PQ drifted: got {pq:.6}, locked {:.4}",
            locked.pq
        );
    }
}
