//! Regression lock on incremental blocking quality over a stream.
//!
//! An evolving stream (300 latent entities, seed 0xE5) is fed through an
//! [`IncrementalTokenIndex`] in batches of 16 and PC / PQ / candidate counts
//! are measured at four stream checkpoints (25 / 50 / 75 / 100 % of
//! arrivals), each against the ground-truth pairs fully contained in the
//! prefix. Two locks:
//!
//! 1. **Equivalence is quality-preserving** (the structural claim): at every
//!    checkpoint the incremental index's blocks yield *exactly* the same
//!    candidate set — hence bit-equal PC / PQ — as a from-scratch
//!    `TokenBlocking` rebuild of the same prefix. Incremental maintenance
//!    can never cost recall, not even transiently.
//! 2. **The absolute numbers are pinned** (the drift tripwire): comparisons
//!    are integers locked exactly; PC / PQ are locked to the tolerances the
//!    report tables print (5e-4 / 5e-5). If an intentional generator or
//!    tokenizer change shifts them, re-measure (`ER_PRINT_RECALL=1 cargo
//!    test -p er-integration-tests --test incremental_recall_regression --
//!    --nocapture`) and refresh the constants in the same commit.

use er_blocking::{IncrementalTokenIndex, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::pair::Pair;
use er_datagen::evolving::{EvolvingConfig, EvolvingStream};

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

fn stream() -> EvolvingStream {
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
    let s = stream();
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
