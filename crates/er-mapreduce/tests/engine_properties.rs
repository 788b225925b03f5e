//! Property tests for the MapReduce engine: `run_key_transpose` over
//! `InProcessTransport`, fault-free and under absorbable fault schedules, at
//! any worker count, must equal a serial group-by that shares no code with
//! the engine.

use er_core::fault::{ExecPolicy, FaultInjector, FaultPlan, RetryPolicy, SeededFaults};
use er_core::intern::{Interner, Symbol};
use er_core::profiles::KeyRows;
use er_mapreduce::{run_key_transpose, DistOptions, InProcessTransport, TransposeOutput};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// A block as words see it: the word and the indices of the texts holding it.
type WordBlock = (String, Vec<u32>);

/// Sequential reference: every word two or more texts share, with those
/// texts, grouped over strings in a `BTreeMap`.
fn reference(texts: &[String]) -> Vec<WordBlock> {
    let mut groups: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for (i, t) in texts.iter().enumerate() {
        for w in t.split_whitespace().collect::<BTreeSet<_>>() {
            groups.entry(w).or_default().push(i as u32);
        }
    }
    groups
        .into_iter()
        .filter(|(_, texts)| texts.len() >= 2)
        .map(|(w, texts)| (w.to_string(), texts))
        .collect()
}

/// One key row per text: its distinct words.
fn word_rows(texts: &[String]) -> KeyRows {
    let mut interner = Interner::new();
    let (mut lens, mut symbols) = (Vec::new(), Vec::new());
    for t in texts {
        let mut row: Vec<Symbol> = t.split_whitespace().map(|w| interner.intern(w)).collect();
        row.sort_unstable();
        row.dedup();
        lens.push(row.len());
        symbols.extend(row);
    }
    KeyRows::from_rows(interner.into_strings(), &lens, symbols)
}

/// The transpose's blocks with their symbols resolved to words.
fn rendered(rows: &KeyRows, out: &TransposeOutput) -> Vec<WordBlock> {
    out.blocks
        .iter()
        .map(|(s, members)| {
            let texts = members.iter().map(|e| e.0).collect();
            (rows.vocabulary()[s.index()].clone(), texts)
        })
        .collect()
}

fn run_mr(texts: &[String], workers: usize) -> Vec<WordBlock> {
    run_try(texts, workers, &ExecPolicy::default()).0
}

/// The transpose of `texts`' word rows on `workers` threads under `policy`:
/// its rendered blocks and the run itself.
fn run_try(
    texts: &[String],
    workers: usize,
    policy: &ExecPolicy,
) -> (Vec<WordBlock>, TransposeOutput) {
    let rows = word_rows(texts);
    let mut t = InProcessTransport::new(workers, policy.clone());
    let out = run_key_transpose(&mut t, &rows, &DistOptions::for_workers(workers))
        .expect("absorbable schedule must complete");
    (rendered(&rows, &out), out)
}

/// Distinct words across all texts.
fn distinct_words(texts: &[String]) -> usize {
    texts
        .iter()
        .flat_map(|t| t.split_whitespace())
        .collect::<BTreeSet<_>>()
        .len()
}

/// A fast-backoff policy so fault-heavy property cases stay quick.
fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(1),
        jitter_seed: 7,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_sequential_reference(
        texts in proptest::collection::vec("[a-d ]{0,20}", 0..15),
        workers in 1usize..9,
    ) {
        prop_assert_eq!(run_mr(&texts, workers), reference(&texts));
    }

    /// The engine's output must not depend on how many workers partition the
    /// map phase: every worker count from 1 to 8 yields the same result.
    #[test]
    fn output_is_independent_of_worker_count(
        texts in proptest::collection::vec("[a-d ]{0,20}", 0..15),
    ) {
        let baseline = run_mr(&texts, 1);
        for workers in 2usize..=8 {
            prop_assert_eq!(
                run_mr(&texts, workers),
                baseline.clone(),
                "workers={}", workers
            );
        }
    }

    #[test]
    fn stats_are_consistent(
        texts in proptest::collection::vec("[a-c ]{0,16}", 0..12),
        workers in 1usize..5,
    ) {
        let (blocks, out) = run_try(&texts, workers, &ExecPolicy::default());
        let postings: u64 = texts
            .iter()
            .map(|t| t.split_whitespace().collect::<BTreeSet<_>>().len() as u64)
            .sum();
        prop_assert_eq!(out.stats.map_output_records, postings);
        prop_assert_eq!(out.stats.reduce_groups as usize, distinct_words(&texts));
        let members: u64 = blocks.iter().map(|(_, texts)| texts.len() as u64).sum();
        prop_assert!(members <= postings);
    }

    /// Retry under transient faults never changes the reducer output or
    /// `DistStats::reduce_groups`, for any (seed, workers, max_attempts):
    /// both equal the serial reference, the engine's fault-free-equivalence
    /// contract as a property.
    #[test]
    fn retries_never_change_reduce_groups_or_output(
        texts in proptest::collection::vec("[a-d ]{0,20}", 0..15),
        workers in 1usize..9,
        seed in any::<u64>(),
        max_attempts in 2u32..5,
    ) {
        let expected = reference(&texts);
        // Transient-only schedule, gated so the last attempt is always
        // fault-free — absorbable by construction.
        let plan = FaultPlan::seeded(SeededFaults {
            seed,
            panic_per_mille: 0,
            transient_per_mille: 400,
            delay_per_mille: 0,
            delay: Duration::ZERO,
            max_attempt: max_attempts - 1,
        });
        let policy = ExecPolicy::retrying(fast_retry(max_attempts))
            .with_injector(Arc::new(FaultInjector::new(plan)));
        let (blocks, faulty) = run_try(&texts, workers, &policy);
        prop_assert_eq!(faulty.stats.reduce_groups as usize, distinct_words(&texts), "reduce_groups drifted");
        prop_assert_eq!(blocks, expected, "reducer output drifted");
    }
}
