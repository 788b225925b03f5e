//! Property tests for the MapReduce engine: `run_dist` over
//! `InProcessTransport`, fault-free and under absorbable fault schedules, at
//! any worker count, must equal a serial group-by that shares no code with
//! the engine.

use er_core::fault::{
    ExecPolicy, FaultInjector, FaultPlan, RetryPolicy, SeededFaults, SpeculationConfig,
};
use er_mapreduce::{default_registry, run_dist, DistOptions, DistOutput, InProcessTransport};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Sequential word-count reference.
fn reference(texts: &[String]) -> Vec<(String, String)> {
    let mut m = std::collections::BTreeMap::new();
    for t in texts {
        for w in t.split_whitespace() {
            *m.entry(w.to_string()).or_insert(0u64) += 1;
        }
    }
    m.into_iter().map(|(w, n)| (w, n.to_string())).collect()
}

fn run_mr(texts: &[String], workers: usize) -> Vec<(String, String)> {
    run_try(texts, workers, &ExecPolicy::default()).pairs
}

/// The `wordcount` job on `workers` threads under `policy`.
fn run_try(texts: &[String], workers: usize, policy: &ExecPolicy) -> DistOutput {
    let mut t = InProcessTransport::new(workers, default_registry(), policy.clone());
    run_dist(
        &mut t,
        "wordcount",
        texts,
        &DistOptions::for_workers(workers),
    )
    .expect("absorbable schedule must complete")
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
        let out = run_try(&texts, workers, &ExecPolicy::default());
        let total_words: u64 = texts
            .iter()
            .map(|t| t.split_whitespace().count() as u64)
            .sum();
        prop_assert_eq!(out.stats.map_output_records, total_words);
        prop_assert_eq!(out.stats.reduce_groups as usize, out.pairs.len());
        let summed: u64 = out.pairs.iter().map(|(_, c)| c.parse::<u64>().unwrap()).sum();
        prop_assert_eq!(summed, total_words);
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
        let faulty = run_try(&texts, workers, &policy);
        prop_assert_eq!(faulty.stats.reduce_groups as usize, expected.len(), "reduce_groups drifted");
        prop_assert_eq!(faulty.pairs, expected, "reducer output drifted");
    }

    /// Worker-count invariance of the fault-tolerant path, with speculation
    /// toggled on and off: an aggressive speculation config (every task
    /// slower than the median gets a backup) must not change the output.
    #[test]
    fn run_dist_output_is_independent_of_workers_and_speculation(
        texts in proptest::collection::vec("[a-d ]{0,20}", 0..15),
        speculate in any::<bool>(),
    ) {
        let policy = |speculate: bool| {
            let mut p = ExecPolicy::retrying(fast_retry(2));
            if speculate {
                p = p.with_speculation(SpeculationConfig {
                    straggler_factor: 1.0,
                    min_completed: 1,
                    min_runtime: Duration::ZERO,
                });
            }
            p
        };
        let expected = reference(&texts);
        for workers in 1usize..=8 {
            let got = run_try(&texts, workers, &policy(speculate));
            prop_assert_eq!(got.stats.reduce_groups as usize, expected.len(), "workers={}", workers);
            prop_assert_eq!(&got.pairs, &expected, "workers={}", workers);
        }
    }
}
