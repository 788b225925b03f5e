//! The in-process task engine and the typed stage error.
//!
//! The crate has one MapReduce job walk, under two drivers
//! ([`run_dist`](crate::dist::run_dist) for string jobs,
//! [`run_key_transpose`](crate::dist::run_key_transpose) for key rows):
//! chunk the inputs into map tasks, **partition** their output by key — by
//! hash, or by symbol range — into spill segments, and reduce each
//! partition's keys in sorted order. Results come back sorted by key, which
//! makes the output independent of the worker count — the property every
//! equivalence test in this workspace relies on. On [`InProcessTransport`](crate::transport::InProcessTransport)
//! each stage's tasks run here, on `execute_tasks`'s scoped threads; the
//! subprocess coordinator drives the same attempt ledger from frames.
//!
//! # Fault tolerance
//!
//! `execute_tasks` runs a stage's tasks under an [`ExecPolicy`]
//! (`er_core::fault`): per-task panics and transient errors are caught and
//! the *failed task only* is retried with exponential backoff and
//! deterministic jitter; stragglers optionally get a speculative backup
//! attempt whose result is taken by **identity, not timing** (both attempts
//! run the same pure function over the same input, so whichever finishes
//! first writes the one possible value). Any run that completes is therefore
//! bit-identical to the fault-free run — the same contract
//! `docs/parallelism.md` establishes for thread counts, extended to failure
//! schedules. A task that exhausts its attempts surfaces as [`ExecError`]
//! instead of panicking; under `ExecPolicy::default()` nothing is injected
//! or speculated and the policy costs one `catch_unwind` per task.

use crate::ledger::{Counters, Ledger};
use er_core::fault::ExecPolicy;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A task failed every attempt its [`ExecPolicy`] allowed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    /// Execution stage (`"map"` or `"reduce"`).
    pub stage: String,
    /// Index of the failing task within the stage.
    pub task: usize,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// Message of the final failure.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage {:?} task {} failed after {} attempt(s): {}",
            self.stage, self.task, self.attempts, self.message
        )
    }
}

impl std::error::Error for ExecError {}

/// Runs `tasks` on `workers` threads under a fault-tolerance policy.
///
/// Each task is a pure function of its (shared, re-borrowable) input, so a
/// failed attempt can be retried and a straggler can race a backup without
/// changing the output: `results[i]` is always `run(&tasks[i])` of *some*
/// successful attempt, and all successful attempts produce the same value.
/// Results are returned in task order, which keeps the caller's merge order
/// identical to the fault-free engine.
///
/// This is only the thread shell: every scheduling decision is the
/// [`Ledger`]'s. Threads claim an attempt under the lock, run it outside the
/// lock (a typed `Err` and a caught panic are both typed failures) and
/// report the outcome back.
///
/// # Panics
/// Panics if `workers == 0`: no thread would ever claim a task.
pub(crate) fn execute_tasks<T, O, F>(
    stage: &str,
    tasks: &[T],
    workers: usize,
    policy: &ExecPolicy,
    run: F,
) -> Result<(Vec<O>, Counters), ExecError>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> Result<O, String> + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    let ledger = Mutex::new(Ledger::new(stage, tasks.len(), policy, Instant::now()));
    let cv = Condvar::new();
    // Only speculation needs periodic polling; otherwise idle workers park
    // until notified or the earliest backoff expires, so they don't steal
    // cycles from the threads doing real work.
    let poll = if policy.speculation.is_some() {
        Duration::from_millis(2)
    } else {
        Duration::from_secs(60)
    };
    // A poisoned lock means a sibling panicked inside the ledger — a bug.
    // The thread that sees it stops; the scope re-raises the sibling's panic.
    std::thread::scope(|s| {
        for _ in 0..workers.min(tasks.len()) {
            s.spawn(|| loop {
                let Ok(mut l) = ledger.lock() else { return };
                let claim = loop {
                    let now = Instant::now();
                    if let Some(claim) = l.claim(now) {
                        break claim;
                    }
                    if l.done() {
                        cv.notify_all();
                        return;
                    }
                    let ready_in = l.next_ready().map(|at| at.saturating_duration_since(now));
                    let wait = ready_in.map_or(poll, |d| d.min(poll));
                    match cv.wait_timeout(l, wait.max(Duration::from_micros(100))) {
                        Ok((guard, _)) => l = guard,
                        Err(_) => return,
                    }
                };
                drop(l);
                std::thread::sleep(claim.stall);
                let outcome = catch_unwind(AssertUnwindSafe(|| run(&tasks[claim.task])))
                    .unwrap_or_else(|payload| Err(panic_message(&*payload)));
                let Ok(mut l) = ledger.lock() else { return };
                match outcome {
                    Ok(out) => l.success(claim.task, claim.attempt, out, Instant::now()),
                    Err(message) => l.failure(claim.task, claim.attempt, message, Instant::now()),
                }
                cv.notify_all();
            });
        }
    });
    let ledger = ledger.into_inner().unwrap_or_else(PoisonError::into_inner);
    ledger.finish()
}

/// Best-effort extraction of a panic payload message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}

/// Deterministic hash partitioner. `DefaultHasher::new()` uses fixed keys,
/// so coordinator and worker processes agree on every partition decision.
pub(crate) fn partition_of(key: &str, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    //! The engine as every caller meets it: `run_dist` over
    //! `InProcessTransport`, whose stages run on `execute_tasks`.

    use super::*;
    use crate::dist::{default_registry, run_dist, DistJob, DistOptions, DistOutput, DistStats};
    use crate::transport::InProcessTransport;
    use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy, SpeculationConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// The oracle every job below is held to: a serial group-by that shares
    /// no code with the engine.
    fn reference(texts: &[&str]) -> Vec<(String, String)> {
        let mut counts = std::collections::BTreeMap::new();
        for w in texts.iter().flat_map(|t| t.split_whitespace()) {
            *counts.entry(w.to_string()).or_insert(0u64) += 1;
        }
        counts
            .into_iter()
            .map(|(w, n)| (w, n.to_string()))
            .collect()
    }

    fn owned(texts: &[&str]) -> Vec<String> {
        texts.iter().map(|t| t.to_string()).collect()
    }

    /// Word count, the canonical MapReduce example, on `workers` threads.
    fn try_word_count(
        texts: &[&str],
        workers: usize,
        policy: ExecPolicy,
    ) -> Result<DistOutput, ExecError> {
        let mut t = InProcessTransport::new(workers, default_registry(), policy);
        run_dist(
            &mut t,
            "wordcount",
            &owned(texts),
            &DistOptions::for_workers(workers),
        )
    }

    fn word_count(texts: &[&str], workers: usize) -> DistOutput {
        try_word_count(texts, workers, ExecPolicy::default()).unwrap()
    }

    #[test]
    fn word_count_basics() {
        let out = word_count(&["a b a", "b c", "a"], 2);
        assert_eq!(out.pairs, reference(&["a a a b b c"]));
        assert_eq!(out.stats.map_output_records, 6);
        assert_eq!(out.stats.reduce_groups, 3);
        assert_eq!(out.stats.retried, 0);
    }

    #[test]
    fn output_matches_the_serial_oracle_at_every_worker_count() {
        let texts = ["x y z", "y z w", "z w v", "w v u", "v u t"];
        for workers in 1..=8 {
            assert_eq!(
                word_count(&texts, workers).pairs,
                reference(&texts),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let out = word_count(&[], 4);
        assert!(out.pairs.is_empty());
        assert_eq!(out.stats, DistStats::default());
    }

    #[test]
    fn more_workers_than_inputs() {
        assert_eq!(word_count(&["only one"], 16).pairs.len(), 2);
    }

    /// `x` → `(x mod 5, x)`; the reducer reports its key's values sorted.
    struct Residues;

    impl DistJob for Residues {
        fn map(&self, record: &str, emit: &mut dyn FnMut(&str, &str)) {
            let x: u32 = record.parse().unwrap();
            emit(&(x % 5).to_string(), record);
        }

        fn reduce(&self, _key: &str, values: &[&str]) -> Vec<String> {
            let mut vs: Vec<u32> = values.iter().map(|v| v.parse().unwrap()).collect();
            vs.sort_unstable();
            vec![format!("{vs:?}")]
        }
    }

    #[test]
    fn reducers_see_all_values_of_a_key() {
        let mut registry = default_registry();
        registry.register("residues", Arc::new(Residues));
        let mut t = InProcessTransport::new(3, registry, ExecPolicy::default());
        let inputs: Vec<String> = (0..30).map(|x: u32| x.to_string()).collect();
        let out = run_dist(&mut t, "residues", &inputs, &DistOptions::for_workers(3)).unwrap();
        assert_eq!(out.pairs.len(), 5);
        for (k, vs) in out.pairs {
            let k: u32 = k.parse().unwrap();
            let expected: Vec<u32> = (0..6).map(|i| k + 5 * i).collect();
            assert_eq!(vs, format!("{expected:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = execute_tasks("map", &[()], 0, &ExecPolicy::default(), |_| Ok(()));
    }

    // ---- fault tolerance ---------------------------------------------------

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 1,
        }
    }

    fn injecting(retry: RetryPolicy, plan: FaultPlan) -> ExecPolicy {
        ExecPolicy::retrying(retry).with_injector(Arc::new(FaultInjector::new(plan)))
    }

    #[test]
    fn transient_faults_are_retried_to_the_same_result() {
        let texts = ["a b a", "b c", "a", "c c d"];
        let plan = FaultPlan::none()
            .inject("map", 0, 0, FaultKind::Transient)
            .inject("reduce", 1, 0, FaultKind::Transient);
        let policy = injecting(fast_retry(3), plan);
        let out = try_word_count(&texts, 2, policy.clone()).unwrap();
        assert_eq!(out.pairs, reference(&texts));
        assert_eq!(out.stats.retried, 2);
        assert_eq!(policy.faults_injected(), 2);
    }

    #[test]
    fn panics_are_caught_and_retried() {
        let texts = ["a b", "c d", "e f", "g h"];
        let plan = FaultPlan::none()
            .inject("map", 2, 0, FaultKind::Panic)
            .inject("map", 2, 1, FaultKind::Panic);
        let out = try_word_count(&texts, 4, injecting(fast_retry(3), plan)).unwrap();
        assert_eq!(out.pairs, reference(&texts));
        assert_eq!(out.stats.retried, 2);
    }

    #[test]
    fn exhausted_retries_surface_as_error_not_panic() {
        let texts = ["a b", "c d"];
        let plan = FaultPlan::none().inject_all_attempts("map", 0, 10, FaultKind::Panic);
        let err = try_word_count(&texts, 2, injecting(fast_retry(2), plan)).unwrap_err();
        assert_eq!(err.stage, "map");
        assert_eq!(err.task, 0);
        assert_eq!(err.attempts, 2);
        assert!(err.to_string().contains("failed after 2 attempt"));
    }

    #[test]
    fn speculation_races_a_straggler_and_keeps_the_result_identical() {
        // Many fast map tasks establish a median far below `min_runtime`;
        // task 0 is delayed well beyond it on its first attempt, so a backup
        // launches, completes cleanly, and fills the result slot first —
        // with output identical to the fault-free run. (The stage's join
        // still waits out the abandoned attempt: in-process threads cannot
        // be killed; see docs/fault_tolerance.md.)
        let texts: Vec<String> = (0..16).map(|i| format!("w{} common", i % 4)).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let plan =
            FaultPlan::none().inject("map", 0, 0, FaultKind::Delay(Duration::from_millis(300)));
        let policy = injecting(fast_retry(3), plan).with_speculation(SpeculationConfig {
            straggler_factor: 2.0,
            min_completed: 1,
            min_runtime: Duration::from_millis(50),
        });
        let out = try_word_count(&refs, 8, policy).unwrap();
        assert_eq!(out.pairs, reference(&refs));
        assert_eq!(out.stats.speculated, 1, "one backup for the straggler");
    }

    /// Word count whose map really panics: on its first sight of `once`,
    /// and on every sight of `always`.
    struct Tripwire {
        once: Option<&'static str>,
        always: Option<&'static str>,
        tripped: AtomicBool,
    }

    impl DistJob for Tripwire {
        fn map(&self, record: &str, emit: &mut dyn FnMut(&str, &str)) {
            if self.once == Some(record) && !self.tripped.swap(true, Ordering::Relaxed) {
                panic!("first attempt dies");
            }
            assert!(self.always != Some(record), "always dies");
            for w in record.split_whitespace() {
                emit(w, "1");
            }
        }

        fn reduce(&self, _key: &str, values: &[&str]) -> Vec<String> {
            vec![values.len().to_string()]
        }
    }

    #[test]
    fn a_panicking_task_body_is_caught_retried_and_finally_typed() {
        // Injected panics never unwind (the ledger books them as typed
        // failures), so this is the test that holds `catch_unwind` to its
        // job: a map function that really panics, once and then always.
        let texts = ["a b", "c d", "e f"];
        let run = |once, always| {
            let mut registry = default_registry();
            let job = Tripwire {
                once,
                always,
                tripped: AtomicBool::new(false),
            };
            registry.register("tripwire", Arc::new(job));
            let mut t = InProcessTransport::new(3, registry, ExecPolicy::retrying(fast_retry(2)));
            run_dist(
                &mut t,
                "tripwire",
                &owned(&texts),
                &DistOptions::for_workers(3),
            )
        };
        let out = run(Some("c d"), None).unwrap();
        assert_eq!(out.pairs, reference(&texts));
        assert_eq!(out.stats.retried, 1);

        let err = run(None, Some("e f")).unwrap_err();
        assert_eq!((err.stage.as_str(), err.task, err.attempts), ("map", 2, 2));
        assert!(
            err.message.starts_with("task panicked: always dies"),
            "{err}"
        );
    }

    #[test]
    fn seeded_schedules_are_absorbed_bit_identically() {
        let texts: Vec<String> = (0..40)
            .map(|i| format!("t{} t{} shared", i % 7, i % 3))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let reference = reference(&refs);
        let mut total_faults = 0;
        for seed in 0..6u64 {
            for workers in [1, 2, 4] {
                let plan = FaultPlan::seeded(er_core::fault::SeededFaults::absorbable(seed));
                let policy = injecting(fast_retry(4), plan);
                let out = try_word_count(&refs, workers, policy.clone()).unwrap();
                assert_eq!(out.pairs, reference, "seed={seed} workers={workers}");
                total_faults += policy.faults_injected();
            }
        }
        assert!(total_faults > 0, "the sweep must actually inject faults");
    }

    #[test]
    fn spilling_composes_with_seeded_faults() {
        // The bounded shuffle is run_dist's spill bound: a 1-byte bound
        // flushes every record to its own segment, and absorbable seeded
        // faults on top must still leave the output equal to the oracle.
        let texts: Vec<String> = (0..40)
            .map(|i| format!("t{} t{} shared", i % 7, i % 3))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let reference = reference(&refs);
        let mut total_faults = 0;
        for seed in 0..4u64 {
            let plan = FaultPlan::seeded(er_core::fault::SeededFaults::absorbable(seed));
            let policy = injecting(fast_retry(4), plan);
            let mut t = InProcessTransport::new(3, default_registry(), policy.clone());
            let opts = DistOptions {
                spill_bound: 1,
                ..DistOptions::for_workers(3)
            };
            let out = run_dist(&mut t, "wordcount", &texts, &opts).unwrap();
            assert_eq!(out.pairs, reference, "seed={seed}");
            assert!(out.stats.spills > 0);
            total_faults += policy.faults_injected();
        }
        assert!(total_faults > 0, "the sweep must actually inject faults");
    }
}
