//! The in-process task engine and the typed stage error.
//!
//! The crate has one MapReduce job,
//! [`run_key_transpose`](crate::dist::run_key_transpose) over key rows
//! (with [`run_dist`](crate::dist::run_dist), a frozen adapter that feeds it
//! string records): chunk the rows into map tasks, **partition** their
//! postings by symbol range into slices of the map results, and reduce each
//! partition's symbols in ascending order. Results come back sorted by key,
//! which makes the output independent of the worker count — the property
//! every equivalence test in this workspace relies on. On
//! [`InProcessTransport`](crate::transport::InProcessTransport) each stage's
//! tasks run here, on `execute_tasks`'s scoped threads; the subprocess
//! coordinator drives the same attempt ledger from frames.
//!
//! # Fault tolerance
//!
//! `execute_tasks` runs a stage's tasks under an [`ExecPolicy`]
//! (`er_core::fault`): per-task panics and transient errors are caught and
//! the *failed task only* is retried with exponential backoff and
//! deterministic jitter. A retry runs the same pure function over the same
//! input, so any run that completes is bit-identical to the fault-free run —
//! the same contract `docs/parallelism.md` establishes for thread counts,
//! extended to failure schedules. A task that exhausts its attempts surfaces
//! as [`ExecError`] instead of panicking; under `ExecPolicy::default()`
//! nothing is injected and the policy costs one `catch_unwind` per task.

use crate::ledger::{Counters, Ledger};
use er_core::fault::{panic_message, ExecPolicy};
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
/// failed attempt can be retried without changing the output: `results[i]`
/// is always `run(&tasks[i])`, whichever attempt succeeded.
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
                    // Idle workers park until a report arrives or the
                    // earliest backoff expires.
                    let wait = l.next_ready().map_or(Duration::from_secs(60), |at| {
                        at.saturating_duration_since(now)
                    });
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

#[cfg(test)]
mod tests {
    //! The engine as every caller meets it: `run_key_transpose` over
    //! `InProcessTransport`, whose stages run on `execute_tasks`.

    use super::*;
    use crate::dist::tests::serial_transpose;
    use crate::dist::{run_key_transpose, DistOptions, DistStats, SymbolBlock, TransposeOutput};
    use crate::transport::InProcessTransport;
    use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
    use er_core::intern::{Interner, Symbol};
    use er_core::profiles::KeyRows;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// One key row per text: its distinct words.
    fn word_rows(texts: &[&str]) -> KeyRows {
        let mut interner = Interner::new();
        let (mut lens, mut symbols) = (Vec::new(), Vec::new());
        for text in texts {
            let mut row: Vec<Symbol> = text
                .split_whitespace()
                .map(|w| interner.intern(w))
                .collect();
            row.sort_unstable();
            row.dedup();
            lens.push(row.len());
            symbols.extend(row);
        }
        KeyRows::from_rows(interner.into_strings(), &lens, symbols)
    }

    /// The oracle every run below is held to: a serial group-by that shares
    /// no code with the engine.
    fn reference(texts: &[&str]) -> Vec<SymbolBlock> {
        serial_transpose(&word_rows(texts)).0
    }

    /// The transpose of `texts`' word rows on `workers` threads.
    fn try_transpose(
        texts: &[&str],
        workers: usize,
        policy: ExecPolicy,
    ) -> Result<TransposeOutput, ExecError> {
        let mut t = InProcessTransport::new(workers, policy);
        run_key_transpose(
            &mut t,
            &word_rows(texts),
            &DistOptions::for_workers(workers),
        )
    }

    fn transpose(texts: &[&str], workers: usize) -> TransposeOutput {
        try_transpose(texts, workers, ExecPolicy::default()).unwrap()
    }

    #[test]
    fn word_count_basics() {
        // The transpose of word rows counts, per word, the texts holding it.
        let out = transpose(&["a b a", "b c", "a"], 2);
        let (a, b) = (Symbol(0), Symbol(1));
        let texts = |ids: &[u32]| ids.iter().map(|&e| er_core::entity::EntityId(e)).collect();
        assert_eq!(out.blocks, vec![(a, texts(&[0, 2])), (b, texts(&[0, 1]))]);
        assert_eq!(out.stats.map_output_records, 5, "distinct words per text");
        assert_eq!(out.stats.reduce_groups, 3);
        assert_eq!(out.stats.retried, 0);
    }

    #[test]
    fn output_matches_the_serial_oracle_at_every_worker_count() {
        let texts = ["x y z", "y z w", "z w v", "w v u", "v u t"];
        for workers in 1..=8 {
            assert_eq!(
                transpose(&texts, workers).blocks,
                reference(&texts),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let out = transpose(&[], 4);
        assert!(out.blocks.is_empty());
        assert_eq!(out.stats, DistStats::default());
    }

    #[test]
    fn more_workers_than_inputs() {
        let out = transpose(&["only one", "only two"], 16);
        assert_eq!(out.blocks, reference(&["only one", "only two"]));
        assert_eq!(out.blocks.len(), 1);
        assert_eq!(out.stats.reduce_groups, 3);
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
        let out = try_transpose(&texts, 2, policy.clone()).unwrap();
        assert_eq!(out.blocks, reference(&texts));
        assert_eq!(out.stats.retried, 2);
        assert_eq!(policy.faults_injected(), 2);
    }

    #[test]
    fn panics_are_caught_and_retried() {
        let texts = ["a b", "c d", "a c", "b d"];
        let plan = FaultPlan::none()
            .inject("map", 2, 0, FaultKind::Panic)
            .inject("map", 2, 1, FaultKind::Panic);
        let out = try_transpose(&texts, 4, injecting(fast_retry(3), plan)).unwrap();
        assert_eq!(out.blocks, reference(&texts));
        assert_eq!(out.stats.retried, 2);
    }

    #[test]
    fn exhausted_retries_surface_as_error_not_panic() {
        let texts = ["a b", "c d"];
        let plan = FaultPlan::none().inject_all_attempts("map", 0, 10, FaultKind::Panic);
        let err = try_transpose(&texts, 2, injecting(fast_retry(2), plan)).unwrap_err();
        assert_eq!(err.stage, "map");
        assert_eq!(err.task, 0);
        assert_eq!(err.attempts, 2);
        assert!(err.to_string().contains("failed after 2 attempt"));
    }

    #[test]
    fn a_panicking_task_body_is_caught_retried_and_finally_typed() {
        // Injected panics never unwind (the ledger books them as typed
        // failures), so this is the test that holds `catch_unwind` to its
        // job: a task body that really panics, once and then always.
        let tasks = [1u32, 2, 3];
        let run = |once: Option<u32>, always: Option<u32>| {
            let tripped = AtomicBool::new(false);
            let policy = ExecPolicy::retrying(fast_retry(2));
            execute_tasks("map", &tasks, 3, &policy, |&x| {
                if once == Some(x) && !tripped.swap(true, Ordering::Relaxed) {
                    panic!("first attempt dies");
                }
                assert!(always != Some(x), "always dies");
                Ok(x * 10)
            })
        };
        let (out, counters) = run(Some(2), None).unwrap();
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(counters.retried, 1);

        let err = run(None, Some(3)).unwrap_err();
        assert_eq!((err.stage.as_str(), err.task, err.attempts), ("map", 2, 2));
        assert!(
            err.message.starts_with("task panicked: always dies"),
            "{err}"
        );
    }

    /// Forty texts over a few shared words.
    fn shared_texts() -> Vec<String> {
        (0..40)
            .map(|i| format!("t{} t{} shared", i % 7, i % 3))
            .collect()
    }

    #[test]
    fn seeded_schedules_are_absorbed_bit_identically() {
        let texts = shared_texts();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let reference = reference(&refs);
        let mut total_faults = 0;
        for seed in 0..6u64 {
            for workers in [1, 2, 4] {
                let plan = FaultPlan::seeded(er_core::fault::SeededFaults::absorbable(seed));
                let policy = injecting(fast_retry(4), plan);
                let out = try_transpose(&refs, workers, policy.clone()).unwrap();
                assert_eq!(out.blocks, reference, "seed={seed} workers={workers}");
                total_faults += policy.faults_injected();
            }
        }
        assert!(total_faults > 0, "the sweep must actually inject faults");
    }

    #[test]
    fn the_shuffle_composes_with_seeded_faults_at_every_partition_count() {
        // Every map result carries one slice per partition, however many
        // partitions (and so however thin the slices) the job has: with
        // absorbable seeded faults on top the output still equals the oracle.
        let texts = shared_texts();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (rows, reference) = (word_rows(&refs), reference(&refs));
        let mut total_faults = 0;
        for seed in 0..4u64 {
            for partitions in [1usize, 3, 16] {
                let plan = FaultPlan::seeded(er_core::fault::SeededFaults::absorbable(seed));
                let policy = injecting(fast_retry(4), plan);
                let mut t = InProcessTransport::new(3, policy.clone());
                let opts = DistOptions {
                    map_tasks: 6,
                    partitions,
                };
                let out = run_key_transpose(&mut t, &rows, &opts).unwrap();
                assert_eq!(out.blocks, reference, "seed={seed} partitions={partitions}");
                total_faults += policy.faults_injected();
            }
        }
        assert!(total_faults > 0, "the sweep must actually inject faults");
    }
}
