//! The generic in-process MapReduce engine.
//!
//! Faithful to the programming model the surveyed systems use:
//!
//! 1. the input split is divided among `workers` mapper threads;
//! 2. each mapper emits `(key, value)` pairs, grouped per mapper per key;
//! 3. pairs are hash-**partitioned** by key among `workers` reducer threads;
//! 4. each reducer processes its keys in sorted order.
//!
//! Results are returned sorted by key, which makes the output independent of
//! the worker count — the property every equivalence test in this workspace
//! relies on.
//!
//! # Fault tolerance
//!
//! [`MapReduce::try_run`] executes its map and reduce tasks under an
//! [`ExecPolicy`] (`er_core::fault`): per-task panics and transient errors
//! are caught and the *failed task only* is retried with exponential backoff
//! and deterministic jitter; stragglers optionally get a speculative backup
//! attempt whose result is taken by **identity, not timing** (both attempts
//! run the same pure function over the same input, so whichever finishes
//! first writes the one possible value). Any run that completes is therefore
//! bit-identical to the fault-free run — the same contract
//! `docs/parallelism.md` establishes for thread counts, extended to failure
//! schedules. A task that exhausts its attempts surfaces as [`ExecError`]
//! instead of panicking; under `ExecPolicy::default()` nothing is injected
//! or speculated and the policy costs one `catch_unwind` per task.
//!
//! The typed engine keeps its shuffle in memory. A job that needs a bounded
//! shuffle is a named string job under [`run_dist`](crate::dist::run_dist),
//! whose map tasks spill at `DistOptions::spill_bound`; both schedule their
//! tasks through `execute_tasks`.

use crate::ledger::{Counters, Ledger};
use er_core::fault::ExecPolicy;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Job statistics, mirroring the counters a Hadoop job would report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Records emitted by all mappers.
    pub map_output_records: u64,
    /// Distinct keys seen by reducers.
    pub reduce_groups: u64,
    /// Retry attempts scheduled after task failures.
    pub tasks_retried: u64,
    /// Speculative backup attempts launched for stragglers.
    pub tasks_speculated: u64,
    /// Faults fired by the policy's injector during this job.
    pub faults_injected: u64,
}

impl JobStats {
    /// Mirrors these counters into an observability registry under the
    /// `mapreduce.*` names. Stats are cumulative across jobs: each call adds
    /// this job's values to the registry counters. No-op on a disabled
    /// handle.
    pub fn record_obs(&self, obs: &er_core::obs::Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("mapreduce.map_output_records")
            .add(self.map_output_records);
        obs.counter("mapreduce.reduce_groups")
            .add(self.reduce_groups);
        obs.counter("mapreduce.tasks_retried")
            .add(self.tasks_retried);
        obs.counter("mapreduce.tasks_speculated")
            .add(self.tasks_speculated);
        obs.counter("mapreduce.faults_injected")
            .add(self.faults_injected);
        obs.counter("mapreduce.jobs").incr();
    }
}

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

/// A configured MapReduce job. `I` is the input record type, `K`/`V` the
/// intermediate key/value types, `R` the reducer output type.
pub struct MapReduce<I, K, V, R> {
    workers: usize,
    _marker: std::marker::PhantomData<(I, K, V, R)>,
}

impl<I, K, V, R> MapReduce<I, K, V, R>
where
    I: Send + Sync,
    K: Ord + Hash + Clone + Send + Sync,
    V: Send + Sync,
    R: Send,
{
    /// Creates a job runner with `workers ≥ 1` mapper/reducer threads.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        MapReduce {
            workers,
            _marker: std::marker::PhantomData,
        }
    }

    /// Runs the job under `policy`, retrying failed tasks and (optionally)
    /// speculating on stragglers. A completed run is bit-identical to the
    /// fault-free one; a task that exhausts its attempts yields an
    /// [`ExecError`] instead of panicking.
    ///
    /// The job walk is chunk → map → transpose → merge → reduce → key-sort,
    /// both task phases under `execute_tasks`. A failed or speculated task
    /// must be able to re-read its shared input, so the closures borrow
    /// instead of consuming: map tasks re-borrow their input chunk and reduce
    /// tasks re-borrow their partition's merged groups. Each partition is
    /// merged and key-sorted *once*, outside the retry machinery, consuming
    /// the shuffle output by move — only the user's reduce function, the part
    /// that can actually fault, is re-runnable, and no attempt clones
    /// anything. Results are flattened in global key order, which makes the
    /// output independent of the worker count.
    pub fn try_run<MF, RF>(
        &self,
        inputs: &[I],
        policy: &ExecPolicy,
        map_fn: MF,
        reduce_fn: RF,
    ) -> Result<(Vec<R>, JobStats), ExecError>
    where
        MF: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        RF: Fn(&K, &[V]) -> Vec<R> + Sync,
    {
        let workers = self.workers;
        let faults_before = policy.faults_injected();

        // ---- map phase: one task per input chunk, grouped per partition ----
        let chunk = inputs.len().div_ceil(workers).max(1);
        let chunks: Vec<&[I]> = inputs.chunks(chunk).collect();
        let (mapper_outputs, map_counters) =
            execute_tasks("map", &chunks, workers, policy, |chunk_inputs: &&[I]| {
                let mut tables: Vec<HashMap<K, Vec<V>>> =
                    (0..workers).map(|_| HashMap::new()).collect();
                let mut emitted = 0u64;
                for input in *chunk_inputs {
                    map_fn(input, &mut |k: K, v: V| {
                        emitted += 1;
                        tables[partition_of(&k, workers)]
                            .entry(k)
                            .or_default()
                            .push(v);
                    });
                }
                Ok((tables, emitted))
            })?;

        // ---- shuffle: merge each partition's tables in mapper order --------
        let mut stats = JobStats::default();
        let mut merged: Vec<HashMap<K, Vec<V>>> = (0..workers).map(|_| HashMap::new()).collect();
        for (tables, emitted) in mapper_outputs {
            stats.map_output_records += emitted;
            for (partition, table) in merged.iter_mut().zip(tables) {
                if partition.is_empty() {
                    // The partition's first mapper: adopt its table.
                    *partition = table;
                    continue;
                }
                for (k, vs) in table {
                    match partition.entry(k) {
                        Entry::Occupied(mut e) => e.get_mut().extend(vs),
                        Entry::Vacant(e) => {
                            e.insert(vs);
                        }
                    }
                }
            }
        }
        let merged_partitions: Vec<Vec<(K, Vec<V>)>> = merged
            .into_iter()
            .map(|partition| {
                let mut entries: Vec<(K, Vec<V>)> = partition.into_iter().collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                entries
            })
            .collect();

        // ---- reduce phase: one task per partition ----------------------------
        // Outputs are positional (entry order); keys are moved out of
        // `merged_partitions` afterwards.
        let (reducer_outputs, reduce_counters): (Vec<Vec<Vec<R>>>, Counters) = execute_tasks(
            "reduce",
            &merged_partitions,
            workers,
            policy,
            |entries: &Vec<(K, Vec<V>)>| {
                Ok(entries.iter().map(|(k, vs)| reduce_fn(k, vs)).collect())
            },
        )?;
        stats.reduce_groups = merged_partitions.iter().map(|p| p.len() as u64).sum();
        let mut keyed: Vec<(K, Vec<R>)> = merged_partitions
            .into_iter()
            .zip(reducer_outputs)
            .flat_map(|(entries, outs)| entries.into_iter().map(|(k, _)| k).zip(outs))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        let results: Vec<R> = keyed.into_iter().flat_map(|(_, rs)| rs).collect();

        stats.tasks_retried = map_counters.retried + reduce_counters.retried;
        stats.tasks_speculated = map_counters.speculated + reduce_counters.speculated;
        stats.faults_injected = policy.faults_injected() - faults_before;
        stats.record_obs(&policy.obs);
        Ok((results, stats))
    }
}

/// Deterministic hash partitioner. `DefaultHasher::new()` uses fixed keys,
/// so coordinator and worker processes agree on every partition decision.
pub(crate) fn partition_of<K: Hash>(key: &K, workers: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle every job below is held to: a serial group-by that shares
    /// no code with the engine.
    fn reference(texts: &[&str]) -> Vec<(String, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        for w in texts.iter().flat_map(|t| t.split_whitespace()) {
            *counts.entry(w.to_string()).or_insert(0u64) += 1;
        }
        counts.into_iter().collect()
    }

    fn map_words(text: &&str, emit: &mut dyn FnMut(String, u64)) {
        for w in text.split_whitespace() {
            emit(w.to_string(), 1);
        }
    }

    /// Word count: the canonical MapReduce example.
    fn word_count(texts: &[&str], workers: usize) -> (Vec<(String, u64)>, JobStats) {
        try_word_count(texts, workers, &ExecPolicy::default()).unwrap()
    }

    #[test]
    fn word_count_basics() {
        let (counts, stats) = word_count(&["a b a", "b c", "a"], 2);
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
        assert_eq!(stats.map_output_records, 6);
        assert_eq!(stats.reduce_groups, 3);
        assert_eq!(stats.tasks_retried, 0);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn output_matches_the_serial_oracle_at_every_worker_count() {
        let texts = ["x y z", "y z w", "z w v", "w v u", "v u t"];
        for workers in 1..=8 {
            assert_eq!(
                word_count(&texts, workers).0,
                reference(&texts),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let (out, stats) = word_count(&[], 4);
        assert!(out.is_empty());
        assert_eq!(stats, JobStats::default());
    }

    #[test]
    fn more_workers_than_inputs() {
        let (out, _) = word_count(&["only one"], 16);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn reducers_see_all_values_of_a_key() {
        let mr: MapReduce<u32, u32, u32, (u32, Vec<u32>)> = MapReduce::new(3);
        let inputs: Vec<u32> = (0..30).collect();
        let (out, _) = mr
            .try_run(
                &inputs,
                &ExecPolicy::default(),
                |x, emit| emit(x % 5, *x),
                |k, vs| {
                    let mut vs = vs.to_vec();
                    vs.sort_unstable();
                    vec![(*k, vs)]
                },
            )
            .unwrap();
        assert_eq!(out.len(), 5);
        for (k, vs) in out {
            assert_eq!(vs.len(), 6);
            for v in vs {
                assert_eq!(v % 5, k);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _: MapReduce<u32, u32, u32, u32> = MapReduce::new(0);
    }

    // ---- fault tolerance ---------------------------------------------------

    use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy, SpeculationConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn try_word_count(
        texts: &[&str],
        workers: usize,
        policy: &ExecPolicy,
    ) -> Result<(Vec<(String, u64)>, JobStats), ExecError> {
        let mr: MapReduce<&str, String, u64, (String, u64)> = MapReduce::new(workers);
        mr.try_run(texts, policy, map_words, |k: &String, vs: &[u64]| {
            vec![(k.clone(), vs.iter().sum::<u64>())]
        })
    }

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 1,
        }
    }

    fn injecting(retry: RetryPolicy, plan: FaultPlan) -> ExecPolicy {
        ExecPolicy {
            retry,
            injector: Some(Arc::new(FaultInjector::new(plan))),
            speculation: None,
            obs: Default::default(),
        }
    }

    #[test]
    fn transient_faults_are_retried_to_the_same_result() {
        let texts = ["a b a", "b c", "a", "c c d"];
        let plan = FaultPlan::none()
            .inject("map", 0, 0, FaultKind::Transient)
            .inject("reduce", 1, 0, FaultKind::Transient);
        let (out, stats) = try_word_count(&texts, 2, &injecting(fast_retry(3), plan)).unwrap();
        assert_eq!(out, reference(&texts));
        assert_eq!(stats.tasks_retried, 2);
        assert_eq!(stats.faults_injected, 2);
    }

    #[test]
    fn panics_are_caught_and_retried() {
        let texts = ["a b", "c d", "e f", "g h"];
        let plan = FaultPlan::none()
            .inject("map", 2, 0, FaultKind::Panic)
            .inject("map", 2, 1, FaultKind::Panic);
        let (out, stats) = try_word_count(&texts, 4, &injecting(fast_retry(3), plan)).unwrap();
        assert_eq!(out, reference(&texts));
        assert_eq!(stats.tasks_retried, 2);
    }

    #[test]
    fn exhausted_retries_surface_as_error_not_panic() {
        let texts = ["a b", "c d"];
        let plan = FaultPlan::none().inject_all_attempts("map", 0, 10, FaultKind::Panic);
        let err = try_word_count(&texts, 2, &injecting(fast_retry(2), plan)).unwrap_err();
        assert_eq!(err.stage, "map");
        assert_eq!(err.task, 0);
        assert_eq!(err.attempts, 2);
        assert!(err.to_string().contains("failed after 2 attempt"));
    }

    #[test]
    fn speculation_races_a_straggler_and_keeps_the_result_identical() {
        // Many fast tasks establish a sub-millisecond median; task 0 is
        // delayed far beyond the straggler threshold on its first attempt,
        // so a backup launches, completes cleanly, and fills the result slot
        // first — with output identical to the fault-free run. (The job's
        // join still waits out the abandoned attempt: in-process threads
        // cannot be killed; see docs/fault_tolerance.md.)
        let texts: Vec<String> = (0..16).map(|i| format!("w{} common", i % 4)).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let plan =
            FaultPlan::none().inject("map", 0, 0, FaultKind::Delay(Duration::from_millis(150)));
        let mut policy = injecting(fast_retry(3), plan);
        policy.speculation = Some(SpeculationConfig {
            straggler_factor: 2.0,
            min_completed: 1,
            min_runtime: Duration::from_millis(10),
        });
        let (out, stats) = try_word_count(&refs, 8, &policy).unwrap();
        assert_eq!(out, reference(&refs));
        assert_eq!(stats.tasks_speculated, 1, "one backup for the straggler");
    }

    #[test]
    fn a_panicking_task_body_is_caught_retried_and_finally_typed() {
        // Injected panics never unwind (the ledger books them as typed
        // failures), so this is the test that holds `catch_unwind` to its
        // job: a map function that really panics, once and then always.
        let texts = ["a b", "c d", "e f"];
        let tripped = AtomicBool::new(false);
        let mr: MapReduce<&str, String, u64, (String, u64)> = MapReduce::new(3);
        let reduce = |k: &String, vs: &[u64]| vec![(k.clone(), vs.iter().sum::<u64>())];
        let (out, stats) = mr
            .try_run(
                &texts,
                &ExecPolicy::retrying(fast_retry(2)),
                |text, emit| {
                    if *text == "c d" && !tripped.swap(true, Ordering::Relaxed) {
                        panic!("first attempt dies");
                    }
                    map_words(text, emit)
                },
                reduce,
            )
            .unwrap();
        assert_eq!(out, reference(&texts));
        assert_eq!(stats.tasks_retried, 1);

        let err = mr
            .try_run(
                &texts,
                &ExecPolicy::retrying(fast_retry(2)),
                |text, emit| {
                    assert!(*text != "e f", "always dies");
                    map_words(text, emit)
                },
                reduce,
            )
            .unwrap_err();
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
                let policy = ExecPolicy {
                    retry: fast_retry(4),
                    injector: Some(Arc::new(FaultInjector::new(plan))),
                    speculation: None,
                    obs: Default::default(),
                };
                let (out, stats) = try_word_count(&refs, workers, &policy).unwrap();
                assert_eq!(out, reference, "seed={seed} workers={workers}");
                total_faults += stats.faults_injected;
            }
        }
        assert!(total_faults > 0, "the sweep must actually inject faults");
    }

    #[test]
    fn spilling_composes_with_seeded_faults() {
        // The bounded shuffle is run_dist's spill bound: a 1-byte bound
        // flushes every record to its own segment, and absorbable seeded
        // faults on top must still leave the output equal to the oracle.
        use crate::dist::{default_registry, run_dist, DistOptions};
        use crate::transport::InProcessTransport;
        let texts: Vec<String> = (0..40)
            .map(|i| format!("t{} t{} shared", i % 7, i % 3))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let reference: Vec<(String, String)> = reference(&refs)
            .into_iter()
            .map(|(k, n)| (k, n.to_string()))
            .collect();
        let mut total_faults = 0;
        for seed in 0..4u64 {
            let plan = FaultPlan::seeded(er_core::fault::SeededFaults::absorbable(seed));
            let injector = Arc::new(FaultInjector::new(plan));
            let policy = ExecPolicy {
                retry: fast_retry(4),
                injector: Some(Arc::clone(&injector)),
                speculation: None,
                obs: Default::default(),
            };
            let mut t = InProcessTransport::new(3, default_registry(), policy);
            let opts = DistOptions {
                spill_bound: 1,
                ..DistOptions::for_workers(3)
            };
            let out = run_dist(&mut t, "wordcount", &texts, &opts).unwrap();
            assert_eq!(out.pairs, reference, "seed={seed}");
            assert!(out.stats.spills > 0);
            total_faults += injector.injected();
        }
        assert!(total_faults > 0, "the sweep must actually inject faults");
    }
}
