//! The attempt ledger: the one place the retry, backoff, speculation,
//! crash-reassignment and fault-injection rules of a stage are written.
//!
//! A [`Ledger`] is a single-threaded state machine with the clock passed in.
//! The thread scheduler (`engine::execute_tasks`) puts it behind a mutex and
//! lets worker threads claim and report; the process supervisor
//! (`SubprocessTransport::run_stage`) drives it from frames, pipe EOFs and
//! missed heartbeats. Neither shell decides anything about attempts, so the
//! two backends cannot disagree. The rules (see `docs/fault_tolerance.md`):
//!
//! * **Claim** — the oldest queued attempt whose backoff has expired runs
//!   next; a queued attempt of an already completed task is dropped. The
//!   fault injector is consulted here and nowhere else: a scheduled
//!   `Transient` or `Panic` costs exactly that attempt as a typed failure, a
//!   `Delay` is handed to the shell as a stall of that attempt alone.
//! * **Success** — first finisher wins; a later duplicate is dropped (all
//!   attempts run the same pure function, so identity, not timing, decides).
//!   Task latency is recorded once, on the first success.
//! * **Typed failure** — only typed failures count against
//!   `RetryPolicy::max_attempts`. The `k`-th failure of a task queues a
//!   retry after `backoff_for(stage, task, k)` while `k < max_attempts`;
//!   otherwise the stage fails once no other attempt of the task is live,
//!   with `ExecError::attempts` = typed failures observed.
//! * **Lost attempt** — its worker died: re-queued at the front under a
//!   fresh attempt number, consuming no retry budget.
//! * **Straggler** — a running attempt older than `straggler_factor ×` the
//!   median completed duration (floored at `min_runtime`) gets one backup
//!   per task, whatever retry budget remains.
//! * **Outcomes of attempts the ledger does not list as running are
//!   ignored**, so a corrupt or late report can never unbalance it.

use crate::engine::ExecError;
use er_core::fault::ExecPolicy;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Retry / speculation / reassignment accounting of one stage — the one
/// record `StageOutput` and `DistStats` are filled from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) retried: u64,
    pub(crate) speculated: u64,
    pub(crate) reassigned: u64,
}

/// An attempt handed to a shell: run `task` as `attempt` after stalling that
/// attempt (and nothing else) for `stall`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Claim {
    pub(crate) task: usize,
    pub(crate) attempt: u32,
    pub(crate) stall: Duration,
}

/// A queued (`at` = not before) or running (`at` = started) attempt.
struct Attempt {
    task: usize,
    attempt: u32,
    at: Instant,
}

struct TaskState<O> {
    /// First-finisher-wins result slot.
    result: Option<O>,
    /// Queued or running attempts.
    live: u32,
    next_attempt: u32,
    /// Typed failures observed.
    failures: u32,
    speculated: bool,
}

/// Scheduler state of one stage; see the module docs for the rules.
pub(crate) struct Ledger<'a, O> {
    stage: &'a str,
    policy: &'a ExecPolicy,
    latency: er_core::obs::Histogram,
    queue: VecDeque<Attempt>,
    running: Vec<Attempt>,
    tasks: Vec<TaskState<O>>,
    completed: usize,
    /// Durations of first successes (support for the straggler median).
    durations: Vec<Duration>,
    counters: Counters,
    fatal: Option<ExecError>,
}

impl<'a, O> Ledger<'a, O> {
    /// A ledger over `n` tasks with attempt 0 of each queued at `now`.
    pub(crate) fn new(stage: &'a str, n: usize, policy: &'a ExecPolicy, now: Instant) -> Self {
        let mut ledger = Ledger {
            stage,
            policy,
            // One handle per stage: recording on it is plain relaxed atomics,
            // so no report touches the registry lock.
            latency: policy.obs.histogram("mapreduce.task_latency_micros"),
            queue: VecDeque::with_capacity(n),
            running: Vec::new(),
            tasks: Vec::with_capacity(n),
            completed: 0,
            durations: Vec::with_capacity(n),
            counters: Counters::default(),
            fatal: None,
        };
        for task in 0..n {
            ledger.tasks.push(TaskState {
                result: None,
                live: 0,
                next_attempt: 0,
                failures: 0,
                speculated: false,
            });
            ledger.enqueue(task, now, false);
        }
        ledger
    }

    /// Whether the stage has failed.
    pub(crate) fn failed(&self) -> bool {
        self.fatal.is_some()
    }

    /// Whether the stage is over: failed, or every task has a result.
    pub(crate) fn done(&self) -> bool {
        self.failed() || self.completed == self.tasks.len()
    }

    /// When the earliest queued attempt becomes claimable (idle-wait hint).
    pub(crate) fn next_ready(&self) -> Option<Instant> {
        self.queue.iter().map(|q| q.at).min()
    }

    /// Launches due straggler backups, then hands out the next ready
    /// attempt; `None` when nothing is ready or the stage is over.
    pub(crate) fn claim(&mut self, now: Instant) -> Option<Claim> {
        self.launch_backups(now);
        while !self.done() {
            let pos = self.queue.iter().position(|q| q.at <= now)?;
            let Attempt { task, attempt, .. } = self.queue.remove(pos)?;
            if self.tasks[task].result.is_some() {
                self.tasks[task].live -= 1;
                continue;
            }
            self.running.push(Attempt {
                task,
                attempt,
                at: now,
            });
            let fault = match &self.policy.injector {
                Some(injector) => injector.decide(self.stage, task, attempt),
                None => Ok(Duration::ZERO),
            };
            match fault {
                Ok(stall) => {
                    return Some(Claim {
                        task,
                        attempt,
                        stall,
                    })
                }
                Err(fault) => self.failure(task, attempt, fault.to_string(), now),
            }
        }
        None
    }

    /// A running attempt produced `out`.
    pub(crate) fn success(&mut self, task: usize, attempt: u32, out: O, now: Instant) {
        let Some(started) = self.retire(task, attempt) else {
            return;
        };
        let slot = &mut self.tasks[task].result;
        if slot.is_none() {
            *slot = Some(out);
            self.completed += 1;
            let elapsed = now.saturating_duration_since(started);
            self.durations.push(elapsed);
            self.latency.record(elapsed.as_micros() as u64);
        }
    }

    /// A running attempt failed with a typed error (or a caught panic).
    pub(crate) fn failure(&mut self, task: usize, attempt: u32, message: String, now: Instant) {
        if self.retire(task, attempt).is_none() || self.tasks[task].result.is_some() {
            return; // unknown attempt, or a backup already completed the task
        }
        self.tasks[task].failures += 1;
        let failures = self.tasks[task].failures;
        if failures < self.policy.retry.max_attempts {
            self.counters.retried += 1;
            let backoff = self.policy.retry.backoff_for(self.stage, task, failures);
            self.enqueue(task, now + backoff, false);
        } else if self.tasks[task].live == 0 {
            self.fatal = Some(ExecError {
                stage: self.stage.to_string(),
                task,
                attempts: failures,
                message,
            });
        }
    }

    /// A running attempt's worker died before reporting.
    pub(crate) fn lost(&mut self, task: usize, attempt: u32, now: Instant) {
        if self.retire(task, attempt).is_some() && self.tasks[task].result.is_none() {
            self.counters.reassigned += 1;
            self.enqueue(task, now, true);
        }
    }

    /// Fails the stage for a reason outside any one attempt (`stage` names
    /// the supervising step); the first recorded failure stands.
    pub(crate) fn abort(&mut self, stage: &str, message: String) {
        let task = self.tasks.iter().position(|t| t.result.is_none());
        self.fatal.get_or_insert(ExecError {
            stage: stage.to_string(),
            task: task.unwrap_or(0),
            attempts: 0,
            message,
        });
    }

    /// The results in task order, or the stage's typed error. An empty slot
    /// without a recorded failure is a broken scheduler invariant — exactly
    /// what a future scheduling bug would produce — and surfaces as a typed
    /// [`ExecError`] too, never an abort.
    pub(crate) fn finish(self) -> Result<(Vec<O>, Counters), ExecError> {
        if let Some(e) = self.fatal {
            return Err(e);
        }
        let mut results = Vec::with_capacity(self.tasks.len());
        for (task, state) in self.tasks.into_iter().enumerate() {
            results.push(
                state.result.ok_or_else(|| ExecError {
                    stage: self.stage.to_string(),
                    task,
                    attempts: state.failures,
                    message: "task finished with no recorded result (scheduler invariant broken)"
                        .to_string(),
                })?,
            );
        }
        Ok((results, self.counters))
    }

    /// Queues the task's next attempt number.
    fn enqueue(&mut self, task: usize, not_before: Instant, front: bool) {
        let state = &mut self.tasks[task];
        let queued = Attempt {
            task,
            attempt: state.next_attempt,
            at: not_before,
        };
        state.next_attempt += 1;
        state.live += 1;
        if front {
            self.queue.push_front(queued);
        } else {
            self.queue.push_back(queued);
        }
    }

    /// Takes a reported attempt off the running list; its start time, or
    /// `None` for an attempt that is not running.
    fn retire(&mut self, task: usize, attempt: u32) -> Option<Instant> {
        let pos = self
            .running
            .iter()
            .position(|r| r.task == task && r.attempt == attempt)?;
        self.tasks[task].live -= 1;
        Some(self.running.remove(pos).at)
    }

    /// The Hadoop speculative-execution rule, one backup per task.
    fn launch_backups(&mut self, now: Instant) {
        let Some(spec) = self.policy.speculation else {
            return;
        };
        if self.running.is_empty() || self.durations.len() < spec.min_completed {
            return;
        }
        let mut sorted = self.durations.clone();
        sorted.sort_unstable();
        let Some(median) = sorted.get(sorted.len() / 2) else {
            return;
        };
        let threshold = median.mul_f64(spec.straggler_factor).max(spec.min_runtime);
        let tasks = &self.tasks;
        let stragglers: Vec<usize> = self
            .running
            .iter()
            .filter(|r| now.saturating_duration_since(r.at) > threshold)
            .map(|r| r.task)
            .filter(|&t| tasks[t].result.is_none() && !tasks[t].speculated)
            .collect();
        for task in stragglers {
            self.tasks[task].speculated = true;
            self.counters.speculated += 1;
            self.enqueue(task, now, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy, SpeculationConfig};
    use std::sync::Arc;

    const MS: Duration = Duration::from_millis(1);

    fn retrying(max_attempts: u32) -> ExecPolicy {
        ExecPolicy::retrying(RetryPolicy {
            max_attempts,
            base_backoff: 4 * MS,
            max_backoff: 64 * MS,
            jitter_seed: 9,
        })
    }

    fn speculating(max_attempts: u32) -> ExecPolicy {
        retrying(max_attempts).with_speculation(SpeculationConfig {
            straggler_factor: 2.0,
            min_completed: 1,
            min_runtime: MS,
        })
    }

    fn claim<O>(l: &mut Ledger<O>, now: Instant) -> (usize, u32) {
        let c = l.claim(now).expect("an attempt is ready");
        assert_eq!(c.stall, Duration::ZERO);
        (c.task, c.attempt)
    }

    #[test]
    fn attempts_are_claimed_in_task_order_and_results_returned_in_task_order() {
        let policy = ExecPolicy::default();
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 3, &policy, t0);
        assert_eq!(claim(&mut l, t0), (0, 0));
        assert_eq!(claim(&mut l, t0), (1, 0));
        assert_eq!(claim(&mut l, t0), (2, 0));
        assert_eq!(l.claim(t0), None);
        l.success(2, 0, "c", t0 + MS);
        l.success(0, 0, "a", t0 + MS);
        assert!(!l.done());
        l.success(1, 0, "b", t0 + MS);
        assert!(l.done() && !l.failed());
        assert_eq!(l.finish(), Ok((vec!["a", "b", "c"], Counters::default())));
    }

    #[test]
    fn failures_retry_until_the_budget_with_the_real_stage_backoff_then_fail_typed() {
        let policy = retrying(3);
        let t0 = Instant::now();
        let mut l: Ledger<()> = Ledger::new("map", 2, &policy, t0);
        let task = 1;
        assert_eq!(claim(&mut l, t0), (0, 0));
        let mut now = t0;
        for k in 1..=2u32 {
            assert_eq!(claim(&mut l, now), (task, k - 1));
            l.failure(task, k - 1, format!("failure {k}"), now);
            assert!(!l.failed(), "failure {k} of 3 is retried");
            // The retry is queued exactly `backoff_for(<real stage>, task, k)`
            // later — not a moment earlier, and not under another stage name.
            let backoff = policy.retry.backoff_for("map", task, k);
            assert_ne!(backoff, policy.retry.backoff_for("stage", task, k));
            assert_eq!(l.next_ready(), Some(now + backoff));
            assert_eq!(l.claim(now + backoff - Duration::from_nanos(1)), None);
            now += backoff;
        }
        assert_eq!(claim(&mut l, now), (task, 2));
        l.failure(task, 2, "failure 3".to_string(), now);
        assert!(l.done() && l.failed());
        assert_eq!(l.claim(now), None, "a failed stage hands out nothing");
        let err = l.finish().unwrap_err();
        assert_eq!((err.stage.as_str(), err.task, err.attempts), ("map", 1, 3));
        assert_eq!(err.message, "failure 3");
    }

    #[test]
    fn a_backup_costs_no_retry_budget_and_defers_the_fatal_while_it_is_live() {
        let policy = speculating(2);
        let t0 = Instant::now();
        let mut l = Ledger::new("reduce", 2, &policy, t0);
        assert_eq!(claim(&mut l, t0), (0, 0));
        assert_eq!(claim(&mut l, t0), (1, 0));
        l.success(0, 0, 10, t0 + MS); // median 1 ms → threshold 2 ms
        assert_eq!(l.claim(t0 + 2 * MS), None, "not yet a straggler");
        assert_eq!(claim(&mut l, t0 + 3 * MS), (1, 1), "the backup");
        assert_eq!(l.claim(t0 + 9 * MS), None, "one backup per task");

        // The backup took attempt number 1 but no budget: with max_attempts
        // = 2 the first typed failure still earns a retry…
        l.failure(1, 0, "first".to_string(), t0 + 4 * MS);
        assert!(!l.failed());
        let retry_at = t0 + 4 * MS + policy.retry.backoff_for("reduce", 1, 1);
        assert_eq!(claim(&mut l, retry_at), (1, 2));
        // …the second exhausts it, but the backup is still live, so the
        // stage is not failed yet…
        l.failure(1, 2, "second".to_string(), retry_at);
        assert!(!l.failed());
        // …and fails only when the last live attempt is gone.
        l.failure(1, 1, "third".to_string(), retry_at + MS);
        let err = l.finish().unwrap_err();
        assert_eq!((err.task, err.attempts), (1, 3), "typed failures observed");
        assert_eq!(err.message, "third");
    }

    #[test]
    fn first_finisher_wins_and_late_duplicates_and_moot_failures_are_dropped() {
        let obs = er_core::obs::Obs::enabled();
        let policy = speculating(1).with_obs(obs.clone());
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 3, &policy, t0);
        for task in 0..3 {
            assert_eq!(claim(&mut l, t0), (task, 0));
        }
        l.success(0, 0, "a", t0 + MS);
        assert_eq!(claim(&mut l, t0 + 5 * MS), (1, 1));
        assert_eq!(claim(&mut l, t0 + 5 * MS), (2, 1));
        l.success(1, 1, "backup", t0 + 6 * MS);
        l.success(1, 0, "original", t0 + 7 * MS); // late duplicate
        l.success(2, 0, "c", t0 + 7 * MS);
        assert!(l.done());
        // A failure after completion is moot even with no retries left, and
        // a report for an attempt that is not running is ignored outright.
        l.failure(2, 1, "moot".to_string(), t0 + 8 * MS);
        l.failure(2, 1, "twice".to_string(), t0 + 8 * MS);
        l.success(7, 0, "out of range", t0 + 8 * MS);
        let counters = Counters {
            speculated: 2,
            ..Counters::default()
        };
        assert_eq!(l.finish(), Ok((vec!["a", "backup", "c"], counters)));
        // Latency is recorded once per task, on the first success.
        let snap = obs.snapshot();
        let latency = &snap.histograms["mapreduce.task_latency_micros"];
        assert_eq!(latency.count, 3);
        assert_eq!(latency.sum, 1_000 + 1_000 + 7_000);
    }

    #[test]
    fn a_lost_attempt_requeues_at_the_front_and_bumps_reassigned_only() {
        let policy = retrying(1);
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 3, &policy, t0);
        assert_eq!(claim(&mut l, t0), (0, 0));
        assert_eq!(claim(&mut l, t0), (1, 0));
        l.lost(1, 0, t0 + MS);
        l.lost(1, 0, t0 + MS); // not running any more: ignored
        assert_eq!(claim(&mut l, t0 + MS), (1, 1), "ahead of queued task 2");
        l.lost(1, 1, t0 + 2 * MS);
        assert_eq!(claim(&mut l, t0 + 2 * MS), (1, 2));
        // Two crashes consumed no retry budget: max_attempts = 1 still
        // allows the one typed failure it always did — and no more.
        l.success(1, 2, 'b', t0 + 3 * MS);
        l.success(0, 0, 'a', t0 + 3 * MS);
        assert_eq!(claim(&mut l, t0 + 3 * MS), (2, 0));
        l.lost(2, 0, t0 + 4 * MS);
        assert_eq!(claim(&mut l, t0 + 4 * MS), (2, 1));
        l.failure(2, 1, "typed".to_string(), t0 + 5 * MS);
        let err = l.finish().unwrap_err();
        assert_eq!((err.task, err.attempts), (2, 1));
    }

    #[test]
    fn counters_of_a_lost_then_completed_run() {
        let policy = retrying(2);
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 1, &policy, t0);
        assert_eq!(claim(&mut l, t0), (0, 0));
        l.lost(0, 0, t0);
        assert_eq!(claim(&mut l, t0), (0, 1));
        l.failure(0, 1, "typed".to_string(), t0);
        let retry_at = l.next_ready().unwrap();
        assert_eq!(claim(&mut l, retry_at), (0, 2));
        l.success(0, 2, (), retry_at);
        let counters = Counters {
            retried: 1,
            speculated: 0,
            reassigned: 1,
        };
        assert_eq!(l.finish(), Ok((vec![()], counters)));
    }

    #[test]
    fn injected_faults_cost_exactly_the_targeted_attempt() {
        let plan = FaultPlan::none()
            .inject("map", 0, 0, FaultKind::Transient)
            .inject("map", 1, 0, FaultKind::Panic)
            .inject("map", 2, 0, FaultKind::Delay(40 * MS));
        let injector = Arc::new(FaultInjector::new(plan));
        let policy = retrying(2).with_injector(injector.clone());
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 3, &policy, t0);
        // Tasks 0 and 1 fail inside the claim without unwinding or sleeping;
        // the delay is handed out as a stall of task 2's attempt alone.
        let delayed = l.claim(t0).unwrap();
        assert_eq!(
            delayed,
            Claim {
                task: 2,
                attempt: 0,
                stall: 40 * MS
            }
        );
        assert_eq!(injector.injected(), 3);
        assert_eq!(l.claim(t0), None, "both retries are backing off");
        let later = t0 + policy.retry.max_backoff;
        assert_eq!(claim(&mut l, later), (0, 1));
        assert_eq!(claim(&mut l, later), (1, 1));
        for (task, attempt) in [(0, 1), (1, 1), (2, 0)] {
            l.success(task, attempt, task, later);
        }
        let counters = Counters {
            retried: 2,
            ..Counters::default()
        };
        assert_eq!(l.finish(), Ok((vec![0, 1, 2], counters)));
    }

    #[test]
    fn an_injected_fault_on_the_last_attempt_fails_the_stage_from_the_claim() {
        let plan = FaultPlan::none().inject_all_attempts("reduce", 0, 5, FaultKind::Panic);
        let policy = retrying(1).with_injector(Arc::new(FaultInjector::new(plan)));
        let t0 = Instant::now();
        let mut l: Ledger<()> = Ledger::new("reduce", 2, &policy, t0);
        assert_eq!(l.claim(t0), None);
        let err = l.finish().unwrap_err();
        assert_eq!(
            (err.stage.as_str(), err.task, err.attempts),
            ("reduce", 0, 1)
        );
        assert!(err.message.contains("injected panic"), "{err}");
    }

    #[test]
    fn an_empty_result_slot_is_a_typed_error_not_a_panic() {
        let policy = retrying(3);
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 3, &policy, t0);
        for task in 0..3 {
            assert_eq!(claim(&mut l, t0), (task, 0));
        }
        l.success(0, 0, 1, t0);
        l.success(2, 0, 3, t0);
        l.failure(1, 0, "once".to_string(), t0);
        // Finishing a stage that is not done is the broken invariant.
        let err = l.finish().unwrap_err();
        assert_eq!((err.stage.as_str(), err.task, err.attempts), ("map", 1, 1));
        assert!(err.to_string().contains("no recorded result"));
    }

    #[test]
    fn abort_names_the_first_incomplete_task_and_the_first_failure_stands() {
        let policy = ExecPolicy::default();
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 2, &policy, t0);
        assert_eq!(claim(&mut l, t0), (0, 0));
        l.success(0, 0, (), t0);
        l.abort("supervise", "pool exhausted".to_string());
        l.abort("map", "deadline".to_string());
        let err = l.finish().unwrap_err();
        assert_eq!(
            (err.stage.as_str(), err.task, err.attempts),
            ("supervise", 1, 0)
        );
    }

    #[test]
    fn a_queued_attempt_of_a_completed_task_is_dropped() {
        let policy = speculating(3);
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 3, &policy, t0);
        for task in 0..3 {
            assert_eq!(claim(&mut l, t0), (task, 0));
        }
        l.success(0, 0, (), t0 + MS);
        assert_eq!(claim(&mut l, t0 + 3 * MS), (1, 1), "task 1's backup");
        l.lost(1, 1, t0 + 3 * MS); // (1, 2) now heads the queue
        l.success(1, 0, (), t0 + 4 * MS);
        assert_eq!(claim(&mut l, t0 + 4 * MS), (2, 1), "(1, 2) was skipped");
        l.success(2, 1, (), t0 + 5 * MS);
        assert!(l.done() && !l.failed());
    }
}
