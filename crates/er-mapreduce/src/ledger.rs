//! The attempt ledger: the one place the retry, backoff, crash-reassignment
//! and fault-injection rules of a stage are written.
//!
//! A [`Ledger`] is a single-threaded state machine with the clock passed in.
//! The thread scheduler (`engine::execute_tasks`) puts it behind a mutex and
//! lets worker threads claim and report; the process supervisor
//! (`SubprocessTransport::run_stage`) drives it from frames, pipe EOFs and
//! missed heartbeats. Neither shell decides anything about attempts, so the
//! two backends cannot disagree. The rules (see `docs/fault_tolerance.md`):
//!
//! * **One attempt per task** — a task has at most one attempt queued or
//!   running: a retry or a reassignment is queued only after the attempt it
//!   replaces has been retired.
//! * **Claim** — the oldest queued attempt whose backoff has expired runs
//!   next. The fault injector is consulted here and nowhere else: a
//!   scheduled `Transient` or `Panic` costs exactly that attempt as a typed
//!   failure, a `Delay` is handed to the shell as a stall of that attempt
//!   alone.
//! * **Success** — fills the task's result slot and records its latency.
//! * **Typed failure** — only typed failures count against
//!   `RetryPolicy::max_attempts`. The `k`-th failure of a task queues a
//!   retry after `backoff_for(stage, task, k)` while `k < max_attempts`;
//!   otherwise the stage fails with `ExecError::attempts` = typed failures
//!   observed.
//! * **Lost attempt** — its worker died: re-queued at the front under a
//!   fresh attempt number, consuming no retry budget.
//! * **Outcomes of attempts the ledger does not list as running are
//!   ignored**, so a corrupt or late report can never unbalance it.

use crate::engine::ExecError;
use er_core::fault::ExecPolicy;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Retry / reassignment accounting of one stage — the one record
/// `StageOutput` and `DistStats` are filled from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) retried: u64,
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
    result: Option<O>,
    next_attempt: u32,
    /// Typed failures observed.
    failures: u32,
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
            counters: Counters::default(),
            fatal: None,
        };
        for task in 0..n {
            ledger.tasks.push(TaskState {
                result: None,
                next_attempt: 0,
                failures: 0,
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

    /// Hands out the next ready attempt; `None` when nothing is ready or the
    /// stage is over.
    pub(crate) fn claim(&mut self, now: Instant) -> Option<Claim> {
        while !self.done() {
            let pos = self.queue.iter().position(|q| q.at <= now)?;
            let Attempt { task, attempt, .. } = self.queue.remove(pos)?;
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
        self.tasks[task].result = Some(out);
        self.completed += 1;
        let elapsed = now.saturating_duration_since(started);
        self.latency.record(elapsed.as_micros() as u64);
    }

    /// A running attempt failed with a typed error (or a caught panic).
    pub(crate) fn failure(&mut self, task: usize, attempt: u32, message: String, now: Instant) {
        if self.retire(task, attempt).is_none() {
            return; // not a running attempt: a late or corrupt report
        }
        self.tasks[task].failures += 1;
        let failures = self.tasks[task].failures;
        if failures < self.policy.retry.max_attempts {
            self.counters.retried += 1;
            let backoff = self.policy.retry.backoff_for(self.stage, task, failures);
            self.enqueue(task, now + backoff, false);
        } else {
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
        if self.retire(task, attempt).is_some() {
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
        Some(self.running.remove(pos).at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
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
    fn reports_of_attempts_not_running_are_dropped_and_latency_is_recorded_per_success() {
        let obs = er_core::obs::Obs::enabled();
        let policy = retrying(1).with_obs(obs.clone());
        let t0 = Instant::now();
        let mut l = Ledger::new("map", 3, &policy, t0);
        for task in 0..3 {
            assert_eq!(claim(&mut l, t0), (task, 0));
        }
        l.success(0, 0, "a", t0 + MS);
        l.lost(1, 0, t0 + MS);
        assert_eq!(claim(&mut l, t0 + 2 * MS), (1, 1));
        l.success(1, 0, "stale", t0 + 3 * MS); // the lost attempt's late reply
        l.success(1, 1, "b", t0 + 5 * MS);
        l.success(2, 0, "c", t0 + 7 * MS);
        assert!(l.done());
        // A repeated report, a failure of an attempt that is not running and
        // an out-of-range task are all ignored, even with no retries left.
        l.success(0, 0, "again", t0 + 8 * MS);
        l.failure(2, 0, "late".to_string(), t0 + 8 * MS);
        l.failure(2, 1, "never ran".to_string(), t0 + 8 * MS);
        l.success(7, 0, "out of range", t0 + 8 * MS);
        let counters = Counters {
            reassigned: 1,
            ..Counters::default()
        };
        assert_eq!(l.finish(), Ok((vec!["a", "b", "c"], counters)));
        // Latency is recorded once per task, from the start of the attempt
        // that succeeded.
        let snap = obs.snapshot();
        let latency = &snap.histograms["mapreduce.task_latency_micros"];
        assert_eq!(latency.count, 3);
        assert_eq!(latency.sum, 1_000 + 3_000 + 7_000);
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
}
