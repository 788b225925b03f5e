//! Deterministic fault injection and retry policies.
//!
//! The web-scale techniques of §II–§III assume a MapReduce runtime that
//! masks task failures; this module provides the substrate
//! the workspace's in-process execution layers (`er-mapreduce::engine`,
//! `er-pipeline::recovery`) use to *simulate and survive* those failures
//! deterministically:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seedable schedule of injected
//!   faults (panic, transient error, artificial delay), keyed by
//!   `(stage, task index, attempt)` so a failure schedule is a pure function
//!   of the seed and is bit-for-bit reproducible in tests and CI;
//! * [`RetryPolicy`] — bounded retries with exponential backoff and
//!   *deterministic* jitter (hashed from the task key, not sampled from a
//!   global RNG), so two runs of the same schedule wait the same intervals;
//! * [`ExecPolicy`] — the bundle an execution layer consumes.
//!
//! The determinism contract mirrors `docs/parallelism.md`: any run that
//! completes under injected faults must be **bit-identical** to the
//! fault-free run. A retry re-runs a pure task on the same input, so it can
//! change only wall-clock time, never output. A task has one attempt in
//! flight at a time. See `docs/fault_tolerance.md`.

use crate::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The kinds of fault an injector can fire at a task attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The task panics (simulates a crashing worker).
    Panic,
    /// The task fails with a recoverable error (simulates a lost node /
    /// timed-out RPC — the classic retryable failure).
    Transient,
    /// The task is artificially delayed (simulates a straggler).
    Delay(Duration),
}

/// Identifies one task attempt: `(stage, task index, attempt number)`.
/// Attempt numbers start at 0; every retry and every reassignment after a
/// worker death takes the task's next number.
pub type FaultKey = (String, usize, u32);

/// A deterministic schedule of faults.
///
/// Two flavors:
/// * **explicit** — exact `(stage, task, attempt) → fault` entries, for
///   targeted tests and the CLI's `--fail-stage` demo;
/// * **seeded** — a pseudo-random schedule derived by hashing
///   `(seed, stage, task, attempt)`; the same seed always produces the same
///   schedule, independent of worker count and timing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    explicit: std::collections::BTreeMap<FaultKey, FaultKind>,
    seeded: Option<SeededFaults>,
}

/// Parameters of a seeded pseudo-random fault schedule.
#[derive(Clone, Copy, Debug)]
pub struct SeededFaults {
    /// Seed of the schedule; the whole schedule is a pure function of it.
    pub seed: u64,
    /// Probability (per mille) that an eligible attempt panics.
    pub panic_per_mille: u16,
    /// Probability (per mille) that an eligible attempt fails transiently.
    pub transient_per_mille: u16,
    /// Probability (per mille) that an eligible attempt is delayed.
    pub delay_per_mille: u16,
    /// Length of an injected delay.
    pub delay: Duration,
    /// Faults fire only on attempts `< max_attempt`. With
    /// `max_attempt ≤ RetryPolicy::max_attempts − 1` every schedule is
    /// *absorbable*: some attempt of every task is fault-free.
    pub max_attempt: u32,
}

impl SeededFaults {
    /// A moderately hostile absorbable schedule: ~30% of first attempts
    /// fault (split between panics, transient errors and 2 ms delays),
    /// second and later attempts are clean.
    pub fn absorbable(seed: u64) -> Self {
        SeededFaults {
            seed,
            panic_per_mille: 100,
            transient_per_mille: 150,
            delay_per_mille: 50,
            delay: Duration::from_millis(2),
            max_attempt: 1,
        }
    }
}

impl FaultPlan {
    /// A plan that never fires.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builder: adds an explicit fault at `(stage, task, attempt)`.
    pub fn inject(
        mut self,
        stage: impl Into<String>,
        task: usize,
        attempt: u32,
        kind: FaultKind,
    ) -> Self {
        self.explicit.insert((stage.into(), task, attempt), kind);
        self
    }

    /// Builder: adds an explicit fault on *every* attempt `0..attempts` of
    /// the task — an unabsorbable schedule when `attempts ≥ max_attempts`.
    pub fn inject_all_attempts(
        mut self,
        stage: impl Into<String>,
        task: usize,
        attempts: u32,
        kind: FaultKind,
    ) -> Self {
        let stage = stage.into();
        for a in 0..attempts {
            self.explicit.insert((stage.clone(), task, a), kind);
        }
        self
    }

    /// A seeded pseudo-random schedule (see [`SeededFaults`]).
    pub fn seeded(cfg: SeededFaults) -> Self {
        FaultPlan {
            explicit: std::collections::BTreeMap::new(),
            seeded: Some(cfg),
        }
    }

    /// The fault scheduled for this attempt, if any. Pure: depends only on
    /// the plan and the key, never on timing or worker count.
    pub fn fault_for(&self, stage: &str, task: usize, attempt: u32) -> Option<FaultKind> {
        if let Some(k) = self
            .explicit
            .get(&(stage.to_string(), task, attempt))
            .copied()
        {
            return Some(k);
        }
        let cfg = self.seeded?;
        if attempt >= cfg.max_attempt {
            return None;
        }
        let h = hash_key(cfg.seed, stage, task, attempt);
        let r = (h % 1000) as u16;
        if r < cfg.panic_per_mille {
            Some(FaultKind::Panic)
        } else if r < cfg.panic_per_mille + cfg.transient_per_mille {
            Some(FaultKind::Transient)
        } else if r < cfg.panic_per_mille + cfg.transient_per_mille + cfg.delay_per_mille {
            Some(FaultKind::Delay(cfg.delay))
        } else {
            None
        }
    }

    /// Whether the plan can fire at all (lets executors skip the bookkeeping
    /// entirely on the fault-free fast path).
    pub fn is_empty(&self) -> bool {
        self.explicit.is_empty() && self.seeded.is_none()
    }
}

/// A transient task failure — the error type injected faults and caught
/// panics are normalized into inside the execution layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransientFault {
    /// Stage the failing task belonged to.
    pub stage: String,
    /// Task index within the stage.
    pub task: usize,
    /// Attempt number that failed.
    pub attempt: u32,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for TransientFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transient fault in stage {:?}, task {}, attempt {}: {}",
            self.stage, self.task, self.attempt, self.message
        )
    }
}

impl std::error::Error for TransientFault {}

/// Fires faults from a [`FaultPlan`] and counts them. Shared across worker
/// threads (`&self` methods, atomic counter), so one injector observes a
/// whole job or pipeline run.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Creates an injector over a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            injected: AtomicU64::new(0),
        }
    }

    /// The scheduler-side form of [`fire`](FaultInjector::fire): decides the
    /// attempt's fault and counts it without acting on it, so a
    /// single-threaded scheduler can consult the plan without sleeping or
    /// unwinding. `Ok(stall)` — run the attempt after stalling *it alone*
    /// for `stall` (zero unless a delay is scheduled); `Err` — the attempt
    /// fails with this typed fault (a scheduled panic included).
    pub fn decide(
        &self,
        stage: &str,
        task: usize,
        attempt: u32,
    ) -> Result<Duration, TransientFault> {
        let Some(kind) = self.plan.fault_for(stage, task, attempt) else {
            return Ok(Duration::ZERO);
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        let message = match kind {
            FaultKind::Delay(d) => return Ok(d),
            FaultKind::Transient => "injected transient fault",
            FaultKind::Panic => "injected panic",
        };
        Err(TransientFault {
            stage: stage.to_string(),
            task,
            attempt,
            message: message.into(),
        })
    }

    /// Called by an executor at the start of a task attempt. Depending on
    /// the plan this returns `Ok` (no fault), sleeps then returns `Ok`
    /// (delay), returns `Err` (transient), or panics.
    pub fn fire(&self, stage: &str, task: usize, attempt: u32) -> Result<(), TransientFault> {
        if self.plan.fault_for(stage, task, attempt) == Some(FaultKind::Panic) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("injected panic in stage {stage:?}, task {task}, attempt {attempt}");
        }
        self.decide(stage, task, attempt).map(std::thread::sleep)
    }

    /// Number of faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether this injector can ever fire.
    pub fn is_inert(&self) -> bool {
        self.plan.is_empty()
    }
}

/// Bounded retries with exponential backoff and deterministic jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per task (first attempt included); must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff interval.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 1 ms base backoff capped at 50 ms — scaled for the
    /// in-process simulation, not a distributed cluster.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries: a single attempt per task.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// `attempts` total attempts with the default backoff parameters.
    pub fn attempts(attempts: u32) -> Self {
        assert!(attempts >= 1, "need at least one attempt");
        RetryPolicy {
            max_attempts: attempts,
            ..Default::default()
        }
    }

    /// The backoff to wait before running attempt `attempt` (≥ 1) of the
    /// task: exponential in the retry count, clamped to `max_backoff`, with
    /// *decorrelated but deterministic* jitter in `[d/2, d]` hashed from
    /// `(jitter_seed, stage, task, attempt)` — two runs of the same schedule
    /// back off identically, while distinct tasks desynchronize.
    pub fn backoff_for(&self, stage: &str, task: usize, attempt: u32) -> Duration {
        if attempt == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(20);
        let full = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let nanos = full.as_nanos() as u64;
        let jitter = hash_key(self.jitter_seed, stage, task, attempt) % (nanos / 2 + 1);
        Duration::from_nanos(nanos / 2 + jitter)
    }
}

/// The fault-tolerance bundle an execution layer consumes: retry policy,
/// optional injector, optional observability.
#[derive(Clone, Default)]
pub struct ExecPolicy {
    /// Retry/backoff policy.
    pub retry: RetryPolicy,
    /// Fault injector shared by every task of the run (tests, demos).
    pub injector: Option<std::sync::Arc<FaultInjector>>,
    /// Observability handle: execution layers mirror their job statistics
    /// and per-task latency histograms into it. Disabled by default.
    pub obs: crate::obs::Obs,
}

impl std::fmt::Debug for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPolicy")
            .field("retry", &self.retry)
            .field("injector", &self.injector.as_ref().map(|i| i.injected()))
            .field("obs", &self.obs)
            .finish()
    }
}

impl ExecPolicy {
    /// Retries only, no injection.
    pub fn retrying(retry: RetryPolicy) -> Self {
        ExecPolicy {
            retry,
            ..Default::default()
        }
    }

    /// Adds a shared injector.
    pub fn with_injector(mut self, injector: std::sync::Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attaches an observability handle.
    pub fn with_obs(mut self, obs: crate::obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Faults injected so far by this policy's injector (0 without one).
    pub fn faults_injected(&self) -> u64 {
        self.injector.as_ref().map_or(0, |i| i.injected())
    }
}

/// Reads the fault seed CI sweeps through the `ER_FAULT_SEED` environment
/// variable; `None` when unset or unparsable.
pub fn fault_seed_from_env() -> Option<u64> {
    std::env::var("ER_FAULT_SEED").ok()?.trim().parse().ok()
}

/// The message of a caught panic: `task panicked: <payload>` for a string
/// payload, `task panicked` for any other.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}

/// SplitMix64-style avalanche hash over a task-attempt key. Stable across
/// platforms and runs (unlike `DefaultHasher`, whose seeds may vary), which
/// is what makes seeded fault schedules reproducible everywhere.
fn hash_key(seed: u64, stage: &str, task: usize, attempt: u32) -> u64 {
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in stage.as_bytes() {
        z = splitmix64(z ^ u64::from(*b));
    }
    z = splitmix64(z ^ task as u64);
    z = splitmix64(z ^ u64::from(attempt));
    splitmix64(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_fires_exactly_where_told() {
        let plan = FaultPlan::none()
            .inject("map", 2, 0, FaultKind::Transient)
            .inject("reduce", 0, 1, FaultKind::Panic);
        assert_eq!(plan.fault_for("map", 2, 0), Some(FaultKind::Transient));
        assert_eq!(plan.fault_for("reduce", 0, 1), Some(FaultKind::Panic));
        assert_eq!(plan.fault_for("map", 2, 1), None);
        assert_eq!(plan.fault_for("map", 1, 0), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn seeded_plan_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(SeededFaults::absorbable(7));
        let b = FaultPlan::seeded(SeededFaults::absorbable(7));
        let c = FaultPlan::seeded(SeededFaults::absorbable(8));
        let mut same = 0;
        let mut diff = 0;
        for task in 0..200 {
            assert_eq!(a.fault_for("map", task, 0), b.fault_for("map", task, 0));
            if a.fault_for("map", task, 0) == c.fault_for("map", task, 0) {
                same += 1;
            } else {
                diff += 1;
            }
        }
        assert!(diff > 0, "different seeds must differ somewhere");
        assert!(same > 0, "most attempts are fault-free under either seed");
    }

    #[test]
    fn seeded_plan_respects_max_attempt() {
        let plan = FaultPlan::seeded(SeededFaults::absorbable(3));
        for task in 0..500 {
            assert_eq!(plan.fault_for("map", task, 1), None, "task {task}");
            assert_eq!(plan.fault_for("map", task, 7), None, "task {task}");
        }
    }

    #[test]
    fn seeded_rates_are_roughly_honored() {
        let plan = FaultPlan::seeded(SeededFaults::absorbable(11));
        let n = 2000;
        let faults = (0..n)
            .filter(|&t| plan.fault_for("map", t, 0).is_some())
            .count();
        // 30% nominal; allow a generous band.
        assert!(faults > n / 5 && faults < n / 2, "faults = {faults}");
    }

    #[test]
    fn injector_counts_and_errors() {
        let inj = FaultInjector::new(FaultPlan::none().inject("s", 0, 0, FaultKind::Transient));
        assert!(inj.fire("s", 1, 0).is_ok());
        assert_eq!(inj.injected(), 0);
        let err = inj.fire("s", 0, 0).unwrap_err();
        assert_eq!(err.task, 0);
        assert!(err.to_string().contains("transient"));
        assert_eq!(inj.injected(), 1);
        assert!(!inj.is_inert());
        assert!(FaultInjector::new(FaultPlan::none()).is_inert());
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn injector_panics_on_panic_fault() {
        let inj = FaultInjector::new(FaultPlan::none().inject("s", 0, 0, FaultKind::Panic));
        let _ = inj.fire("s", 0, 0);
    }

    #[test]
    fn decide_counts_but_never_sleeps_or_unwinds() {
        let hour = Duration::from_secs(3600);
        let inj = FaultInjector::new(
            FaultPlan::none()
                .inject("s", 0, 0, FaultKind::Panic)
                .inject("s", 1, 0, FaultKind::Delay(hour))
                .inject("s", 2, 0, FaultKind::Transient),
        );
        let panic = inj.decide("s", 0, 0).unwrap_err();
        assert_eq!((panic.task, panic.attempt), (0, 0));
        assert!(panic.to_string().contains("injected panic"), "{panic}");
        assert_eq!(inj.decide("s", 1, 0), Ok(hour));
        assert!(inj.decide("s", 2, 0).is_err());
        assert_eq!(inj.decide("s", 3, 0), Ok(Duration::ZERO));
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            jitter_seed: 42,
        };
        assert_eq!(p.backoff_for("map", 0, 0), Duration::ZERO);
        for attempt in 1..8 {
            let d1 = p.backoff_for("map", 3, attempt);
            let d2 = p.backoff_for("map", 3, attempt);
            assert_eq!(d1, d2, "jitter must be deterministic");
            let full = Duration::from_millis(1 << (attempt - 1).min(3));
            assert!(d1 >= full / 2 && d1 <= full, "attempt {attempt}: {d1:?}");
        }
        // Cap: attempt 6 would be 32 ms uncapped, must stay ≤ 8 ms.
        assert!(p.backoff_for("map", 0, 6) <= Duration::from_millis(8));
        // Zero base disables backoff entirely.
        let z = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..p
        };
        assert_eq!(z.backoff_for("map", 1, 3), Duration::ZERO);
    }

    #[test]
    fn retry_policy_constructors() {
        assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
        assert_eq!(RetryPolicy::attempts(5).max_attempts, 5);
        assert_eq!(RetryPolicy::default().max_attempts, 3);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::attempts(0);
    }

    #[test]
    fn exec_policy_builder() {
        let inj = std::sync::Arc::new(FaultInjector::new(FaultPlan::none()));
        let p = ExecPolicy::retrying(RetryPolicy::attempts(4)).with_injector(inj);
        assert_eq!(p.retry.max_attempts, 4);
        assert!(p.injector.is_some());
        assert_eq!(p.faults_injected(), 0);
        assert!(format!("{p:?}").contains("ExecPolicy"));
    }

    #[test]
    fn env_seed_parses() {
        // Only exercise the parse path without mutating the environment.
        assert_eq!("17".trim().parse::<u64>().ok(), Some(17));
    }
}
