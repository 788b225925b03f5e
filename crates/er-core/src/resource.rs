//! Resource governance: memory budgets and per-stage watchdogs.
//!
//! Web-scale inputs are skewed: a handful of stop-word tokens can inflate
//! the blocking index by orders of magnitude, and a pathological stage can
//! stall a pipeline forever. This module provides the zero-dependency
//! governance primitives the execution layers use to bound both failure
//! classes *without aborting* — the contract throughout this repo is that
//! resource exhaustion degrades (typed error or explicitly flagged partial
//! result), never panics:
//!
//! * [`MemoryBudget`] — a cloneable atomic byte account. Stages
//!   [`try_reserve`](MemoryBudget::try_reserve) before materializing large
//!   structures and [`release`](MemoryBudget::release) when they drop them.
//!   The disabled default is a no-op handle, mirroring
//!   [`Obs::disabled`](crate::obs::Obs::disabled): ungoverned callers pay a
//!   single branch on a `None`.
//! * [`Watchdog`] — a per-stage wall-clock deadline, checked cooperatively
//!   at task boundaries. Reuses the `Budget::Deadline` clock semantics of
//!   the progressive layer (`Instant::now() >= deadline` ⇒ expired).
//! * [`ResourceError`] — the typed exhaustion verdicts.
//! * [`ResourceLimits`] — the plain-old-data configuration surface the
//!   pipeline builder and CLI expose (`--memory-budget`, `--stage-timeout`).
//!
//! All accounting uses checked/saturating arithmetic so the debug-profile CI
//! job with `overflow-checks = true` would catch any wrap introduced later.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A typed resource-exhaustion verdict. Every governed layer returns (or
/// records) one of these instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResourceError {
    /// A [`MemoryBudget::try_reserve`] could not be satisfied.
    BudgetExhausted {
        /// Stage that attempted the reservation.
        stage: String,
        /// Bytes the stage asked for.
        requested: u64,
        /// Bytes already reserved when the request was made.
        used: u64,
        /// The budget's byte limit.
        limit: u64,
    },
    /// A [`Watchdog::check`] found the stage past its wall-clock deadline.
    DeadlineExceeded {
        /// Stage that overran.
        stage: String,
        /// The per-stage time budget that was configured.
        budget: Duration,
        /// How far past the deadline the check ran.
        overrun: Duration,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::BudgetExhausted {
                stage,
                requested,
                used,
                limit,
            } => write!(
                f,
                "stage {stage:?} memory budget exhausted: requested {requested} B with \
                 {used} of {limit} B already reserved"
            ),
            ResourceError::DeadlineExceeded {
                stage,
                budget,
                overrun,
            } => write!(
                f,
                "stage {stage:?} exceeded its {budget:?} deadline by {overrun:?}"
            ),
        }
    }
}

impl std::error::Error for ResourceError {}

/// Shared accounting state behind enabled [`MemoryBudget`] handles.
#[derive(Debug)]
struct BudgetCore {
    limit: u64,
    used: AtomicU64,
}

/// A cloneable atomic byte account. All clones share one balance, so a
/// budget handed to parallel workers governs their *combined* footprint.
///
/// The default ([`MemoryBudget::unlimited`]) is disabled: every operation is
/// a no-op and every reservation succeeds, so ungoverned code paths stay on
/// a single-branch fast path — the same design as [`crate::obs::Obs`].
#[derive(Clone, Debug, Default)]
pub struct MemoryBudget {
    core: Option<Arc<BudgetCore>>,
}

impl MemoryBudget {
    /// The disabled no-op budget: reservations always succeed, nothing is
    /// accounted.
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget { core: None }
    }

    /// An enabled budget of `limit` bytes.
    pub fn bytes(limit: u64) -> MemoryBudget {
        MemoryBudget {
            core: Some(Arc::new(BudgetCore {
                limit,
                used: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this handle enforces a limit.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The byte limit, if enabled.
    pub fn limit(&self) -> Option<u64> {
        self.core.as_ref().map(|c| c.limit)
    }

    /// Bytes currently reserved (0 for a disabled budget).
    pub fn used(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.used.load(Ordering::Relaxed))
    }

    /// Bytes still reservable (`u64::MAX` for a disabled budget).
    pub fn remaining(&self) -> u64 {
        match &self.core {
            None => u64::MAX,
            Some(c) => c.limit.saturating_sub(c.used.load(Ordering::Relaxed)),
        }
    }

    /// Attempts to reserve `bytes` for `stage`. Fails (without reserving
    /// anything) if the reservation would push the balance past the limit —
    /// the compare-exchange loop guarantees concurrent reservations can
    /// never jointly overshoot.
    pub fn try_reserve(&self, stage: &str, bytes: u64) -> Result<(), ResourceError> {
        let Some(core) = &self.core else {
            return Ok(());
        };
        let outcome = core
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                used.checked_add(bytes).filter(|&next| next <= core.limit)
            });
        match outcome {
            Ok(_) => Ok(()),
            Err(used) => Err(ResourceError::BudgetExhausted {
                stage: stage.to_string(),
                requested: bytes,
                used,
                limit: core.limit,
            }),
        }
    }

    /// Returns `bytes` to the budget. Saturating: releasing more than was
    /// reserved clamps to zero instead of wrapping (a double-release is a
    /// bookkeeping bug upstream, but must never corrupt the account).
    pub fn release(&self, bytes: u64) {
        if let Some(core) = &self.core {
            // fetch_update never fails when the closure always returns Some.
            let _ = core
                .used
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                    Some(used.saturating_sub(bytes))
                });
        }
    }
}

/// A per-stage wall-clock deadline, checked cooperatively at task
/// boundaries. `Copy`, so a stage can hand it to workers freely.
///
/// Semantics mirror the progressive layer's `Budget::Deadline`: the watchdog
/// is expired exactly when `Instant::now() >= deadline`, and a disarmed
/// watchdog (the default) never expires.
#[derive(Clone, Copy, Debug, Default)]
pub struct Watchdog {
    deadline: Option<Instant>,
    budget: Duration,
}

impl Watchdog {
    /// The disarmed watchdog: never expires, checks always pass.
    pub fn disarmed() -> Watchdog {
        Watchdog::default()
    }

    /// A watchdog armed now, expiring after `budget` — the same construction
    /// as the progressive `Budget::timeout`.
    pub fn timeout(budget: Duration) -> Watchdog {
        Watchdog {
            deadline: Instant::now().checked_add(budget),
            budget,
        }
    }

    /// Whether a deadline is armed.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
    }

    /// Whether the deadline has passed (always `false` when disarmed).
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Task-boundary check: `Ok` while the deadline holds, a typed
    /// [`ResourceError::DeadlineExceeded`] once it has passed.
    pub fn check(&self, stage: &str) -> Result<(), ResourceError> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let now = Instant::now();
        if now < deadline {
            return Ok(());
        }
        Err(ResourceError::DeadlineExceeded {
            stage: stage.to_string(),
            budget: self.budget,
            overrun: now.saturating_duration_since(deadline),
        })
    }
}

/// Declarative resource limits — what the pipeline builder
/// (`.resource_limits(…)`) and the CLI (`--memory-budget`,
/// `--stage-timeout`) accept. The default is fully unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Byte budget for the run's governed data structures (the blocking
    /// index is the dominant account holder), or `None` for unlimited.
    pub memory_bytes: Option<u64>,
    /// Wall-clock budget for each pipeline stage, or `None` for unlimited.
    pub stage_timeout: Option<Duration>,
}

impl ResourceLimits {
    /// No limits (the default): governance is compiled in but disabled.
    pub fn none() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// Sets the memory budget in bytes.
    pub fn with_memory_bytes(mut self, bytes: u64) -> ResourceLimits {
        self.memory_bytes = Some(bytes);
        self
    }

    /// Sets the per-stage wall-clock budget.
    pub fn with_stage_timeout(mut self, timeout: Duration) -> ResourceLimits {
        self.stage_timeout = Some(timeout);
        self
    }

    /// Whether both knobs are unset.
    pub fn is_unlimited(&self) -> bool {
        self.memory_bytes.is_none() && self.stage_timeout.is_none()
    }

    /// A fresh budget for one run: enabled iff `memory_bytes` is set.
    pub fn budget(&self) -> MemoryBudget {
        match self.memory_bytes {
            Some(limit) => MemoryBudget::bytes(limit),
            None => MemoryBudget::unlimited(),
        }
    }

    /// A fresh watchdog for one stage, armed now: enabled iff
    /// `stage_timeout` is set.
    pub fn stage_watchdog(&self) -> Watchdog {
        match self.stage_timeout {
            Some(t) => Watchdog::timeout(t),
            None => Watchdog::disarmed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_budget_is_a_no_op() {
        let b = MemoryBudget::unlimited();
        assert!(!b.is_enabled());
        assert_eq!(b.limit(), None);
        assert!(b.try_reserve("blocking", u64::MAX).is_ok());
        b.release(123);
        assert_eq!(b.used(), 0);
        assert_eq!(b.remaining(), u64::MAX);
    }

    #[test]
    fn reserve_and_release_account_bytes() {
        let b = MemoryBudget::bytes(100);
        assert!(b.try_reserve("blocking", 60).is_ok());
        assert_eq!(b.used(), 60);
        assert_eq!(b.remaining(), 40);
        assert!(b.try_reserve("blocking", 40).is_ok());
        assert_eq!(b.remaining(), 0);
        b.release(100);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn breach_is_a_typed_error_and_reserves_nothing() {
        let b = MemoryBudget::bytes(100);
        b.try_reserve("blocking", 90).unwrap();
        let err = b.try_reserve("blocking", 11).unwrap_err();
        assert_eq!(
            err,
            ResourceError::BudgetExhausted {
                stage: "blocking".into(),
                requested: 11,
                used: 90,
                limit: 100,
            }
        );
        assert_eq!(b.used(), 90, "failed reservation must not charge");
        let msg = err.to_string();
        assert!(
            msg.contains("blocking") && msg.contains("90 of 100"),
            "{msg}"
        );
    }

    #[test]
    fn overflowing_reservation_fails_cleanly() {
        let b = MemoryBudget::bytes(u64::MAX);
        b.try_reserve("s", 10).unwrap();
        // used + requested would overflow u64: checked_add must refuse.
        assert!(b.try_reserve("s", u64::MAX).is_err());
        assert_eq!(b.used(), 10);
    }

    #[test]
    fn clones_share_one_balance() {
        let a = MemoryBudget::bytes(100);
        let b = a.clone();
        a.try_reserve("s", 70).unwrap();
        assert_eq!(b.used(), 70);
        assert!(b.try_reserve("s", 40).is_err());
        b.release(70);
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn release_saturates_at_zero() {
        let b = MemoryBudget::bytes(10);
        b.try_reserve("s", 5).unwrap();
        b.release(1_000);
        assert_eq!(b.used(), 0);
        assert!(b.try_reserve("s", 10).is_ok());
    }

    #[test]
    fn concurrent_reservations_never_overshoot() {
        let b = MemoryBudget::bytes(1_000);
        let grabbed: u64 = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let b = b.clone();
                    scope.spawn(move || {
                        let mut got = 0u64;
                        for _ in 0..100 {
                            if b.try_reserve("s", 7).is_ok() {
                                got += 7;
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(grabbed, b.used());
        assert!(b.used() <= 1_000);
    }

    #[test]
    fn disarmed_watchdog_never_expires() {
        let w = Watchdog::disarmed();
        assert!(!w.is_armed());
        assert!(!w.expired());
        assert!(w.check("matching").is_ok());
    }

    #[test]
    fn expired_watchdog_yields_typed_error() {
        let w = Watchdog::timeout(Duration::ZERO);
        assert!(w.is_armed());
        assert!(w.expired());
        let err = w.check("matching").unwrap_err();
        match &err {
            ResourceError::DeadlineExceeded { stage, budget, .. } => {
                assert_eq!(stage, "matching");
                assert_eq!(*budget, Duration::ZERO);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(err.to_string().contains("matching"), "{err}");
    }

    #[test]
    fn generous_watchdog_passes_checks() {
        let w = Watchdog::timeout(Duration::from_secs(3600));
        assert!(!w.expired());
        assert!(w.check("blocking").is_ok());
    }

    #[test]
    fn limits_build_matching_handles() {
        let none = ResourceLimits::none();
        assert!(none.is_unlimited());
        assert!(!none.budget().is_enabled());
        assert!(!none.stage_watchdog().is_armed());

        let limits = ResourceLimits::none()
            .with_memory_bytes(4096)
            .with_stage_timeout(Duration::from_secs(5));
        assert!(!limits.is_unlimited());
        assert_eq!(limits.budget().limit(), Some(4096));
        assert!(limits.stage_watchdog().is_armed());
    }
}
