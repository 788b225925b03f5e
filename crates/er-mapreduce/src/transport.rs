//! The transport seam between the distributed driver and its workers.
//!
//! [`run_key_transpose`](crate::dist::run_key_transpose) is
//! transport-agnostic: it hands a
//! stage's task payloads to a [`Transport`] and gets results back in task
//! order. Two implementations exist:
//!
//! * [`InProcessTransport`] — tasks run on the engine's scoped threads in
//!   this process. This is the bit-exactness oracle.
//! * [`SubprocessTransport`](crate::coordinator::SubprocessTransport) —
//!   tasks run in spawned OS child processes speaking the framed protocol of
//!   [`proto`](crate::proto), with real crash isolation.
//!
//! Both execute the same [`run_task`] bytes and schedule attempts through the
//! same attempt ledger, so for a fixed driver configuration the outputs are
//! bit-identical and a fault plan means the same thing on either.

use crate::dist::run_task;
use crate::engine::{execute_tasks, ExecError};
use crate::ledger::Counters;
use er_core::fault::ExecPolicy;

/// One stage's results plus scheduling telemetry.
#[derive(Clone, Debug, Default)]
pub struct StageOutput {
    /// Result payloads in task order.
    pub results: Vec<Vec<u8>>,
    /// Attempts retried after typed task failures.
    pub retried: u64,
    /// Attempts reassigned after a worker death (0 on in-process).
    pub reassigned: u64,
}

impl StageOutput {
    pub(crate) fn new(results: Vec<Vec<u8>>, counters: Counters) -> StageOutput {
        StageOutput {
            results,
            retried: counters.retried,
            reassigned: counters.reassigned,
        }
    }
}

/// Executes the tasks of one stage and returns results in task order.
pub trait Transport {
    /// Runs `payloads` as the tasks of `stage` of the job `job`.
    fn run_stage(
        &mut self,
        job: &str,
        stage: &str,
        payloads: &[Vec<u8>],
    ) -> Result<StageOutput, ExecError>;
}

/// The in-process backend: the engine's worker threads executing
/// [`run_task`] directly.
pub struct InProcessTransport {
    workers: usize,
    policy: ExecPolicy,
}

impl InProcessTransport {
    /// A transport over `workers` threads.
    pub fn new(workers: usize, policy: ExecPolicy) -> InProcessTransport {
        InProcessTransport {
            workers: workers.max(1),
            policy,
        }
    }
}

impl Transport for InProcessTransport {
    fn run_stage(
        &mut self,
        job: &str,
        stage: &str,
        payloads: &[Vec<u8>],
    ) -> Result<StageOutput, ExecError> {
        let (results, counters) =
            execute_tasks(stage, payloads, self.workers, &self.policy, |payload| {
                run_task(job, stage, payload)
            })?;
        Ok(StageOutput::new(results, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::tests::key_rows;
    use crate::dist::{encode_transpose_map_task, KEY_TRANSPOSE};
    use er_core::fault::{ExecPolicy, FaultInjector, FaultPlan, RetryPolicy};
    use std::sync::Arc;

    /// `tasks` one-row map payloads of the transpose, each row a task.
    fn one_row_payloads(tasks: usize) -> Vec<Vec<u8>> {
        let rows = key_rows(tasks, 5, 0x7a5c);
        (0..tasks)
            .map(|e| encode_transpose_map_task(1, &rows, e..e + 1))
            .collect()
    }

    #[test]
    fn in_process_transport_returns_results_in_task_order() {
        let mut t = InProcessTransport::new(4, ExecPolicy::default());
        // "map" with degenerate single-row payloads of the transpose.
        let payloads = one_row_payloads(8);
        let rows = key_rows(8, 5, 0x7a5c);
        let out = t.run_stage(KEY_TRANSPOSE, "map", &payloads).unwrap();
        assert_eq!(out.results.len(), 8);
        for (i, r) in out.results.iter().enumerate() {
            // The emission count follows the result's tag.
            let emitted = u64::from_le_bytes(r[1..9].try_into().unwrap());
            let row = rows.symbols(er_core::entity::EntityId(i as u32));
            assert_eq!(emitted, row.len() as u64, "task {i}");
        }
    }

    #[test]
    fn typed_task_errors_surface_as_exec_errors_after_retries() {
        let mut t = InProcessTransport::new(2, ExecPolicy::retrying(RetryPolicy::attempts(2)));
        let err = t
            .run_stage(KEY_TRANSPOSE, "map", &[b"not a valid payload".to_vec()])
            .unwrap_err();
        assert_eq!(err.stage, "map");
        assert_eq!(err.attempts, 2);
        assert!(err.message.contains("bad map task header"), "{err}");
    }

    #[test]
    fn injected_faults_are_retried_transparently() {
        let plan = FaultPlan::none()
            .inject("map", 0, 0, er_core::fault::FaultKind::Transient)
            .inject("map", 3, 0, er_core::fault::FaultKind::Panic);
        let injector = Arc::new(FaultInjector::new(plan));
        let policy = ExecPolicy::retrying(RetryPolicy::attempts(10)).with_injector(injector);
        let payloads = one_row_payloads(6);
        let mut t = InProcessTransport::new(3, policy);
        let out = t.run_stage(KEY_TRANSPOSE, "map", &payloads).unwrap();
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.retried, 2, "both injected faults must have retried");
    }
}
