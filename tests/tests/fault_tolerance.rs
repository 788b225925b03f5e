//! Fault-tolerance headline suite: the **fault-free-equivalence** contract.
//!
//! PR 1 established that every parallel kernel is bit-identical to its serial
//! counterpart at any worker count. This suite extends the contract to
//! *failure schedules*: any `run_key_transpose` job or pipeline run that
//! **completes**
//! under injected faults — panics, transient errors, artificial delays,
//! retried under a [`RetryPolicy`] — produces output bit-identical to the
//! fault-free run; any run that cannot complete degrades gracefully (typed
//! error, meta-blocking fallback, partial progressive results) instead of
//! panicking.
//!
//! The fault schedules are seeded and deterministic (`FaultPlan::seeded`), a
//! pure function of (seed, stage, task, attempt) — independent of timing and
//! worker count — so every run here is reproducible. CI sweeps the
//! environment knobs:
//!
//! * `ER_FAULT_SEED=n`  — check only schedule seed `n` (default: seeds 0..24)
//! * `ER_FAULT_WORKERS=n` — check only `n` workers (default: {1, 2, 4})
//!
//! The last section is the first cell of the *mode × fault plan* product:
//! the same plans through the in-process and the subprocess transport must
//! mean the same thing — equal output, equal retries, equal typed error —
//! because both schedule attempts through the one attempt ledger.

use er_core::fault::{
    fault_seed_from_env, ExecPolicy, FaultInjector, FaultKind, FaultPlan, RetryPolicy, SeededFaults,
};
use er_core::metrics::MatchQuality;
use er_core::profiles::KeyRows;
use er_datagen::NoiseModel;
use er_integration_tests::{
    dataset, key_rows_of_lines, serial_transpose, token_lines, token_rows, worker_program,
    ScratchDir,
};
use er_mapreduce::dist::encode_transpose_map_task;
use er_mapreduce::{
    run_key_transpose, DistOptions, ExecError, InProcessTransport, SubprocessConfig,
    SubprocessTransport, Transport, TransposeOutput, KEY_TRANSPOSE,
};
use er_pipeline::recovery::{STAGE_BLOCKING, STAGE_MATCHING, STAGE_META_BLOCKING};
use er_pipeline::{Pipeline, RecoveryEvent, RecoveryOptions};
use std::sync::Arc;

/// Schedule seeds under test: the CI matrix pins one via `ER_FAULT_SEED`,
/// a bare `cargo test` sweeps two dozen.
fn fault_seeds() -> Vec<u64> {
    match fault_seed_from_env() {
        Some(s) => vec![s],
        None => (0..24).collect(),
    }
}

/// Worker counts under test (`ER_FAULT_WORKERS` pins one for the CI matrix).
fn worker_counts() -> Vec<usize> {
    match std::env::var("ER_FAULT_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(w) => vec![w],
        None => vec![1, 2, 4],
    }
}

/// The job the pipeline's subprocess backend runs — the key transpose of a
/// dirty collection's token rows — over `workers` in-process threads.
fn transpose(
    rows: &KeyRows,
    workers: usize,
    policy: ExecPolicy,
) -> Result<TransposeOutput, ExecError> {
    let mut t = InProcessTransport::new(workers, policy);
    run_key_transpose(&mut t, rows, &DistOptions::for_workers(workers))
}

// ---------------------------------------------------------------------------
// MapReduce: seeded schedules, multiple worker counts
// ---------------------------------------------------------------------------

/// The headline equivalence: dozens of seeded fault schedules (panic +
/// transient + delay faults over map and reduce tasks), each absorbed by the
/// retry policy, all bit-identical to the fault-free run — at every worker
/// count.
#[test]
fn seeded_mapreduce_schedules_are_absorbed_bit_identically() {
    let ds = dataset(250, NoiseModel::light(), 42);
    let rows = token_rows(&ds.collection);
    let reference = serial_transpose(&rows);
    let fault_free = transpose(&rows, 1, ExecPolicy::default()).expect("fault-free run");
    assert_eq!(fault_free.blocks, reference, "fault-free run");
    let mut faults_seen = 0u64;
    for seed in fault_seeds() {
        for workers in worker_counts() {
            let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(
                SeededFaults::absorbable(seed),
            )));
            let policy = ExecPolicy::retrying(RetryPolicy {
                max_attempts: 3,
                base_backoff: std::time::Duration::from_micros(100),
                max_backoff: std::time::Duration::from_millis(2),
                jitter_seed: seed,
            })
            .with_injector(Arc::clone(&injector));
            let out = transpose(&rows, workers, policy).unwrap_or_else(|e| {
                panic!("absorbable schedule seed={seed} workers={workers}: {e}")
            });
            assert_eq!(out.blocks, reference, "seed={seed} workers={workers}");
            faults_seen += injector.injected();
        }
    }
    // A pinned (ER_FAULT_SEED, ER_FAULT_WORKERS) cell has only a handful of
    // eligible first attempts and may legitimately draw zero faults; the
    // no-vacuous-pass guard applies to the full sweep.
    if fault_seeds().len() > 1 {
        assert!(faults_seen > 0, "the sweep must actually inject faults");
    }
}

/// An unabsorbable schedule (a task that fails on every attempt) surfaces as
/// a typed error — never a panic, never a partial/corrupt result.
#[test]
fn unabsorbable_mapreduce_schedule_errors_gracefully() {
    let ds = dataset(120, NoiseModel::light(), 7);
    let rows = token_rows(&ds.collection);
    for workers in worker_counts() {
        let plan = FaultPlan::none().inject_all_attempts("map", 0, 3, FaultKind::Panic);
        let policy = ExecPolicy::retrying(RetryPolicy::attempts(3))
            .with_injector(Arc::new(FaultInjector::new(plan)));
        let err =
            transpose(&rows, workers, policy).expect_err("schedule must exhaust the retry budget");
        assert_eq!(err.stage, "map");
        assert_eq!(err.attempts, 3);
    }
}

// ---------------------------------------------------------------------------
// Pipeline: stage-level faults
// ---------------------------------------------------------------------------

/// Seeded stage-level fault schedules over the full pipeline: every schedule
/// the retry budget absorbs yields a resolution bit-identical to
/// `Pipeline::run`.
#[test]
fn pipeline_output_under_absorbable_stage_faults_is_bit_identical() {
    let ds = dataset(200, NoiseModel::light(), 9);
    let p = Pipeline::builder().build();
    let plain = p.run(&ds.collection);
    let mut faults_seen = 0u64;
    for seed in fault_seeds() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::seeded(
            // Delay-free: stage schedules only need panic/transient coverage,
            // and per-stage delays would just slow the suite down.
            SeededFaults {
                seed,
                panic_per_mille: 250,
                transient_per_mille: 250,
                delay_per_mille: 0,
                delay: std::time::Duration::ZERO,
                max_attempt: 1,
            },
        )));
        let opts = RecoveryOptions::retrying(RetryPolicy::attempts(3))
            .with_injector(Arc::clone(&injector));
        let out = p
            .run_with_recovery(&ds.collection, &opts)
            .unwrap_or_else(|e| panic!("absorbable schedule seed={seed}: {e}"));
        assert!(!out.degraded(), "seed={seed}: absorbable ⇒ no degradation");
        assert_eq!(out.resolution.matches, plain.matches, "seed={seed}");
        assert_eq!(out.resolution.clusters, plain.clusters, "seed={seed}");
        faults_seen += injector.injected();
    }
    if fault_seeds().len() > 1 {
        assert!(faults_seen > 0, "the sweep must actually inject faults");
    }
}

/// Meta-blocking failing every attempt degrades to the unpruned blocked
/// comparisons: same matches as a no-meta-blocking pipeline, recall no worse
/// than the pruned run — and the degradation is recorded, not silent.
#[test]
fn meta_blocking_degradation_preserves_recall() {
    let ds = dataset(200, NoiseModel::light(), 11);
    let p = Pipeline::builder().build();
    let plan =
        FaultPlan::none().inject_all_attempts(STAGE_META_BLOCKING, 0, 3, FaultKind::Transient);
    let opts = RecoveryOptions::retrying(RetryPolicy::attempts(3))
        .with_injector(Arc::new(FaultInjector::new(plan)));
    let degraded = p.run_with_recovery(&ds.collection, &opts).unwrap();
    assert!(degraded.degraded());

    let unpruned = Pipeline::builder().no_meta_blocking().build();
    assert_eq!(
        degraded.resolution.matches,
        unpruned.run(&ds.collection).matches
    );

    let n = ds.collection.len();
    let q_degraded = MatchQuality::measure(n, &degraded.resolution.matches, &ds.truth);
    let q_pruned = MatchQuality::measure(n, &p.run(&ds.collection).matches, &ds.truth);
    assert!(
        q_degraded.recall() >= q_pruned.recall(),
        "degrading to a superset schedule cannot lose recall: {} vs {}",
        q_degraded.recall(),
        q_pruned.recall()
    );
}

/// Blocking or matching failing every attempt is unrecoverable: a typed
/// `PipelineError` (the CLI maps it to a nonzero exit), never a panic.
#[test]
fn unabsorbable_pipeline_schedules_error_gracefully() {
    let ds = dataset(120, NoiseModel::light(), 13);
    let p = Pipeline::builder().build();
    for stage in [STAGE_BLOCKING, STAGE_MATCHING] {
        let plan = FaultPlan::none().inject_all_attempts(stage, 0, 2, FaultKind::Panic);
        let opts = RecoveryOptions::retrying(RetryPolicy::attempts(2))
            .with_injector(Arc::new(FaultInjector::new(plan)));
        let err = p.run_with_recovery(&ds.collection, &opts).unwrap_err();
        assert_eq!(err.stage, stage);
        assert_eq!(err.attempts, 2);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume at every stage boundary
// ---------------------------------------------------------------------------

/// For each stage boundary, a run resumed from exactly that checkpoint (the
/// deeper ones removed, simulating a crash mid-pipeline) reproduces the
/// uninterrupted output bit-for-bit.
#[test]
fn resume_from_each_stage_boundary_is_bit_identical() {
    let ds = dataset(200, NoiseModel::light(), 17);
    let p = Pipeline::builder().build();
    let plain = p.run(&ds.collection);
    let boundaries: [(&str, &[&str]); 3] = [
        // (resume point, checkpoint files to delete first)
        (STAGE_MATCHING, &[]),
        (STAGE_META_BLOCKING, &["matched.ckpt"]),
        (STAGE_BLOCKING, &["matched.ckpt", "scheduled.ckpt"]),
    ];
    for (expect_stage, delete) in boundaries {
        let dir = ScratchDir::new("boundary");
        let opts = RecoveryOptions::default().checkpoint_dir(&*dir);
        p.run_with_recovery(&ds.collection, &opts).unwrap();
        for f in delete {
            std::fs::remove_file(dir.join(f)).unwrap();
        }
        let resumed = p
            .run_with_recovery(&ds.collection, &opts.clone().resume(true))
            .unwrap();
        assert_eq!(resumed.resumed_from, Some(expect_stage));
        assert_eq!(resumed.resolution.matches, plain.matches, "{expect_stage}");
        assert_eq!(
            resumed.resolution.clusters, plain.clusters,
            "{expect_stage}"
        );
        assert_eq!(
            resumed.resolution.report.blocked_comparisons, plain.report.blocked_comparisons,
            "{expect_stage}"
        );
        assert_eq!(
            resumed.resolution.report.scheduled_comparisons, plain.report.scheduled_comparisons,
            "{expect_stage}"
        );
    }
}

/// Corrupting every checkpoint forces a clean run: warnings recorded for the
/// rejects, output still bit-identical, no crash.
#[test]
fn fully_corrupted_checkpoints_fall_back_to_a_clean_run() {
    let ds = dataset(150, NoiseModel::light(), 19);
    let p = Pipeline::builder().build();
    let plain = p.run(&ds.collection);
    let dir = ScratchDir::new("corrupt-all");
    let opts = RecoveryOptions::default().checkpoint_dir(&*dir);
    p.run_with_recovery(&ds.collection, &opts).unwrap();
    for f in ["blocked.ckpt", "scheduled.ckpt", "matched.ckpt"] {
        std::fs::write(dir.join(f), "not a checkpoint\n").unwrap();
    }
    let out = p
        .run_with_recovery(&ds.collection, &opts.resume(true))
        .unwrap();
    assert_eq!(out.resumed_from, None, "nothing valid to resume from");
    let rejects = out
        .events
        .iter()
        .filter(|e| matches!(e, RecoveryEvent::CheckpointRejected { .. }))
        .count();
    assert_eq!(rejects, 3, "{:?}", out.events);
    assert_eq!(out.resolution.matches, plain.matches);
}

/// Faults during a checkpointed run and a resume after a simulated crash
/// compose: the final output still equals the undisturbed pipeline.
#[test]
fn faults_and_resume_compose_bit_identically() {
    let ds = dataset(150, NoiseModel::light(), 23);
    let p = Pipeline::builder().build();
    let plain = p.run(&ds.collection);
    let dir = ScratchDir::new("faults-resume");
    // First run: transient faults on first attempts, checkpoints written.
    let plan = FaultPlan::none()
        .inject(STAGE_BLOCKING, 0, 0, FaultKind::Transient)
        .inject(STAGE_META_BLOCKING, 0, 0, FaultKind::Transient);
    let opts = RecoveryOptions::retrying(RetryPolicy::attempts(3))
        .with_injector(Arc::new(FaultInjector::new(plan)))
        .checkpoint_dir(&*dir);
    let first = p.run_with_recovery(&ds.collection, &opts).unwrap();
    assert_eq!(first.resolution.matches, plain.matches);
    assert_eq!(first.stage_retries(), 2);
    // "Crash" after matching; resume skips straight to clustering — and a
    // would-be fault in an already-checkpointed stage never fires.
    let resume_plan = FaultPlan::none().inject_all_attempts(STAGE_BLOCKING, 0, 3, FaultKind::Panic);
    let resume_opts = RecoveryOptions::retrying(RetryPolicy::attempts(3))
        .with_injector(Arc::new(FaultInjector::new(resume_plan)))
        .checkpoint_dir(&*dir)
        .resume(true);
    let resumed = p.run_with_recovery(&ds.collection, &resume_opts).unwrap();
    assert_eq!(resumed.resumed_from, Some(STAGE_MATCHING));
    assert_eq!(resumed.resolution.matches, plain.matches);
    assert_eq!(resumed.resolution.clusters, plain.clusters);
}

// ---------------------------------------------------------------------------
// Progressive: budget expiry yields partial results
// ---------------------------------------------------------------------------

/// An expired deadline budget stops the progressive run with partial results
/// and honest stats — the "graceful degradation" half of progressive ER.
#[test]
fn progressive_deadline_expiry_emits_partial_results() {
    let ds = dataset(150, NoiseModel::light(), 29);
    let p = Pipeline::builder().build();
    let expired = er_progressive::Budget::Deadline(std::time::Instant::now());
    let out = p.run_progressive(&ds.collection, &ds.truth, expired);
    assert_eq!(out.comparisons, 0);
    assert_eq!(out.curve.final_recall(), 0.0);
    let generous = er_progressive::Budget::timeout(std::time::Duration::from_secs(3600));
    let full = p.run_progressive(&ds.collection, &ds.truth, generous);
    let unlimited = p.run_progressive(&ds.collection, &ds.truth, er_progressive::Budget::Unlimited);
    assert_eq!(full.matches, unlimited.matches);
    assert_eq!(full.comparisons, unlimited.comparisons);
}

// ---------------------------------------------------------------------------
// Cross-backend parity: one fault plan, two transports
// ---------------------------------------------------------------------------

const PARITY_WORKERS: usize = 2;

/// Key rows with overlapping vocabulary, so blocks span map chunks and
/// every reduce partition has work.
fn parity_rows() -> KeyRows {
    key_rows_of_lines(&token_lines(96))
}

/// Task counts fixed independently of the worker count: the fault plan is
/// keyed by task index, so every cell draws from the same schedule.
fn parity_opts() -> DistOptions {
    DistOptions {
        map_tasks: 8,
        partitions: 4,
    }
}

fn parity_policy(plan: FaultPlan, max_attempts: u32, jitter_seed: u64) -> ExecPolicy {
    ExecPolicy::retrying(RetryPolicy {
        max_attempts,
        base_backoff: std::time::Duration::from_micros(100),
        max_backoff: std::time::Duration::from_millis(2),
        jitter_seed,
    })
    .with_injector(Arc::new(FaultInjector::new(plan)))
}

/// One run of the key transpose: the outcome and the faults fired.
type ParityRun = (Result<TransposeOutput, ExecError>, u64);

fn in_process_run(rows: &KeyRows, workers: usize, policy: ExecPolicy) -> ParityRun {
    let mut t = InProcessTransport::new(workers, policy.clone());
    let out = run_key_transpose(&mut t, rows, &parity_opts());
    (out, policy.faults_injected())
}

fn subprocess_run(rows: &KeyRows, mut cfg: SubprocessConfig, policy: ExecPolicy) -> ParityRun {
    cfg.program = Some(worker_program!().into());
    cfg.policy = policy.clone();
    let opts = parity_opts();
    let mut t = SubprocessTransport::new(cfg);
    let out = run_key_transpose(&mut t, rows, &opts);
    (out, policy.faults_injected())
}

/// One explicit plan — a transient error, a panic and a delay — costs each
/// targeted attempt and nothing else on both backends. On the subprocess
/// side that means the coordinator neither unwinds on the injected panic nor
/// sleeps its event loop through the delay: the delay outlasts the liveness
/// deadline, and no healthy worker may be declared dead for it.
#[test]
fn an_explicit_fault_plan_means_the_same_on_both_backends() {
    let rows = parity_rows();
    let delay = std::time::Duration::from_millis(600);
    let plan = || {
        FaultPlan::none()
            .inject("map", 0, 0, FaultKind::Transient)
            .inject("map", 1, 0, FaultKind::Panic)
            .inject("reduce", 0, 0, FaultKind::Delay(delay))
    };
    let reference = in_process_run(&rows, PARITY_WORKERS, ExecPolicy::default())
        .0
        .expect("fault-free run cannot fail");

    let (threads, thread_faults) =
        in_process_run(&rows, PARITY_WORKERS, parity_policy(plan(), 3, 5));
    let threads = threads.expect("absorbable plan, in-process");

    let obs = er_core::obs::Obs::enabled();
    let mut cfg = SubprocessConfig::new(PARITY_WORKERS);
    cfg.heartbeat = std::time::Duration::from_millis(20);
    cfg.liveness_deadline = delay / 2;
    let policy = parity_policy(plan(), 3, 5).with_obs(obs.clone());
    let (procs, proc_faults) = subprocess_run(&rows, cfg, policy);
    let procs = procs.expect("absorbable plan, subprocess");

    assert_eq!(threads.blocks, reference.blocks);
    assert_eq!(procs.blocks, reference.blocks);
    assert_eq!((threads.stats.retried, thread_faults), (2, 3));
    assert_eq!((procs.stats.retried, proc_faults), (2, 3));
    assert_eq!(procs.stats, threads.stats);
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("worker.crashed").unwrap_or(0),
        0,
        "delay killed a worker"
    );
    assert_eq!(snap.counter("worker.heartbeats_missed").unwrap_or(0), 0);
    assert_eq!(snap.counter("worker.spawned"), Some(PARITY_WORKERS as u64));
}

/// A stage that fails while another worker is still running an attempt
/// leaves that worker busy; the next stage on the same transport must drop
/// its late reply, never book it as one of its own results. Here the reduce
/// stage fails typed on task 1 while task 0's attempt is held back by a
/// delay, and the stale reply is already waiting when the next stage (a map
/// stage the plan does not target) hands its task 0 to the other worker.
#[test]
fn a_late_reply_from_a_failed_stage_is_dropped_by_the_next_stage() {
    let rows = parity_rows();
    let plan = FaultPlan::none()
        .inject(
            "reduce",
            0,
            0,
            FaultKind::Delay(std::time::Duration::from_millis(100)),
        )
        .inject("reduce", 1, 0, FaultKind::Transient);
    let obs = er_core::obs::Obs::enabled();
    let mut cfg = SubprocessConfig::new(PARITY_WORKERS);
    cfg.program = Some(worker_program!().into());
    cfg.policy = parity_policy(plan, 1, 3).with_obs(obs.clone());
    let mut t = SubprocessTransport::new(cfg);
    let err = run_key_transpose(&mut t, &rows, &parity_opts()).expect_err("reduce/1 fails");
    assert_eq!(
        (err.stage.as_str(), err.task, err.attempts),
        ("reduce", 1, 1)
    );
    // Give the delayed reduce/0 attempt time to reply, so its stale reply is
    // queued before the next stage hands out its own task 0, attempt 0.
    std::thread::sleep(std::time::Duration::from_secs(1));

    let payloads: Vec<Vec<u8>> = [0..40, 40..96]
        .into_iter()
        .map(|entities| encode_transpose_map_task(2, &rows, entities))
        .collect();
    let procs = t
        .run_stage(KEY_TRANSPOSE, "map", &payloads)
        .expect("the plan does not target this stage");
    let threads = InProcessTransport::new(PARITY_WORKERS, ExecPolicy::default())
        .run_stage(KEY_TRANSPOSE, "map", &payloads)
        .expect("in-process");
    assert_eq!(procs.results, threads.results);
    assert_eq!((procs.retried, procs.reassigned), (0, 0));
    drop(t);
    assert_eq!(obs.snapshot().counter("worker.crashed").unwrap_or(0), 0);
}

/// With the retry budget exhausted, both backends report the same typed
/// error — stage, task, typed failures observed, final message.
#[test]
fn an_unabsorbable_fault_plan_is_the_same_typed_error_on_both_backends() {
    let rows = parity_rows();
    for kind in [FaultKind::Transient, FaultKind::Panic] {
        let plan = || {
            FaultPlan::none()
                .inject("map", 0, 0, FaultKind::Transient)
                .inject_all_attempts("reduce", 1, 8, kind)
        };
        let threads = in_process_run(&rows, PARITY_WORKERS, parity_policy(plan(), 2, 1))
            .0
            .expect_err("schedule must exhaust the retry budget, in-process");
        let cfg = SubprocessConfig::new(PARITY_WORKERS);
        let procs = subprocess_run(&rows, cfg, parity_policy(plan(), 2, 1))
            .0
            .expect_err("schedule must exhaust the retry budget, subprocess");
        assert_eq!(
            (threads.stage.as_str(), threads.task, threads.attempts),
            ("reduce", 1, 2),
            "{threads}"
        );
        assert_eq!(procs, threads, "{kind:?}");
    }
}

/// The seeded schedules of the CI `fault-matrix` (`ER_FAULT_SEED` ×
/// `ER_FAULT_WORKERS`), through both backends: equal output, equal retries,
/// equal faults fired.
#[test]
fn seeded_fault_plans_mean_the_same_on_both_backends() {
    let rows = parity_rows();
    let reference = in_process_run(&rows, 1, ExecPolicy::default())
        .0
        .expect("fault-free run cannot fail");
    assert_eq!(reference.blocks, serial_transpose(&rows));
    let mut faults_seen = 0u64;
    for seed in fault_seeds() {
        for workers in worker_counts() {
            let policy =
                || parity_policy(FaultPlan::seeded(SeededFaults::absorbable(seed)), 3, seed);
            let cell = format!("seed={seed} workers={workers}");
            let (threads, thread_faults) = in_process_run(&rows, workers, policy());
            let threads = threads.unwrap_or_else(|e| panic!("{cell} in-process: {e}"));
            let (procs, proc_faults) =
                subprocess_run(&rows, SubprocessConfig::new(workers), policy());
            let procs = procs.unwrap_or_else(|e| panic!("{cell} subprocess: {e}"));
            assert_eq!(threads.blocks, reference.blocks, "{cell}");
            assert_eq!(procs.blocks, reference.blocks, "{cell}");
            assert_eq!(procs.stats, threads.stats, "{cell}");
            assert_eq!(proc_faults, thread_faults, "{cell}");
            faults_seen += proc_faults;
        }
    }
    if fault_seeds().len() > 1 {
        assert!(faults_seen > 0, "the sweep must actually inject faults");
    }
}
