//! Process-level chaos: real worker processes, real `kill -9`.
//!
//! The crash-isolation contract under test (see `docs/distributed.md`):
//!
//! 1. **Bit-identity** — a run that completes under crashes produces
//!    exactly the output of the in-process oracle; there is no "mostly
//!    right" mode. (Crash-free identity, for `run_dist` and the pipeline,
//!    is the product oracle's subprocess rows: `entry_point_matrix`.)
//! 2. **Typed failure, never a hang** — a run that cannot complete (restart
//!    budget spent, workers that die on arrival) returns a typed
//!    `ExecError`; the stage deadline backstops everything else.
//! 3. **No leaked processes** — every PID the pool ever spawned is reaped on
//!    every exit path: success, typed failure, and SIGKILL storms alike. No
//!    zombie children survive a run.
//! 4. **Observable supervision** — the `worker.*` counters balance
//!    (`spawned == exited + crashed`, `restarted <= crashed`) and the
//!    `worker.running` gauge drains to zero, which is exactly what
//!    `er-metrics-check --require-backend` enforces in CI.
//!
//! CI pins soak cells via `ER_CHAOS_SEED` / `ER_CHAOS_WORKERS`, the same
//! knobs as the in-process chaos suite.

use er_core::fault::ExecPolicy;
use er_core::obs::Obs;
use er_integration_tests::{assert_pool_drained, token_lines, worker_program};
use er_mapreduce::{
    default_registry, run_dist, DistOptions, DistOutput, InProcessTransport, SubprocessConfig,
    SubprocessTransport,
};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn chaos_seed_env() -> u64 {
    std::env::var("ER_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn chaos_workers_env() -> Option<usize> {
    std::env::var("ER_CHAOS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// The in-process oracle for one (inputs, opts) cell.
fn oracle(inputs: &[String], opts: &DistOptions, workers: usize) -> DistOutput {
    let mut t = InProcessTransport::new(workers, default_registry(), ExecPolicy::default());
    run_dist(&mut t, "token-blocking", inputs, opts).expect("oracle never fails")
}

/// (1)+(2)+(3) The kill -9 soak: a killer thread SIGKILLs random live
/// workers throughout the run, across seeds × worker counts. Every cell
/// must end in a bit-identical output or a typed error — never a hang,
/// never silent data loss — and must leak no processes.
#[test]
fn kill_nine_soak_is_bit_identical_or_typed() {
    let inputs = token_lines(120);
    let mut completed = 0u32;
    let mut failed_typed = 0u32;
    for seed in [3u64, 17, 40] {
        let seed = seed ^ chaos_seed_env().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for workers in [2usize, 4] {
            let workers = chaos_workers_env().unwrap_or(workers);
            let opts = DistOptions::for_workers(workers);
            let expected = oracle(&inputs, &opts, workers);

            let obs = Obs::enabled();
            let mut cfg = SubprocessConfig::new(workers);
            cfg.program = Some(worker_program!().into());
            cfg.policy = ExecPolicy::default().with_obs(obs.clone());
            // Generous restart budget: the soak exercises recovery, and the
            // exhaustion path has its own dedicated test below.
            cfg.max_restarts = 64;
            cfg.stage_deadline = Some(Duration::from_secs(120));
            let mut t = SubprocessTransport::new(cfg);
            let monitor = t.monitor();

            // Seeded killer: SIGKILL a pseudo-random live worker every few
            // milliseconds until the run ends.
            let stop = Arc::new(AtomicBool::new(false));
            let killer = {
                let stop = Arc::clone(&stop);
                let monitor = monitor.clone();
                std::thread::spawn(move || {
                    let mut s = seed | 1;
                    while !stop.load(Ordering::Relaxed) {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        let live = monitor.live_pids();
                        if !live.is_empty() {
                            let pid = live[(s as usize) % live.len()];
                            let _ = Command::new("kill")
                                .args(["-KILL", &pid.to_string()])
                                .status();
                        }
                        std::thread::sleep(Duration::from_millis(5 + (s % 20)));
                    }
                })
            };

            let outcome = run_dist(&mut t, "token-blocking", &inputs, &opts);
            stop.store(true, Ordering::Relaxed);
            killer.join().expect("killer thread never panics");
            drop(t); // shutdown + reap on both outcomes

            match outcome {
                Ok(out) => {
                    completed += 1;
                    assert_eq!(
                        out.pairs, expected.pairs,
                        "seed={seed} workers={workers}: crashed runs must be bit-identical"
                    );
                }
                Err(e) => {
                    failed_typed += 1;
                    assert!(!e.message.is_empty(), "typed error carries a message");
                    assert!(!e.stage.is_empty(), "typed error names its stage");
                }
            }

            // (3) + (4) No leaks, and a balanced ledger, on either path.
            let cell = format!("seed={seed} workers={workers}");
            assert!(monitor.live_pids().is_empty(), "{cell}");
            assert_pool_drained(&obs.snapshot(), &monitor.all_pids(), &cell);
        }
    }
    // The soak must actually exercise both a completion and/or recovery —
    // six cells with a generous restart budget cannot all be vacuous.
    assert!(
        completed + failed_typed == 6,
        "every cell must resolve: {completed} completed, {failed_typed} typed failures"
    );
}

/// (2)+(3) Workers that die on arrival (the program exits immediately)
/// exhaust the restart budget into a typed error — not a hang, not a panic
/// — and every spawned PID is reaped.
#[test]
fn dead_on_arrival_workers_exhaust_into_a_typed_error() {
    let obs = Obs::enabled();
    let mut cfg = SubprocessConfig::new(2);
    cfg.program = Some(PathBuf::from("/bin/true")); // exits before Hello
    cfg.policy = ExecPolicy::default().with_obs(obs.clone());
    cfg.max_restarts = 3;
    cfg.stage_deadline = Some(Duration::from_secs(60));
    let mut t = SubprocessTransport::new(cfg);
    let monitor = t.monitor();
    let err = run_dist(
        &mut t,
        "token-blocking",
        &token_lines(10),
        &DistOptions::for_workers(2),
    )
    .expect_err("a pool that cannot hold workers must fail typed");
    assert!(
        err.message.contains("restart budget") || err.message.contains("exhausted"),
        "{err}"
    );
    drop(t);
    assert!(monitor.live_pids().is_empty());
    // 2 initial + 3 restarts, all reaped.
    assert_eq!(monitor.all_pids().len(), 5);
    assert_pool_drained(&obs.snapshot(), &monitor.all_pids(), "dead on arrival");
}
