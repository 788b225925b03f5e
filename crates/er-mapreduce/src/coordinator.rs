//! Multi-process backend: a coordinator supervising OS worker processes.
//!
//! [`SubprocessTransport`] spawns `workers` child processes (by default a
//! re-exec of the current binary with `--worker`) and drives them over the
//! framed protocol of [`proto`](crate::proto). Supervision rules:
//!
//! * **Handshake** — every worker must answer `Hello` (protocol version +
//!   fingerprint) with `HelloAck` before any task is
//!   dispatched; a `HelloRej` (mismatched binary) fails the run with a typed
//!   error instead of restarting into the same mismatch forever.
//! * **Liveness** — workers heartbeat on a fixed cadence; a worker silent
//!   past the liveness deadline is killed and treated as crashed. A worker
//!   whose pipe closes (SIGKILL, OOM-kill, panic) is detected immediately.
//! * **Crash reassignment** — an attempt in flight on a dead worker is
//!   reported to the attempt ledger as *lost* (requeued at the front, no
//!   retry budget consumed); the death itself draws from the pool-wide
//!   `max_restarts` budget, so a crash loop terminates in a typed
//!   [`ExecError`], never a hang.
//! * **Frame cap** — a task whose frame would exceed
//!   [`MAX_FRAME_BYTES`] fails its stage with a typed [`ExecError`] naming
//!   the task and the frame size before any worker is asked; it is never
//!   sent, so it cannot be mistaken for a worker death.
//! * **Reaping** — every spawned child is `wait()`ed on every exit path
//!   (success, typed failure, coordinator panic) via the transport's `Drop`;
//!   no zombies and no leaked PIDs survive a failed run.
//!
//! Which attempt runs next, what a failure costs and when a straggler gets a
//! backup is decided by the ledger (`ledger.rs`) — the same one the in-process
//! engine drives — so this module only turns frames, pipe EOFs and missed
//! heartbeats into ledger reports.
//!
//! Obs counters: `worker.spawned`, `worker.exited` (clean), `worker.crashed`
//! (involuntary), `worker.restarted`, `worker.heartbeats_missed`, and the
//! `worker.running` gauge (0 once the pool is drained).

use crate::engine::ExecError;
use crate::ledger::Ledger;
use crate::proto::{
    protocol_fingerprint, Frame, FrameError, FrameReader, FrameWriter, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use crate::transport::{StageOutput, Transport};
use er_core::fault::ExecPolicy;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the subprocess worker pool.
#[derive(Clone)]
pub struct SubprocessConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Worker executable; `None` re-execs the current binary.
    pub program: Option<PathBuf>,
    /// Arguments passed to the worker executable.
    pub args: Vec<String>,
    /// Heartbeat cadence requested from workers.
    pub heartbeat: Duration,
    /// A worker silent for longer than this is declared dead.
    pub liveness_deadline: Duration,
    /// Deadline for the `Hello` → `HelloAck` exchange after spawn.
    pub handshake_deadline: Duration,
    /// Grace period for clean exits at shutdown before the pool kills.
    pub shutdown_grace: Duration,
    /// Hard wall-clock bound per stage; `None` disables. The final backstop
    /// of the no-hang guarantee.
    pub stage_deadline: Option<Duration>,
    /// Pool-wide budget of worker restarts after crashes; once spent, the
    /// next crash that empties the pool fails the stage with a typed error.
    pub max_restarts: u32,
    /// Retry/speculation/injection/obs bundle, applied by the attempt ledger
    /// exactly as on the in-process backend.
    pub policy: ExecPolicy,
    /// Test hook: send this `(version, fingerprint)` in `Hello` instead of
    /// the real ones, to exercise handshake rejection.
    pub handshake_overrides: Option<(u32, u64)>,
}

impl SubprocessConfig {
    /// Defaults for `workers` worker processes.
    pub fn new(workers: usize) -> SubprocessConfig {
        let workers = workers.max(1);
        SubprocessConfig {
            workers,
            program: None,
            args: vec!["--worker".to_string()],
            heartbeat: Duration::from_millis(25),
            liveness_deadline: Duration::from_secs(2),
            handshake_deadline: Duration::from_secs(10),
            shutdown_grace: Duration::from_secs(2),
            stage_deadline: Some(Duration::from_secs(300)),
            max_restarts: (workers as u32) * 4,
            policy: ExecPolicy::default(),
            handshake_overrides: None,
        }
    }
}

/// Live view of the pool for external observers (the chaos killer thread).
#[derive(Clone, Default)]
pub struct PoolMonitor(Arc<Mutex<MonitorInner>>);

#[derive(Default)]
struct MonitorInner {
    live: Vec<u32>,
    all: Vec<u32>,
}

impl PoolMonitor {
    /// PIDs of currently live workers.
    pub fn live_pids(&self) -> Vec<u32> {
        self.0.lock().map(|m| m.live.clone()).unwrap_or_default()
    }

    /// Every PID the pool ever spawned (for leak checks).
    pub fn all_pids(&self) -> Vec<u32> {
        self.0.lock().map(|m| m.all.clone()).unwrap_or_default()
    }

    fn add(&self, pid: u32) {
        if let Ok(mut m) = self.0.lock() {
            m.live.push(pid);
            m.all.push(pid);
        }
    }

    fn remove(&self, pid: u32) {
        if let Ok(mut m) = self.0.lock() {
            m.live.retain(|&p| p != pid);
        }
    }
}

/// Events the per-worker reader/writer threads feed the coordinator loop.
enum Event {
    Frame(u64, Frame),
    Eof(u64),
    ReadErr(u64, FrameError),
    WriteErr(u64),
}

enum SlotState {
    Handshaking,
    Idle,
    Busy {
        task: usize,
        attempt: u32,
    },
    /// Still running an attempt of a stage that already ended (a losing
    /// backup or straggler); its reply frees the worker and is dropped.
    Abandoned,
    Dead,
}

struct WorkerSlot {
    id: u64,
    pid: u32,
    child: Child,
    /// Frames queued here are written by a dedicated writer thread, so the
    /// coordinator never blocks on a wedged worker's stdin. The duration is
    /// an injected stall the writer sleeps out before that frame — it holds
    /// back this worker's attempt and nothing else.
    sender: Option<Sender<(Duration, Frame)>>,
    reader: Option<std::thread::JoinHandle<()>>,
    writer: Option<std::thread::JoinHandle<()>>,
    state: SlotState,
    last_seen: Instant,
}

/// The ledger of one stage: result payloads are wire bytes.
type StageLedger<'a> = Ledger<'a, Vec<u8>>;

/// The multi-process transport: a supervised pool of worker child processes.
pub struct SubprocessTransport {
    cfg: SubprocessConfig,
    slots: Vec<WorkerSlot>,
    next_worker_id: u64,
    restarts_used: u32,
    events_tx: Sender<Event>,
    events_rx: Receiver<Event>,
    monitor: PoolMonitor,
    /// A handshake rejection latches here: restarting cannot fix a
    /// mismatched binary, so every subsequent stage fails fast.
    setup_fatal: Option<String>,
}

impl SubprocessTransport {
    /// A transport over `cfg.workers` child processes. Workers are spawned
    /// lazily on the first stage.
    pub fn new(cfg: SubprocessConfig) -> SubprocessTransport {
        let (events_tx, events_rx) = channel();
        SubprocessTransport {
            cfg,
            slots: Vec::new(),
            next_worker_id: 0,
            restarts_used: 0,
            events_tx,
            events_rx,
            monitor: PoolMonitor::default(),
            setup_fatal: None,
        }
    }

    /// A live view of worker PIDs (chaos harnesses kill through this).
    pub fn monitor(&self) -> PoolMonitor {
        self.monitor.clone()
    }

    /// Restarts consumed so far by crash recovery.
    pub fn restarts_used(&self) -> u32 {
        self.restarts_used
    }

    fn live_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s.state, SlotState::Dead))
            .count()
    }

    fn update_running_gauge(&self) {
        self.cfg
            .policy
            .obs
            .gauge("worker.running")
            .set(self.live_count() as f64);
    }

    fn spawn_worker(&mut self) -> Result<(), String> {
        let program = match &self.cfg.program {
            Some(p) => p.clone(),
            None => std::env::current_exe()
                .map_err(|e| format!("cannot resolve current executable: {e}"))?,
        };
        let mut child = Command::new(&program)
            .args(&self.cfg.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", program.display()))?;
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        let pid = child.id();
        let (Some(stdout), Some(stdin)) = (child.stdout.take(), child.stdin.take()) else {
            return Err("worker spawned without piped stdio".to_string());
        };

        let tx = self.events_tx.clone();
        let reader = std::thread::Builder::new()
            .name(format!("er-worker-read-{id}"))
            .spawn(move || {
                let mut r = FrameReader::new(stdout);
                loop {
                    match r.read() {
                        Ok(Some(frame)) => {
                            if tx.send(Event::Frame(id, frame)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => {
                            let _ = tx.send(Event::Eof(id));
                            return;
                        }
                        Err(e) => {
                            let _ = tx.send(Event::ReadErr(id, e));
                            return;
                        }
                    }
                }
            })
            .map_err(|e| format!("cannot spawn reader thread: {e}"))?;

        let (frame_tx, frame_rx) = channel::<(Duration, Frame)>();
        let tx = self.events_tx.clone();
        let writer = std::thread::Builder::new()
            .name(format!("er-worker-write-{id}"))
            .spawn(move || {
                let mut w = FrameWriter::new(stdin);
                for (stall, frame) in frame_rx {
                    std::thread::sleep(stall);
                    if w.write(&frame).is_err() {
                        let _ = tx.send(Event::WriteErr(id));
                        return;
                    }
                }
                // Channel closed: dropping the writer closes the worker's
                // stdin, which a healthy worker treats as shutdown.
            })
            .map_err(|e| format!("cannot spawn writer thread: {e}"))?;

        let (version, fingerprint) = self
            .cfg
            .handshake_overrides
            .unwrap_or((PROTOCOL_VERSION, protocol_fingerprint()));
        let hello = Frame::Hello {
            version,
            fingerprint,
            worker_id: id,
            heartbeat_ms: self.cfg.heartbeat.as_millis().max(1) as u64,
        };
        let _ = frame_tx.send((Duration::ZERO, hello)); // a failed send surfaces as WriteErr/Eof

        let now = Instant::now();
        self.slots.push(WorkerSlot {
            id,
            pid,
            child,
            sender: Some(frame_tx),
            reader: Some(reader),
            writer: Some(writer),
            state: SlotState::Handshaking,
            last_seen: now,
        });
        self.monitor.add(pid);
        let obs = &self.cfg.policy.obs;
        obs.counter("worker.spawned").incr();
        self.update_running_gauge();
        Ok(())
    }

    fn ensure_pool(&mut self) -> Result<(), ExecError> {
        while self.live_count() < self.cfg.workers {
            self.spawn_worker().map_err(|m| ExecError {
                stage: "spawn".to_string(),
                task: 0,
                attempts: 0,
                message: m,
            })?;
        }
        Ok(())
    }

    fn slot_index(&self, id: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.id == id)
    }

    /// Kills (best effort), reaps, and unregisters a worker; reports its
    /// in-flight attempt lost; spawns a replacement while the restart budget
    /// lasts.
    fn handle_death(&mut self, idx: usize, ledger: &mut StageLedger, why: &str) {
        if matches!(self.slots[idx].state, SlotState::Dead) {
            return;
        }
        let obs = self.cfg.policy.obs.clone();
        let slot = &mut self.slots[idx];
        slot.sender = None; // closes stdin via the writer thread
        let _ = slot.child.kill();
        let _ = slot.child.wait(); // reap: no zombie survives this path
        let pid = slot.pid;
        let prior = std::mem::replace(&mut slot.state, SlotState::Dead);
        self.monitor.remove(pid);
        obs.counter("worker.crashed").incr();
        if let SlotState::Busy { task, attempt } = prior {
            // A killed worker is a straggler that never reports.
            ledger.lost(task, attempt, Instant::now());
            obs.emit(er_core::obs::Event::Warning {
                stage: "worker".to_string(),
                reason: format!("worker {pid} died ({why}); task {task} attempt {attempt} lost"),
            });
        }
        self.update_running_gauge();
        if self.setup_fatal.is_some() || ledger.failed() {
            return;
        }
        if self.restarts_used < self.cfg.max_restarts {
            self.restarts_used += 1;
            match self.spawn_worker() {
                Ok(()) => obs.counter("worker.restarted").incr(),
                Err(m) => ledger.abort("spawn", format!("cannot restart worker: {m}")),
            }
        } else if self.live_count() == 0 && !ledger.done() {
            ledger.abort(
                "supervise",
                format!(
                    "worker pool exhausted: restart budget ({}) spent and no live workers remain",
                    self.cfg.max_restarts
                ),
            );
        }
    }

    /// A reply frame frees its worker; returns the attempt the worker was
    /// running unless that attempt belongs to a stage that already ended.
    fn release(&mut self, idx: usize) -> Option<(usize, u32)> {
        let state = &mut self.slots[idx].state;
        match *state {
            SlotState::Busy { task, attempt } => {
                *state = SlotState::Idle;
                Some((task, attempt))
            }
            SlotState::Abandoned => {
                *state = SlotState::Idle;
                None
            }
            _ => None,
        }
    }

    fn handle_event(&mut self, ev: Event, ledger: &mut StageLedger) {
        match ev {
            Event::Frame(id, frame) => {
                let Some(idx) = self.slot_index(id) else {
                    return;
                };
                let now = Instant::now();
                self.slots[idx].last_seen = now;
                match frame {
                    Frame::Heartbeat { .. } => {}
                    Frame::HelloAck { .. } => {
                        if matches!(self.slots[idx].state, SlotState::Handshaking) {
                            self.slots[idx].state = SlotState::Idle;
                        }
                    }
                    Frame::HelloRej { reason } => {
                        let message = format!("worker rejected handshake: {reason}");
                        self.setup_fatal = Some(message.clone());
                        ledger.abort("handshake", message);
                        self.handle_death(idx, ledger, "handshake rejected");
                    }
                    // A worker runs one task at a time and its frames arrive
                    // in order, so a reply always answers the slot's current
                    // assignment.
                    Frame::TaskResult { payload, .. } => {
                        if let Some((task, attempt)) = self.release(idx) {
                            ledger.success(task, attempt, payload, now);
                        }
                    }
                    Frame::TaskError { message, .. } => {
                        if let Some((task, attempt)) = self.release(idx) {
                            ledger.failure(task, attempt, message, now);
                        }
                    }
                    other => {
                        // A worker must never send coordinator frames; treat
                        // it as corrupt and recycle the process.
                        self.handle_death(idx, ledger, &format!("unexpected frame {other:?}"));
                    }
                }
            }
            Event::Eof(id) | Event::WriteErr(id) => {
                if let Some(idx) = self.slot_index(id) {
                    self.handle_death(idx, ledger, "pipe closed");
                }
            }
            Event::ReadErr(id, e) => {
                if let Some(idx) = self.slot_index(id) {
                    self.handle_death(idx, ledger, &format!("protocol error: {e}"));
                }
            }
        }
    }

    /// Hands ready attempts to idle workers, as long as there are both.
    fn dispatch(&mut self, job: &str, stage: &str, payloads: &[Vec<u8>], ledger: &mut StageLedger) {
        while let Some(widx) = self
            .slots
            .iter()
            .position(|s| matches!(s.state, SlotState::Idle))
        {
            let Some(claim) = ledger.claim(Instant::now()) else {
                return;
            };
            let frame = Frame::Task {
                job: job.to_string(),
                stage: stage.to_string(),
                task: claim.task,
                attempt: claim.attempt,
                payload: payloads[claim.task].clone(),
            };
            let slot = &mut self.slots[widx];
            slot.state = SlotState::Busy {
                task: claim.task,
                attempt: claim.attempt,
            };
            let sent = slot
                .sender
                .as_ref()
                .is_some_and(|s| s.send((claim.stall, frame)).is_ok());
            if !sent {
                self.handle_death(widx, ledger, "stdin closed");
                return;
            }
        }
    }

    fn liveness_scan(&mut self, ledger: &mut StageLedger) {
        let now = Instant::now();
        let overdue: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let deadline = match s.state {
                    SlotState::Dead => return None,
                    SlotState::Handshaking => self.cfg.handshake_deadline,
                    _ => self.cfg.liveness_deadline,
                };
                (now.duration_since(s.last_seen) > deadline).then_some(i)
            })
            .collect();
        for idx in overdue {
            self.cfg
                .policy
                .obs
                .counter("worker.heartbeats_missed")
                .incr();
            self.handle_death(idx, ledger, "missed heartbeats");
        }
    }

    /// Sends `Shutdown` to every live worker and reaps each as its stdout
    /// reaches EOF; kills whatever still runs at the grace deadline. Called
    /// by `Drop`, so it runs on success, typed failure, and coordinator
    /// panic alike.
    fn shutdown_pool(&mut self) {
        for slot in &mut self.slots {
            if let Some(sender) = slot.sender.take() {
                // The writer drains, then closes the pipe (EOF).
                let _ = sender.send((Duration::ZERO, Frame::Shutdown));
            }
        }
        let deadline = Instant::now() + self.cfg.shutdown_grace;
        while self.live_count() > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            // A protocol error leaves the process running: it is killed.
            match self.events_rx.recv_timeout(wait) {
                Ok(Event::Eof(id)) => self.reap(id, true),
                Ok(Event::ReadErr(id, _)) => self.reap(id, false),
                Ok(_) if !wait.is_zero() => {}
                _ => break,
            }
        }
        for idx in 0..self.slots.len() {
            self.reap(self.slots[idx].id, false);
        }
        for slot in &mut self.slots {
            if let Some(r) = slot.reader.take() {
                let _ = r.join();
            }
            if let Some(w) = slot.writer.take() {
                let _ = w.join();
            }
        }
        self.update_running_gauge();
    }

    /// Reaps live worker `id` — killed first unless its stdout closed — and
    /// counts it as a clean exit or a crash by its exit status.
    fn reap(&mut self, id: u64, exited: bool) {
        let live = |s: &&mut WorkerSlot| s.id == id && !matches!(s.state, SlotState::Dead);
        let Some(slot) = self.slots.iter_mut().find(live) else {
            return;
        };
        if !exited {
            let _ = slot.child.kill();
        }
        let clean = slot.child.wait().is_ok_and(|status| status.success());
        slot.state = SlotState::Dead;
        self.monitor.remove(slot.pid);
        let obs = &self.cfg.policy.obs;
        if clean {
            obs.counter("worker.exited").incr();
        } else {
            obs.counter("worker.crashed").incr();
        }
    }
}

impl Drop for SubprocessTransport {
    fn drop(&mut self) {
        self.shutdown_pool();
    }
}

impl Transport for SubprocessTransport {
    fn run_stage(
        &mut self,
        job: &str,
        stage: &str,
        payloads: &[Vec<u8>],
    ) -> Result<StageOutput, ExecError> {
        if let Some(m) = &self.setup_fatal {
            return Err(ExecError {
                stage: stage.to_string(),
                task: 0,
                attempts: 0,
                message: m.clone(),
            });
        }
        if payloads.is_empty() {
            return Ok(StageOutput::default());
        }
        // A frame over the cap can never be sent: refuse the stage before a
        // worker is asked, instead of booking the writer's refusal as a
        // death and restarting into the same frame.
        for (task, payload) in payloads.iter().enumerate() {
            let bytes = Frame::task_len(job, stage, payload.len());
            if bytes > u64::from(MAX_FRAME_BYTES) {
                return Err(ExecError {
                    stage: stage.to_string(),
                    task,
                    attempts: 0,
                    message: format!(
                        "task frame of {bytes} bytes exceeds the {MAX_FRAME_BYTES}-byte \
                         frame cap; not sent"
                    ),
                });
            }
        }
        self.ensure_pool()?;
        for slot in &mut self.slots {
            if matches!(slot.state, SlotState::Busy { .. }) {
                slot.state = SlotState::Abandoned;
            }
        }
        let policy = self.cfg.policy.clone();
        let started = Instant::now();
        let mut ledger = Ledger::new(stage, payloads.len(), &policy, started);
        while !ledger.done() {
            if let Some(deadline) = self.cfg.stage_deadline {
                if started.elapsed() > deadline {
                    ledger.abort(
                        stage,
                        format!(
                            "stage deadline exceeded after {:.1}s (watchdog bound on hangs)",
                            deadline.as_secs_f64()
                        ),
                    );
                    break;
                }
            }
            self.dispatch(job, stage, payloads, &mut ledger);
            // A timeout is the tick; the channel cannot disconnect while this
            // transport holds `events_tx`.
            if let Ok(ev) = self.events_rx.recv_timeout(Duration::from_millis(10)) {
                self.handle_event(ev, &mut ledger);
                while let Ok(ev) = self.events_rx.try_recv() {
                    self.handle_event(ev, &mut ledger);
                }
            }
            self.liveness_scan(&mut ledger);
        }
        let (results, counters) = ledger.finish()?;
        Ok(StageOutput::new(results, counters))
    }
}
