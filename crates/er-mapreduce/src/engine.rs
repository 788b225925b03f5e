//! The generic in-process MapReduce engine.
//!
//! Faithful to the programming model the surveyed systems use:
//!
//! 1. the input split is divided among `workers` mapper threads;
//! 2. each mapper emits `(key, value)` pairs, optionally pre-aggregated by a
//!    **combiner** (per mapper, per key — exactly Hadoop's contract: the
//!    combiner must be a local, associative reduction);
//! 3. pairs are hash-**partitioned** by key among `workers` reducer threads;
//! 4. each reducer processes its keys in sorted order.
//!
//! Results are returned sorted by key, which makes the output independent of
//! the worker count — the property every equivalence test in this workspace
//! relies on.
//!
//! # Fault tolerance
//!
//! Every entry point executes its map and reduce tasks under an
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
//! There is one job walk (`run_job`); the entry points differ only in the
//! mapper-side `PartitionBuffer` they hand it.

use crate::ledger::{Counters, Ledger};
use crate::spill::{ShuffleBounds, SpillCodec};
use er_core::codec::{escape, unescape, LineCodec};
use er_core::fault::ExecPolicy;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fs;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Job statistics, mirroring the counters a Hadoop job would report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Records emitted by all mappers (before combining).
    pub map_output_records: u64,
    /// Records after the combiner (equal to the above without a combiner).
    pub combined_records: u64,
    /// Distinct keys seen by reducers.
    pub reduce_groups: u64,
    /// Retry attempts scheduled after task failures.
    pub tasks_retried: u64,
    /// Speculative backup attempts launched for stragglers.
    pub tasks_speculated: u64,
    /// Faults fired by the policy's injector during this job.
    pub faults_injected: u64,
    /// Shuffle buffers spilled to disk under a partition byte bound
    /// (`try_run_spilling` only).
    pub partitions_spilled: u64,
    /// Records written to spill segments (`try_run_spilling` only).
    pub spilled_records: u64,
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
        obs.counter("mapreduce.combined_records")
            .add(self.combined_records);
        obs.counter("mapreduce.reduce_groups")
            .add(self.reduce_groups);
        obs.counter("mapreduce.tasks_retried")
            .add(self.tasks_retried);
        obs.counter("mapreduce.tasks_speculated")
            .add(self.tasks_speculated);
        obs.counter("mapreduce.faults_injected")
            .add(self.faults_injected);
        obs.counter("mapreduce.partitions_spilled")
            .add(self.partitions_spilled);
        obs.counter("mapreduce.spilled_records")
            .add(self.spilled_records);
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

/// `expect` message of the in-crate jobs that run under
/// `ExecPolicy::default()` behind an infallible signature: nothing is
/// injected there, so an [`ExecError`] means a map or reduce function of this
/// crate panicked on every attempt — a bug, reported with the typed error.
pub(crate) const INFALLIBLE_JOB: &str = "in-crate job failed under the default policy";

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

/// The mapper-side buffer of one reduce partition — the one thing the three
/// job families (grouping, spill-bounded grouping, folding) differ in.
///
/// [`run_job`] pushes every emitted record into the buffer of its key's
/// partition, seals the buffers when the map task ends and drains them
/// reduce-side in mapper order, so the per-key value order — and with it the
/// output — is the same whichever buffer a job uses.
trait PartitionBuffer<K, V> {
    /// What a reducer sees per key: the value list when grouping, the
    /// accumulator when folding.
    type Group;

    /// Absorbs one emitted record.
    fn push(&mut self, key: K, value: V);

    /// Ends the map task; returns the records this buffer sends through the
    /// shuffle (`JobStats::combined_records`).
    fn seal(&mut self) -> u64;

    /// `(spill events, records spilled)` of this buffer.
    fn spilled(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Drains the buffer into its partition's merged groups. Only a buffer
    /// that replays from disk can fail; the message becomes a
    /// `"shuffle"`-stage [`ExecError`].
    fn drain_into(self, merged: &mut HashMap<K, Self::Group>) -> Result<(), String>;
}

/// Groups values per key, with an optional combiner applied when the map
/// task ends (per mapper, per key — Hadoop's contract).
struct Grouping<'a, K, V, CF> {
    groups: HashMap<K, Vec<V>>,
    combine: Option<&'a CF>,
}

impl<K, V, CF> PartitionBuffer<K, V> for Grouping<'_, K, V, CF>
where
    K: Eq + Hash,
    CF: Fn(&K, Vec<V>) -> Vec<V>,
{
    type Group = Vec<V>;

    fn push(&mut self, key: K, value: V) {
        self.groups.entry(key).or_default().push(value);
    }

    fn seal(&mut self) -> u64 {
        if let Some(combine) = self.combine {
            for (k, vs) in self.groups.iter_mut() {
                *vs = combine(k, std::mem::take(vs));
            }
        }
        self.groups.values().map(|vs| vs.len() as u64).sum()
    }

    fn drain_into(self, merged: &mut HashMap<K, Vec<V>>) -> Result<(), String> {
        merge_table(merged, self.groups, |vs, more| vs.extend(more));
        Ok(())
    }
}

/// Merges one mapper's table into its partition's merged groups.
fn merge_table<K: Eq + Hash, G>(
    merged: &mut HashMap<K, G>,
    table: HashMap<K, G>,
    merge: impl Fn(&mut G, G),
) {
    if merged.is_empty() {
        // The partition's first mapper: adopt its table, re-insert nothing.
        *merged = table;
        return;
    }
    for (k, g) in table {
        match merged.entry(k) {
            Entry::Occupied(mut e) => merge(e.get_mut(), g),
            Entry::Vacant(e) => {
                e.insert(g);
            }
        }
    }
}

/// Folds each value into its key's accumulator the moment it is emitted —
/// the allocation-free form of a combiner.
struct Folding<'a, K, A, FF, GF> {
    accs: HashMap<K, A>,
    fold: &'a FF,
    merge: &'a GF,
}

impl<K, V, A, FF, GF> PartitionBuffer<K, V> for Folding<'_, K, A, FF, GF>
where
    K: Eq + Hash,
    A: Default,
    FF: Fn(&mut A, V),
    GF: Fn(&mut A, A),
{
    type Group = A;

    fn push(&mut self, key: K, value: V) {
        (self.fold)(self.accs.entry(key).or_default(), value);
    }

    fn seal(&mut self) -> u64 {
        self.accs.len() as u64
    }

    fn drain_into(self, merged: &mut HashMap<K, A>) -> Result<(), String> {
        merge_table(merged, self.accs, self.merge);
        Ok(())
    }
}

/// Magic word of shuffle spill segment files.
const SPILL_MAGIC: &str = "er-spill";
/// Format version of shuffle spill segment files.
const SPILL_VERSION: &str = "v1";

/// Monotonic job counter making spill directories and fingerprints unique
/// within a process.
static SPILL_JOB_SEQ: AtomicU64 = AtomicU64::new(0);

/// What every [`Spilling`] buffer of one job shares: the job-unique spill
/// directory and segment codec, the attempt-unique segment numbering and the
/// byte bound. Dropping it removes the spill directory — on success, error
/// and panic paths alike, sweeping orphan segments of losing speculative
/// attempts with it.
struct SpillJob {
    dir: PathBuf,
    codec: LineCodec,
    next_segment: AtomicU64,
    bound: u64,
}

impl Drop for SpillJob {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// [`Grouping`] under a byte bound: spill segments in spill order plus the
/// in-memory remainder. Replaying the segments in order and the remainder
/// last reproduces, per key, the exact value sequence of the unbounded
/// shuffle — the order bit-identity rests on.
struct Spilling<'a, K, V> {
    job: &'a SpillJob,
    segments: Vec<PathBuf>,
    memory: HashMap<K, Vec<V>>,
    bytes: u64,
    spilled_records: u64,
}

impl<K, V> PartitionBuffer<K, V> for Spilling<'_, K, V>
where
    K: SpillCodec + Ord + Hash,
    V: SpillCodec,
{
    type Group = Vec<V>;

    fn push(&mut self, key: K, value: V) {
        self.bytes = self
            .bytes
            .saturating_add(key.approx_bytes())
            .saturating_add(value.approx_bytes());
        self.memory.entry(key).or_default().push(value);
        if self.bytes > self.job.bound {
            let path = self.job.dir.join(format!(
                "seg-{:08x}.lines",
                self.job.next_segment.fetch_add(1, Ordering::Relaxed)
            ));
            self.spilled_records += spill_segment(&self.job.codec, &path, &mut self.memory);
            self.segments.push(path);
            self.bytes = 0;
        }
    }

    fn seal(&mut self) -> u64 {
        let in_memory: u64 = self.memory.values().map(|vs| vs.len() as u64).sum();
        self.spilled_records + in_memory
    }

    fn spilled(&self) -> (u64, u64) {
        (self.segments.len() as u64, self.spilled_records)
    }

    fn drain_into(self, merged: &mut HashMap<K, Vec<V>>) -> Result<(), String> {
        for segment in &self.segments {
            for (k, v) in read_segment::<K, V>(&self.job.codec, segment)? {
                merged.entry(k).or_default().push(v);
            }
        }
        merge_table(merged, self.memory, |vs, more| vs.extend(more));
        Ok(())
    }
}

/// Flushes a partition buffer to a fingerprinted segment file and leaves the
/// buffer empty. Keys are written in sorted order (deterministic file bytes);
/// values keep their emit order, which is the order that matters.
///
/// An I/O failure panics *inside the caught task region* of
/// [`execute_tasks`], so it is retried like any other transient task fault
/// and, if persistent, surfaces as a typed [`ExecError`] — never an abort.
fn spill_segment<K: SpillCodec + Ord, V: SpillCodec>(
    codec: &LineCodec,
    path: &Path,
    buffer: &mut HashMap<K, Vec<V>>,
) -> u64 {
    let mut entries: Vec<(K, Vec<V>)> = std::mem::take(buffer).into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut lines = Vec::new();
    for (k, vs) in &entries {
        let key = escape(&k.encode());
        for v in vs {
            lines.push(format!("{key}\t{}", escape(&v.encode())));
        }
    }
    let records = lines.len() as u64;
    codec
        .write_atomic(
            path,
            "shuffle",
            &format!(" records={records}"),
            lines.into_iter(),
        )
        .unwrap_or_else(|e| panic!("spill write failed: {e}"));
    records
}

/// Reads one spill segment back; every malformed input (torn file, foreign
/// fingerprint, bad record) is a typed error, never a panic.
fn read_segment<K: SpillCodec, V: SpillCodec>(
    codec: &LineCodec,
    path: &Path,
) -> Result<Vec<(K, V)>, String> {
    let (_header, body) = codec
        .read(path, "shuffle")?
        .ok_or_else(|| format!("spill segment vanished: {}", path.display()))?;
    let mut out = Vec::with_capacity(body.len());
    for line in &body {
        let (k, v) = line
            .split_once('\t')
            .ok_or_else(|| format!("bad spill record: {line:?}"))?;
        out.push((K::decode(&unescape(k)?)?, V::decode(&unescape(v)?)?));
    }
    Ok(out)
}

/// The one job walk: chunk → map → transpose → merge → reduce → key-sort,
/// both task phases under [`execute_tasks`] and `policy`.
///
/// A failed or speculated task must be able to re-read its shared input, so
/// the closures borrow instead of consuming: map tasks re-borrow their input
/// chunk and reduce tasks re-borrow their partition's merged groups. Each
/// partition is merged and key-sorted *once*, outside the retry machinery,
/// consuming the shuffle output by move — only the user's reduce function,
/// the part that can actually fault, is re-runnable, and no attempt clones
/// anything. Results are flattened in global key order, which makes the
/// output independent of the worker count.
fn run_job<I, K, V, B, R>(
    workers: usize,
    inputs: &[I],
    policy: &ExecPolicy,
    map_fn: impl Fn(&I, &mut dyn FnMut(K, V)) + Sync,
    new_buffer: impl Fn() -> B + Sync,
    reduce_fn: impl Fn(&K, &B::Group) -> Vec<R> + Sync,
) -> Result<(Vec<R>, JobStats), ExecError>
where
    I: Sync,
    K: Ord + Hash + Send + Sync,
    B: PartitionBuffer<K, V> + Send,
    B::Group: Send + Sync,
    R: Send,
{
    let faults_before = policy.faults_injected();

    // ---- map phase: one task per input chunk -------------------------------
    let chunk = inputs.len().div_ceil(workers).max(1);
    let chunks: Vec<&[I]> = inputs.chunks(chunk).collect();
    let (mapper_outputs, map_counters) =
        execute_tasks("map", &chunks, workers, policy, |chunk_inputs: &&[I]| {
            let mut buffers: Vec<B> = (0..workers).map(|_| new_buffer()).collect();
            let mut emitted = 0u64;
            for input in *chunk_inputs {
                let mut emit = |k: K, v: V| {
                    emitted += 1;
                    buffers[partition_of(&k, workers)].push(k, v);
                };
                map_fn(input, &mut emit);
            }
            let shuffled: u64 = buffers.iter_mut().map(|b| b.seal()).sum();
            Ok((buffers, emitted, shuffled))
        })?;

    // ---- shuffle: transpose to per-partition lists, in mapper order --------
    let mut stats = JobStats::default();
    let mut partition_inputs: Vec<Vec<B>> = (0..workers).map(|_| Vec::new()).collect();
    for (buffers, emitted, shuffled) in mapper_outputs {
        stats.map_output_records += emitted;
        stats.combined_records += shuffled;
        for (p, buffer) in buffers.into_iter().enumerate() {
            let (spills, records) = buffer.spilled();
            stats.partitions_spilled += spills;
            stats.spilled_records += records;
            partition_inputs[p].push(buffer);
        }
    }

    // ---- merge: one key-sorted group list per partition --------------------
    let mut merged_partitions: Vec<Vec<(K, B::Group)>> = Vec::with_capacity(workers);
    for (p, buffers) in partition_inputs.into_iter().enumerate() {
        let mut merged = HashMap::new();
        for buffer in buffers {
            buffer
                .drain_into(&mut merged)
                .map_err(|message| ExecError {
                    stage: "shuffle".to_string(),
                    task: p,
                    attempts: 1,
                    message,
                })?;
        }
        let mut entries: Vec<(K, B::Group)> = merged.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        merged_partitions.push(entries);
    }

    // ---- reduce phase: one task per partition ------------------------------
    // Outputs are positional (entry order); keys are moved out of
    // `merged_partitions` afterwards.
    let (reducer_outputs, reduce_counters): (Vec<Vec<Vec<R>>>, Counters) = execute_tasks(
        "reduce",
        &merged_partitions,
        workers,
        policy,
        |entries: &Vec<(K, B::Group)>| Ok(entries.iter().map(|(k, g)| reduce_fn(k, g)).collect()),
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

    /// Runs the job without a combiner under `policy`, retrying failed tasks
    /// and (optionally) speculating on stragglers. A completed run is
    /// bit-identical to the fault-free one; a task that exhausts its
    /// attempts yields an [`ExecError`] instead of panicking.
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
        self.try_run_with_combiner(
            inputs,
            policy,
            map_fn,
            None::<fn(&K, Vec<V>) -> Vec<V>>,
            reduce_fn,
        )
    }

    /// [`try_run`](MapReduce::try_run) with an optional combiner applied per
    /// mapper per key.
    pub fn try_run_with_combiner<MF, CF, RF>(
        &self,
        inputs: &[I],
        policy: &ExecPolicy,
        map_fn: MF,
        combine_fn: Option<CF>,
        reduce_fn: RF,
    ) -> Result<(Vec<R>, JobStats), ExecError>
    where
        MF: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        CF: Fn(&K, Vec<V>) -> Vec<V> + Sync,
        RF: Fn(&K, &[V]) -> Vec<R> + Sync,
    {
        run_job(
            self.workers,
            inputs,
            policy,
            map_fn,
            || Grouping {
                groups: HashMap::new(),
                combine: combine_fn.as_ref(),
            },
            |k: &K, vs: &Vec<V>| reduce_fn(k, vs),
        )
    }

    /// Bounded-shuffle [`try_run`](MapReduce::try_run): every mapper-side
    /// partition buffer is capped at `bounds.max_partition_bytes`; a buffer
    /// crossing the bound is spilled to a fingerprinted segment file (the
    /// checkpoint codec of `er_core::codec`) and the reducers replay the
    /// segments in spill order, so completed runs are **bit-identical** to
    /// the unbounded [`try_run`](MapReduce::try_run) at every bound, worker
    /// count and fault schedule. A torn or unreadable segment surfaces as a
    /// `"shuffle"`-stage [`ExecError`]. The job-unique spill directory is
    /// removed when the job ends — successfully or not — which also sweeps
    /// orphan segments written by losing retry or speculation attempts
    /// (segment names are attempt-unique, so they can never collide).
    pub fn try_run_spilling<MF, RF>(
        &self,
        inputs: &[I],
        policy: &ExecPolicy,
        bounds: &ShuffleBounds,
        map_fn: MF,
        reduce_fn: RF,
    ) -> Result<(Vec<R>, JobStats), ExecError>
    where
        K: SpillCodec,
        V: SpillCodec,
        MF: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        RF: Fn(&K, &[V]) -> Vec<R> + Sync,
    {
        let seq = SPILL_JOB_SEQ.fetch_add(1, Ordering::Relaxed);
        let job = SpillJob {
            dir: bounds
                .spill_dir
                .join(format!("er-shuffle-{}-{seq}", std::process::id())),
            codec: LineCodec::new(
                SPILL_MAGIC,
                SPILL_VERSION,
                ((std::process::id() as u64) << 32) | seq,
            ),
            next_segment: AtomicU64::new(0),
            bound: bounds.max_partition_bytes,
        };
        run_job(
            self.workers,
            inputs,
            policy,
            map_fn,
            || Spilling {
                job: &job,
                segments: Vec::new(),
                memory: HashMap::new(),
                bytes: 0,
                spilled_records: 0,
            },
            |k: &K, vs: &Vec<V>| reduce_fn(k, vs),
        )
    }
}

/// A fold-style MapReduce job: values are folded into a per-key accumulator
/// the moment they are emitted, mapper-side — the zero-copy form of a
/// combiner. For aggregations (counts, sums, per-edge statistics) this avoids
/// materializing a `Vec<V>` per key and is the variant the parallel
/// meta-blocking jobs use, where a skewed collection emits millions of
/// records.
pub struct FoldMapReduce<I, K, A, R> {
    workers: usize,
    _marker: std::marker::PhantomData<(I, K, A, R)>,
}

impl<I, K, A, R> FoldMapReduce<I, K, A, R>
where
    I: Send + Sync,
    K: Ord + Hash + Clone + Send + Sync,
    A: Default + Send + Sync,
    R: Send,
{
    /// Creates a job runner with `workers ≥ 1` threads.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        FoldMapReduce {
            workers,
            _marker: std::marker::PhantomData,
        }
    }

    /// Runs the job under `policy` (per-task retry/backoff, optional
    /// speculation; bit-identical to the fault-free run when it completes):
    /// * `map_fn(input, emit)` — emit `(key, value)` records;
    /// * `fold_fn(acc, value)` — fold a value into the key's accumulator
    ///   (mapper-side, so it must be associative and order-insensitive, the
    ///   usual combiner contract);
    /// * `merge_fn(acc, other)` — merge two accumulators (reduce-side);
    /// * `finish_fn(key, acc)` — produce the per-key results; it borrows the
    ///   accumulator because a retried reduce task re-reads it.
    ///
    /// Results are returned sorted by key (worker-count independent).
    pub fn try_run<V, MF, FF, GF, RF>(
        &self,
        inputs: &[I],
        policy: &ExecPolicy,
        map_fn: MF,
        fold_fn: FF,
        merge_fn: GF,
        finish_fn: RF,
    ) -> Result<(Vec<R>, JobStats), ExecError>
    where
        V: Send,
        MF: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        FF: Fn(&mut A, V) + Sync,
        GF: Fn(&mut A, A) + Sync,
        RF: Fn(&K, &A) -> Vec<R> + Sync,
    {
        run_job(
            self.workers,
            inputs,
            policy,
            map_fn,
            || Folding {
                accs: HashMap::new(),
                fold: &fold_fn,
                merge: &merge_fn,
            },
            finish_fn,
        )
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
    fn word_count(
        texts: &[&str],
        workers: usize,
        combiner: bool,
    ) -> (Vec<(String, u64)>, JobStats) {
        let mr: MapReduce<&str, String, u64, (String, u64)> = MapReduce::new(workers);
        mr.try_run_with_combiner(
            texts,
            &ExecPolicy::default(),
            map_words,
            combiner.then_some(|_k: &String, vs: Vec<u64>| vec![vs.into_iter().sum::<u64>()]),
            |k: &String, vs: &[u64]| vec![(k.clone(), vs.iter().sum::<u64>())],
        )
        .unwrap()
    }

    #[test]
    fn word_count_basics() {
        let (counts, stats) = word_count(&["a b a", "b c", "a"], 2, false);
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
        assert_eq!(stats.map_output_records, 6);
        assert_eq!(stats.combined_records, 6, "no combiner configured");
        assert_eq!(stats.reduce_groups, 3);
        assert_eq!(stats.tasks_retried, 0);
        assert_eq!(stats.faults_injected, 0);
    }

    #[test]
    fn output_matches_the_serial_oracle_at_every_worker_count() {
        let texts = ["x y z", "y z w", "z w v", "w v u", "v u t"];
        for workers in 1..=8 {
            for combiner in [false, true] {
                assert_eq!(
                    word_count(&texts, workers, combiner).0,
                    reference(&texts),
                    "workers={workers} combiner={combiner}"
                );
            }
        }
    }

    #[test]
    fn combiner_reduces_shuffle_volume_but_not_results() {
        let texts = ["a a a a", "a a a a"];
        let (no_comb, s1) = word_count(&texts, 2, false);
        let (comb, s2) = word_count(&texts, 2, true);
        assert_eq!(no_comb, comb);
        assert_eq!(
            s1.combined_records, 8,
            "without combiner: every record shuffles"
        );
        assert_eq!(
            s2.combined_records, 2,
            "with combiner: one record per mapper"
        );
    }

    #[test]
    fn empty_input() {
        let (out, stats) = word_count(&[], 4, false);
        assert!(out.is_empty());
        assert_eq!(stats, JobStats::default());
    }

    #[test]
    fn more_workers_than_inputs() {
        let (out, _) = word_count(&["only one"], 16, false);
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

    fn fold_word_count(
        texts: &[&str],
        workers: usize,
        policy: &ExecPolicy,
    ) -> (Vec<(String, u64)>, JobStats) {
        let mr: FoldMapReduce<&str, String, u64, (String, u64)> = FoldMapReduce::new(workers);
        mr.try_run(
            texts,
            policy,
            map_words,
            |acc, v| *acc += v,
            |acc, other| *acc += other,
            |k, acc| vec![(k.clone(), *acc)],
        )
        .unwrap()
    }

    #[test]
    fn fold_job_matches_the_serial_oracle() {
        let texts = ["x y z", "y z w", "z w v", "w v u"];
        for workers in [1, 2, 5] {
            let (out, stats) = fold_word_count(&texts, workers, &ExecPolicy::default());
            assert_eq!(out, reference(&texts), "workers={workers}");
            assert_eq!(stats.map_output_records, 12);
        }
    }

    #[test]
    fn fold_job_empty_input() {
        let (out, stats) = fold_word_count(&[], 2, &ExecPolicy::default());
        assert!(out.is_empty());
        assert_eq!(stats, JobStats::default());
    }

    // ---- fault tolerance ---------------------------------------------------

    use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy, SpeculationConfig};
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
    fn fold_job_absorbs_faults_to_the_same_result() {
        let texts = ["x y z", "y z w", "z w v", "w v u"];
        let plan = FaultPlan::none()
            .inject("map", 1, 0, FaultKind::Transient)
            .inject("reduce", 0, 0, FaultKind::Panic);
        let (out, stats) = fold_word_count(&texts, 3, &injecting(fast_retry(3), plan));
        assert_eq!(out, reference(&texts));
        assert_eq!(stats.tasks_retried, 2);
        assert_eq!(stats.map_output_records, 12);
    }

    #[test]
    fn a_panicking_task_body_is_caught_retried_and_finally_typed() {
        // Injected panics never unwind (the ledger books them as typed
        // failures), so this is the test that holds `catch_unwind` to its
        // job: a map function that really panics, once and then always.
        let texts = ["a b", "c d", "e f"];
        let tripped = std::sync::atomic::AtomicBool::new(false);
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

    // ---- bounded shuffle / spilling ----------------------------------------

    fn spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("er-spill-test-{}-{tag}", std::process::id()))
    }

    fn try_word_count_spilling(
        texts: &[String],
        workers: usize,
        policy: &ExecPolicy,
        bounds: &ShuffleBounds,
    ) -> Result<(Vec<(String, u64)>, JobStats), ExecError> {
        let mr: MapReduce<String, String, u64, (String, u64)> = MapReduce::new(workers);
        mr.try_run_spilling(
            texts,
            policy,
            bounds,
            |text: &String, emit: &mut dyn FnMut(String, u64)| {
                for w in text.split_whitespace() {
                    emit(w.to_string(), 1);
                }
            },
            |k: &String, vs: &[u64]| vec![(k.clone(), vs.iter().sum::<u64>())],
        )
    }

    #[test]
    fn spilling_is_bit_identical_to_the_unbounded_run() {
        let texts: Vec<String> = (0..60)
            .map(|i| format!("w{} w{} shared", i % 9, i % 4))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let reference = reference(&refs);
        let policy = ExecPolicy::default();
        for workers in [1, 2, 4] {
            for bound in [1u64, 256, 1 << 20] {
                let bounds = ShuffleBounds::new(bound, spill_dir("ident"));
                let (out, stats) =
                    try_word_count_spilling(&texts, workers, &policy, &bounds).unwrap();
                assert_eq!(out, reference, "workers={workers} bound={bound}");
                if bound == 1 {
                    assert!(stats.partitions_spilled > 0, "a 1-byte bound must spill");
                    assert!(stats.spilled_records > 0);
                } else if bound == 1 << 20 {
                    assert_eq!(stats.partitions_spilled, 0, "a huge bound must not spill");
                    assert_eq!(stats.spilled_records, 0);
                }
            }
        }
    }

    #[test]
    fn spill_directory_is_swept_after_the_job() {
        let dir = spill_dir("cleanup");
        let texts: Vec<String> = (0..20).map(|i| format!("k{} k{}", i % 5, i % 3)).collect();
        let bounds = ShuffleBounds::new(1, &dir);
        let (_, stats) =
            try_word_count_spilling(&texts, 2, &ExecPolicy::default(), &bounds).unwrap();
        assert!(stats.partitions_spilled > 0);
        let leftovers = fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftovers, 0, "job spill subdirectory must be removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilling_composes_with_seeded_faults() {
        let texts: Vec<String> = (0..40)
            .map(|i| format!("t{} t{} shared", i % 7, i % 3))
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let reference = reference(&refs);
        let mut total_faults = 0;
        for seed in 0..4u64 {
            let plan = FaultPlan::seeded(er_core::fault::SeededFaults::absorbable(seed));
            let policy = ExecPolicy {
                retry: fast_retry(4),
                injector: Some(Arc::new(FaultInjector::new(plan))),
                speculation: None,
                obs: Default::default(),
            };
            let bounds = ShuffleBounds::new(1, spill_dir("faults"));
            let (out, stats) = try_word_count_spilling(&texts, 3, &policy, &bounds).unwrap();
            assert_eq!(out, reference, "seed={seed}");
            assert!(stats.partitions_spilled > 0);
            total_faults += stats.faults_injected;
        }
        assert!(total_faults > 0, "the sweep must actually inject faults");
    }

    #[test]
    fn spilling_empty_input() {
        let bounds = ShuffleBounds::new(1, spill_dir("empty"));
        let (out, stats) =
            try_word_count_spilling(&[], 4, &ExecPolicy::default(), &bounds).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, JobStats::default());
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
}
