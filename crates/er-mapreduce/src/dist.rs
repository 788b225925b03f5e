//! Transport-agnostic distributed jobs: payload codec, task runner, driver.
//!
//! The multi-process backend cannot ship closures to a child process, so
//! distributable jobs are *named*: a [`TaskRegistry`] maps a job name to a
//! [`DistJob`] implementation, and every task is an opaque byte payload (an
//! [`er_core::wire`] record) the worker decodes with [`run_task`]. Both
//! transports execute the exact same
//! `run_task` bytes — the in-process transport calls it on a thread, the
//! subprocess transport calls it inside `er --worker` — so the in-process
//! backend remains the bit-exactness oracle for the multi-process one.
//!
//! The data plane is the spill-file format of PR 4 promoted to first class:
//! map tasks write their partitioned output as wire `(key, value)` rows into
//! one-section [`colstore`](er_core::colstore) segments and return only the
//! manifest; reduce tasks read the segments whole, in mapper order, and group
//! the rows, borrowed from the segment bytes, in an FNV-keyed map. The shuffle
//! never rides in frames — though a map payload carries its input records
//! inline and a reduce result its output pairs — so a killed worker leaves at
//! most an unreferenced segment file behind.

use crate::engine::{partition_of, ExecError};
use crate::transport::Transport;
use er_core::colstore::{Segment, SegmentOptions, SegmentWriter};
use er_core::intern::FnvBuild;
use er_core::wire::{put_bytes, put_str, put_u64, Decoder, WireError};
use std::collections::{BTreeMap, HashMap};
use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique sequence for job directories and segment files; combined
/// with the pid, two concurrent runs can never collide on a path.
static DIST_SEQ: AtomicU64 = AtomicU64::new(0);

/// A distributable MapReduce job over string records.
///
/// Implementations must be pure: both transports may retry or speculatively
/// duplicate any task, and output identity across attempts is what makes a
/// killed worker indistinguishable from a straggler that never reports.
pub trait DistJob: Send + Sync {
    /// Maps one input record to zero or more `(key, value)` pairs.
    fn map(&self, record: &str, emit: &mut dyn FnMut(&str, &str));
    /// Reduces one key group. `values` arrive in deterministic mapper order.
    fn reduce(&self, key: &str, values: &[&str]) -> Vec<String>;
}

/// Named jobs a worker process knows how to run.
#[derive(Clone, Default)]
pub struct TaskRegistry {
    jobs: BTreeMap<String, Arc<dyn DistJob>>,
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> TaskRegistry {
        TaskRegistry::default()
    }

    /// Registers `job` under `name` (replacing any previous binding).
    pub fn register(&mut self, name: &str, job: Arc<dyn DistJob>) {
        self.jobs.insert(name.to_string(), job);
    }

    /// Looks up a job by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn DistJob>> {
        self.jobs.get(name)
    }

    /// Registered job names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.jobs.keys().cloned().collect()
    }
}

/// The registry every built-in worker entry point uses: `wordcount` and
/// `token-blocking`.
pub fn default_registry() -> TaskRegistry {
    let mut r = TaskRegistry::new();
    r.register("wordcount", Arc::new(WordCountJob));
    r.register("token-blocking", Arc::new(TokenBlockingJob));
    r
}

/// Word count — the protocol smoke-test job.
pub struct WordCountJob;

impl DistJob for WordCountJob {
    fn map(&self, record: &str, emit: &mut dyn FnMut(&str, &str)) {
        for word in record.split_whitespace() {
            emit(word, "1");
        }
    }

    fn reduce(&self, _key: &str, values: &[&str]) -> Vec<String> {
        let total: u64 = values.iter().filter_map(|v| v.parse::<u64>().ok()).sum();
        vec![total.to_string()]
    }
}

/// Dedoop-style blocking over pre-keyed entities — token blocking when the
/// keys are tokens, and any other key-based family when they are its keys.
///
/// Input record: `entity_id \t key \t key …` (the entity's distinct keys).
/// Emits one `(key, entity_id)` posting per key; the reducer keeps groups of
/// ≥ 2 entities (singleton blocks produce no comparisons) and outputs the
/// entity ids joined by spaces, in arrival order — which is ascending entity
/// order when the driver feeds entities in id order.
pub struct TokenBlockingJob;

impl DistJob for TokenBlockingJob {
    fn map(&self, record: &str, emit: &mut dyn FnMut(&str, &str)) {
        let mut fields = record.split('\t');
        let Some(id) = fields.next() else { return };
        for token in fields {
            if !token.is_empty() {
                emit(token, id);
            }
        }
    }

    fn reduce(&self, _key: &str, values: &[&str]) -> Vec<String> {
        if values.len() >= 2 {
            vec![values.join(" ")]
        } else {
            Vec::new()
        }
    }
}

// ---------------------------------------------------------------------------
// Task payloads
// ---------------------------------------------------------------------------
//
// A payload is a one-byte tag, header fields, then zero or more records, all
// in the `er_core::wire` codec; records run to the end of the payload. Paths
// travel as their OS bytes.

const MAP_TASK: u8 = b'm';
const REDUCE_TASK: u8 = b'r';
const MAP_RESULT: u8 = b'M';
const REDUCE_RESULT: u8 = b'R';

/// Builds a map-task payload.
pub fn encode_map_task(
    partitions: usize,
    spill_bound: u64,
    fingerprint: u64,
    dir: &Path,
    records: &[String],
) -> Vec<u8> {
    let mut out = vec![MAP_TASK];
    put_u64(&mut out, partitions as u64);
    put_u64(&mut out, spill_bound);
    put_u64(&mut out, fingerprint);
    put_bytes(&mut out, dir.as_os_str().as_bytes());
    for r in records {
        put_str(&mut out, r);
    }
    out
}

/// Builds a reduce-task payload.
pub fn encode_reduce_task(partition: usize, fingerprint: u64, segments: &[PathBuf]) -> Vec<u8> {
    let mut out = vec![REDUCE_TASK];
    put_u64(&mut out, partition as u64);
    put_u64(&mut out, fingerprint);
    for s in segments {
        put_bytes(&mut out, s.as_os_str().as_bytes());
    }
    out
}

/// One segment a map task wrote: `(partition, path)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentRef {
    /// Partition the segment belongs to.
    pub partition: usize,
    /// Segment file path.
    pub path: PathBuf,
}

/// Decoded map-task result: emission count, mid-task spill count, segments
/// in emission order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapResult {
    /// `(key, value)` pairs the task emitted.
    pub emitted: u64,
    /// Bound-triggered mid-task spills (the final flush is not counted).
    pub spills: u64,
    /// Segments written, in emission order.
    pub segments: Vec<SegmentRef>,
}

/// Parses a map-task result payload.
pub fn decode_map_result(payload: &[u8]) -> Result<MapResult, String> {
    let bad = |e: WireError| format!("bad map result: {e}");
    let mut d = tagged(payload, MAP_RESULT, "map result")?;
    let emitted = d.u64().map_err(bad)?;
    let spills = d.u64().map_err(bad)?;
    let mut segments = Vec::new();
    while !d.is_empty() {
        segments.push(SegmentRef {
            partition: d.usize().map_err(bad)?,
            path: path(&mut d).map_err(bad)?,
        });
    }
    Ok(MapResult {
        emitted,
        spills,
        segments,
    })
}

/// Decoded reduce-task result: group count and output pairs in key order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReduceResult {
    /// Distinct key groups the task reduced.
    pub groups: u64,
    /// `(key, output)` pairs, keys ascending, outputs in emission order.
    pub pairs: Vec<(String, String)>,
}

/// Parses a reduce-task result payload.
pub fn decode_reduce_result(payload: &[u8]) -> Result<ReduceResult, String> {
    let bad = |e: WireError| format!("bad reduce result: {e}");
    let mut d = tagged(payload, REDUCE_RESULT, "reduce result")?;
    let groups = d.u64().map_err(bad)?;
    let mut pairs = Vec::new();
    while !d.is_empty() {
        let key = d.str().map_err(bad)?.to_string();
        pairs.push((key, d.str().map_err(bad)?.to_string()));
    }
    Ok(ReduceResult { groups, pairs })
}

/// A decoder past the tag of `payload`, which must be `tag`.
fn tagged<'a>(payload: &'a [u8], tag: u8, what: &str) -> Result<Decoder<'a>, String> {
    let mut d = Decoder::new(payload);
    match d.u8() {
        Ok(t) if t == tag => Ok(d),
        Ok(t) => Err(format!("bad {what} header: tag {t}, expected {tag}")),
        Err(e) => Err(format!("bad {what} header: {e}")),
    }
}

fn path(d: &mut Decoder<'_>) -> Result<PathBuf, WireError> {
    Ok(PathBuf::from(OsStr::from_bytes(d.bytes()?)))
}

// ---------------------------------------------------------------------------
// Task runner (shared by both transports)
// ---------------------------------------------------------------------------

/// Runs one task attempt: decodes `payload`, executes the named job's map or
/// reduce logic, and encodes the result payload. Pure up to segment file
/// names, which are process-unique but never appear in reduce output.
///
/// `budget_bytes` is the worker's negotiated memory allotment (0 =
/// unlimited); it tightens the map-side spill bound so a worker never
/// buffers more shuffle bytes than its share of the job budget.
pub fn run_task(
    registry: &TaskRegistry,
    job: &str,
    stage: &str,
    payload: &[u8],
    budget_bytes: u64,
) -> Result<Vec<u8>, String> {
    let j = registry
        .get(job)
        .ok_or_else(|| format!("unknown job {job:?} (registered: {:?})", registry.names()))?;
    match stage {
        "map" => run_map_task(j.as_ref(), payload, budget_bytes),
        "reduce" => run_reduce_task(j.as_ref(), payload),
        other => Err(format!("unknown stage {other:?}")),
    }
}

fn run_map_task(job: &dyn DistJob, payload: &[u8], budget_bytes: u64) -> Result<Vec<u8>, String> {
    let header = |e: WireError| format!("bad map task header: {e}");
    let mut d = tagged(payload, MAP_TASK, "map task")?;
    let partitions = d.usize().map_err(header)?;
    let spill_bound = d.u64().map_err(header)?;
    let fingerprint = d.u64().map_err(header)?;
    let dir = path(&mut d).map_err(header)?;
    if partitions == 0 {
        return Err("map task with zero partitions".to_string());
    }
    // The worker's budget allotment tightens the configured bound.
    let bound = match (spill_bound, budget_bytes) {
        (0, b) => b,
        (a, 0) => a,
        (a, b) => a.min(b),
    };

    // Per partition: wire `(key, value)` rows, and the key + value bytes the
    // spill bound is charged with.
    let mut buffers: Vec<(Vec<u8>, u64)> = vec![(Vec::new(), 0); partitions];
    let mut spilled: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut emitted: u64 = 0;
    let mut spills: u64 = 0;
    let mut segments: Vec<SegmentRef> = Vec::new();

    let flush = |p: usize, rows: &[u8], segments: &mut Vec<SegmentRef>| {
        if rows.is_empty() {
            return Ok(());
        }
        let seq = DIST_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("seg-{}-{seq}-p{p}.seg", std::process::id()));
        let mut w = SegmentWriter::create(&path, fingerprint).map_err(|e| e.to_string())?;
        w.bytes(rows).map_err(|e| e.to_string())?;
        w.finish().map_err(|e| e.to_string())?;
        segments.push(SegmentRef { partition: p, path });
        Ok::<(), String>(())
    };

    while !d.is_empty() {
        let record = d.str().map_err(|e| format!("bad map task record: {e}"))?;
        job.map(record, &mut |k, v| {
            let p = partition_of(k, partitions);
            let (rows, bytes) = &mut buffers[p];
            put_str(rows, k);
            put_str(rows, v);
            *bytes += (k.len() + v.len()) as u64;
            emitted += 1;
            if bound > 0 && *bytes > bound {
                spilled.push((p, std::mem::take(rows)));
                *bytes = 0;
            }
        });
        spills += spilled.len() as u64;
        for (p, rows) in spilled.drain(..) {
            flush(p, &rows, &mut segments)?;
        }
    }
    for (p, (rows, _)) in buffers.iter().enumerate() {
        flush(p, rows, &mut segments)?;
    }

    let mut out = vec![MAP_RESULT];
    put_u64(&mut out, emitted);
    put_u64(&mut out, spills);
    for s in &segments {
        put_u64(&mut out, s.partition as u64);
        put_bytes(&mut out, s.path.as_os_str().as_bytes());
    }
    Ok(out)
}

fn run_reduce_task(job: &dyn DistJob, payload: &[u8]) -> Result<Vec<u8>, String> {
    let header = |e: WireError| format!("bad reduce task header: {e}");
    let mut d = tagged(payload, REDUCE_TASK, "reduce task")?;
    let _partition = d.u64().map_err(header)?;
    let fingerprint = d.u64().map_err(header)?;

    // Segments are read whole in manifest (mapper) order, so each key's values
    // keep arrival order; rows are borrowed from the segment bytes. Keys
    // reduce in sorted order: the output is independent of partition count
    // and worker schedule.
    let mut files = Vec::new();
    while !d.is_empty() {
        let path = path(&mut d).map_err(|e| format!("bad reduce task segment path: {e}"))?;
        let rows = Segment::open(&path, SegmentOptions::new(fingerprint))
            .and_then(|seg| seg.bytes(0))
            .map_err(|e| format!("shuffle {e}"))?;
        files.push((path, rows));
    }
    let mut groups: HashMap<&str, Vec<&str>, FnvBuild> = HashMap::default();
    for (path, rows) in &files {
        let bad = |e: WireError| format!("bad row in shuffle segment {}: {e}", path.display());
        let mut d = Decoder::new(rows);
        while !d.is_empty() {
            let key = d.str().map_err(bad)?;
            groups.entry(key).or_default().push(d.str().map_err(bad)?);
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by_key(|&(key, _)| key);
    let mut out = vec![REDUCE_RESULT];
    put_u64(&mut out, groups.len() as u64);
    for (key, values) in groups {
        for output in job.reduce(key, &values) {
            put_str(&mut out, key);
            put_str(&mut out, &output);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Shape of a distributed run: task/partition counts, spill configuration,
/// and the fingerprint binding every segment file to this job.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Number of map tasks (inputs are chunked contiguously).
    pub map_tasks: usize,
    /// Number of shuffle partitions == reduce tasks.
    pub partitions: usize,
    /// Directory for the job's spill tree (default: the OS temp dir). Each
    /// run creates a `pid + sequence`-unique subdirectory, so concurrent
    /// runs sharing a spill root never cross-talk.
    pub spill_dir: Option<PathBuf>,
    /// Map-side per-partition buffer bound in bytes (0 = flush only at task
    /// end); workers further tighten it to their budget allotment.
    pub spill_bound: u64,
    /// Fingerprint stamped on every segment file of this job.
    pub fingerprint: u64,
}

impl DistOptions {
    /// Sensible defaults for `workers` workers.
    pub fn for_workers(workers: usize) -> DistOptions {
        let w = workers.max(1);
        DistOptions {
            map_tasks: w * 2,
            partitions: w,
            spill_dir: None,
            spill_bound: 0,
            fingerprint: 0xe12_d157,
        }
    }
}

/// Aggregate statistics of a distributed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Reduce tasks executed.
    pub reduce_tasks: u64,
    /// `(key, value)` pairs emitted by all map tasks.
    pub map_output_records: u64,
    /// Distinct key groups across all reduce tasks.
    pub reduce_groups: u64,
    /// Segment files written.
    pub segments: u64,
    /// Bound-triggered mid-task spills.
    pub spills: u64,
    /// Task attempts retried after typed failures (both stages).
    pub retried: u64,
    /// Speculative backup attempts launched (both stages).
    pub speculated: u64,
    /// Task attempts reassigned after a worker death (subprocess backend).
    pub reassigned: u64,
}

impl DistStats {
    /// Mirrors the run's statistics into the obs registry under the
    /// `mapreduce.*` names, the same on either transport, so
    /// `er-metrics-check` invariants hold regardless of backend.
    pub fn record_obs(&self, obs: &er_core::obs::Obs) {
        obs.counter("mapreduce.map_tasks").add(self.map_tasks);
        obs.counter("mapreduce.reduce_tasks").add(self.reduce_tasks);
        obs.counter("mapreduce.map_output_records")
            .add(self.map_output_records);
        obs.counter("mapreduce.reduce_groups")
            .add(self.reduce_groups);
        obs.counter("mapreduce.tasks_retried").add(self.retried);
        obs.counter("mapreduce.tasks_speculated")
            .add(self.speculated);
        obs.counter("mapreduce.tasks_reassigned")
            .add(self.reassigned);
        obs.counter("mapreduce.partitions_spilled").add(self.spills);
        obs.counter("mapreduce.jobs").incr();
    }
}

/// Result of a distributed run: globally key-sorted output pairs plus stats.
#[derive(Clone, Debug, Default)]
pub struct DistOutput {
    /// `(key, output)` pairs, sorted by key, outputs in emission order.
    pub pairs: Vec<(String, String)>,
    /// Run statistics.
    pub stats: DistStats,
}

/// Removes the job's spill directory on every exit path.
struct JobDirGuard(PathBuf);

impl Drop for JobDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the named job over `inputs` on `transport`.
///
/// Deterministic: for fixed `inputs` and `opts` (task and partition counts),
/// the output pairs are bit-identical across transports, worker counts,
/// retries, speculation, and worker crashes — the in-process transport is
/// the oracle the subprocess backend is property-tested against.
pub fn run_dist(
    transport: &mut dyn Transport,
    job: &str,
    inputs: &[String],
    opts: &DistOptions,
) -> Result<DistOutput, ExecError> {
    if inputs.is_empty() {
        return Ok(DistOutput::default());
    }
    let map_tasks = opts.map_tasks.max(1);
    let partitions = opts.partitions.max(1);
    let base = opts.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!(
        "er-dist-{}-{}",
        std::process::id(),
        DIST_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| ExecError {
        stage: "setup".to_string(),
        task: 0,
        attempts: 0,
        message: format!("cannot create job dir {}: {e}", dir.display()),
    })?;
    let _guard = JobDirGuard(dir.clone());

    // ---- map ---------------------------------------------------------------
    let chunk = inputs.len().div_ceil(map_tasks);
    let map_payloads: Vec<Vec<u8>> = inputs
        .chunks(chunk)
        .map(|c| encode_map_task(partitions, opts.spill_bound, opts.fingerprint, &dir, c))
        .collect();
    let map_out = transport.run_stage(job, "map", &map_payloads)?;
    let mut stats = DistStats {
        map_tasks: map_payloads.len() as u64,
        retried: map_out.retried,
        speculated: map_out.speculated,
        reassigned: map_out.reassigned,
        ..DistStats::default()
    };
    let collect_err = |task: usize, message: String| ExecError {
        stage: "collect".to_string(),
        task,
        attempts: 0,
        message,
    };
    let mut per_partition: Vec<Vec<PathBuf>> = vec![Vec::new(); partitions];
    for (task, payload) in map_out.results.iter().enumerate() {
        let r = decode_map_result(payload).map_err(|m| collect_err(task, m))?;
        stats.map_output_records += r.emitted;
        stats.spills += r.spills;
        stats.segments += r.segments.len() as u64;
        for seg in r.segments {
            if seg.partition >= partitions {
                return Err(collect_err(
                    task,
                    format!("segment for out-of-range partition {}", seg.partition),
                ));
            }
            per_partition[seg.partition].push(seg.path);
        }
    }

    // ---- reduce ------------------------------------------------------------
    let reduce_payloads: Vec<Vec<u8>> = per_partition
        .iter()
        .enumerate()
        .map(|(p, segs)| encode_reduce_task(p, opts.fingerprint, segs))
        .collect();
    let red_out = transport.run_stage(job, "reduce", &reduce_payloads)?;
    stats.reduce_tasks = reduce_payloads.len() as u64;
    stats.retried += red_out.retried;
    stats.speculated += red_out.speculated;
    stats.reassigned += red_out.reassigned;

    let mut pairs: Vec<(String, String)> = Vec::new();
    for (task, payload) in red_out.results.iter().enumerate() {
        let r = decode_reduce_result(payload).map_err(|m| collect_err(task, m))?;
        stats.reduce_groups += r.groups;
        pairs.extend(r.pairs);
    }
    // Partitions hold disjoint key sets and each arrives key-sorted; a stable
    // sort by key yields the global key order while preserving each key's
    // emission order.
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(DistOutput { pairs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcessTransport;
    use er_core::fault::ExecPolicy;

    fn wc_inputs() -> Vec<String> {
        vec![
            "the quick brown fox".to_string(),
            "jumps over the lazy dog".to_string(),
            "the dog barks".to_string(),
            "quick quick slow".to_string(),
        ]
    }

    #[test]
    fn wordcount_matches_reference_counts() {
        let mut t = InProcessTransport::new(3, default_registry(), ExecPolicy::default());
        let out = run_dist(
            &mut t,
            "wordcount",
            &wc_inputs(),
            &DistOptions::for_workers(3),
        )
        .unwrap();
        let get = |k: &str| {
            out.pairs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(get("the"), Some("3"));
        assert_eq!(get("quick"), Some("3"));
        assert_eq!(get("dog"), Some("2"));
        assert_eq!(get("fox"), Some("1"));
        let mut keys: Vec<&str> = out.pairs.iter().map(|(k, _)| k.as_str()).collect();
        let sorted = keys.clone();
        keys.sort_unstable();
        assert_eq!(keys, sorted, "driver output must be key-sorted");
        assert_eq!(out.stats.map_output_records, 15);
    }

    #[test]
    fn output_is_identical_across_worker_and_task_counts() {
        let reference = {
            let mut t = InProcessTransport::new(1, default_registry(), ExecPolicy::default());
            run_dist(
                &mut t,
                "wordcount",
                &wc_inputs(),
                &DistOptions {
                    map_tasks: 2,
                    partitions: 2,
                    ..DistOptions::for_workers(1)
                },
            )
            .unwrap()
            .pairs
        };
        for workers in [2usize, 4] {
            for (mt, parts) in [(1usize, 1usize), (3, 2), (4, 4)] {
                let mut t =
                    InProcessTransport::new(workers, default_registry(), ExecPolicy::default());
                let out = run_dist(
                    &mut t,
                    "wordcount",
                    &wc_inputs(),
                    &DistOptions {
                        map_tasks: mt,
                        partitions: parts,
                        ..DistOptions::for_workers(workers)
                    },
                )
                .unwrap();
                assert_eq!(
                    out.pairs, reference,
                    "workers={workers} mt={mt} parts={parts}"
                );
            }
        }
    }

    #[test]
    fn spill_bound_changes_segments_not_output() {
        let unbounded = {
            let mut t = InProcessTransport::new(2, default_registry(), ExecPolicy::default());
            run_dist(
                &mut t,
                "wordcount",
                &wc_inputs(),
                &DistOptions::for_workers(2),
            )
            .unwrap()
        };
        let tiny = {
            let mut t = InProcessTransport::new(2, default_registry(), ExecPolicy::default());
            run_dist(
                &mut t,
                "wordcount",
                &wc_inputs(),
                &DistOptions {
                    spill_bound: 1,
                    ..DistOptions::for_workers(2)
                },
            )
            .unwrap()
        };
        assert_eq!(unbounded.pairs, tiny.pairs);
        assert!(tiny.stats.spills > 0, "1-byte bound must force spills");
    }

    /// `key=value` pairs split on `;`; keys and values hold tabs, newlines,
    /// carriage returns, backslashes and non-ASCII text. Reduce emits one output per value plus one
    /// joining them, so value order within a key shows in the output.
    struct EscapingJob;

    impl DistJob for EscapingJob {
        fn map(&self, record: &str, emit: &mut dyn FnMut(&str, &str)) {
            for (k, v) in record.split(';').filter_map(|pair| pair.split_once('=')) {
                emit(k, v);
            }
        }

        fn reduce(&self, key: &str, values: &[&str]) -> Vec<String> {
            let mut out: Vec<String> = values.iter().map(|v| format!("{key}->{v}")).collect();
            out.push(values.join("|"));
            out
        }
    }

    /// A draw in `0..n` from a 64-bit LCG.
    fn lcg(x: &mut u64, n: u64) -> usize {
        *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        ((*x >> 33) % n) as usize
    }

    /// Up to `max - 1` symbols, each plain, a control or escape character, or
    /// non-ASCII.
    fn text(x: &mut u64, max: u64) -> String {
        const ALPHABET: [&str; 9] = ["a", "b", "\t", "\n", "\r", "\\", "é", "日本", " "];
        (0..lcg(x, max)).map(|_| ALPHABET[lcg(x, 9)]).collect()
    }

    fn escaping_inputs() -> Vec<String> {
        let mut x: u64 = 0x5eed;
        (0..60)
            .map(|_| {
                let pairs: Vec<String> = (0..=lcg(&mut x, 4))
                    .map(|_| format!("{}={}", text(&mut x, 3), text(&mut x, 5)))
                    .collect();
                pairs.join(";")
            })
            .collect()
    }

    #[test]
    fn escaped_keys_and_values_match_a_serial_group_by() {
        let inputs = escaping_inputs();
        let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for record in &inputs {
            EscapingJob.map(record, &mut |k, v| {
                groups.entry(k.to_string()).or_default().push(v.to_string());
            });
        }
        let mut expected = Vec::new();
        for (key, values) in &groups {
            let values: Vec<&str> = values.iter().map(String::as_str).collect();
            for output in EscapingJob.reduce(key, &values) {
                expected.push((key.clone(), output));
            }
        }
        assert!(expected
            .iter()
            .any(|(k, _)| k.contains(['\t', '\n', '\r', '\\'])));
        let mut registry = default_registry();
        registry.register("escaping", Arc::new(EscapingJob));
        for workers in [1usize, 2, 4] {
            for spill_bound in [0u64, 1, 256] {
                let mut t =
                    InProcessTransport::new(workers, registry.clone(), ExecPolicy::default());
                let opts = DistOptions {
                    spill_bound,
                    ..DistOptions::for_workers(workers)
                };
                let out = run_dist(&mut t, "escaping", &inputs, &opts).unwrap();
                assert_eq!(
                    out.pairs, expected,
                    "workers={workers} spill_bound={spill_bound}"
                );
                assert_eq!(out.stats.reduce_groups, groups.len() as u64);
            }
        }
    }

    #[test]
    fn token_blocking_drops_singletons_and_orders_by_token() {
        let inputs = vec![
            "0\talpha\tbeta".to_string(),
            "1\tbeta\tgamma".to_string(),
            "2\talpha\tdelta".to_string(),
        ];
        let mut t = InProcessTransport::new(2, default_registry(), ExecPolicy::default());
        let out = run_dist(
            &mut t,
            "token-blocking",
            &inputs,
            &DistOptions::for_workers(2),
        )
        .unwrap();
        assert_eq!(
            out.pairs,
            vec![
                ("alpha".to_string(), "0 2".to_string()),
                ("beta".to_string(), "0 1".to_string()),
            ]
        );
    }

    #[test]
    fn job_dir_is_removed_after_the_run() {
        let base = std::env::temp_dir().join(format!("er-dist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let mut t = InProcessTransport::new(2, default_registry(), ExecPolicy::default());
        run_dist(
            &mut t,
            "wordcount",
            &wc_inputs(),
            &DistOptions {
                spill_dir: Some(base.clone()),
                ..DistOptions::for_workers(2)
            },
        )
        .unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "job dir must be cleaned: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    /// In-process transport that cuts the first segment of the first map
    /// task to `keep(bytes)` bytes before the reduce stage reads it.
    struct Truncating {
        inner: InProcessTransport,
        keep: fn(&[u8]) -> usize,
        partition: Option<usize>,
    }

    impl Transport for Truncating {
        fn run_stage(
            &mut self,
            job: &str,
            stage: &str,
            payloads: &[Vec<u8>],
        ) -> Result<crate::transport::StageOutput, ExecError> {
            let out = self.inner.run_stage(job, stage, payloads)?;
            if stage == "map" {
                let seg = decode_map_result(&out.results[0]).unwrap().segments[0].clone();
                let bytes = std::fs::read(&seg.path).unwrap();
                std::fs::write(&seg.path, &bytes[..(self.keep)(&bytes)]).unwrap();
                self.partition = Some(seg.partition);
            }
            Ok(out)
        }
    }

    #[test]
    fn truncated_segment_is_a_typed_reduce_error_naming_the_truncation() {
        use er_core::colstore::{FOOTER_LEN, HEADER_LEN};
        let cuts: [fn(&[u8]) -> usize; 3] = [
            // Part of the footer, the whole footer, everything past the header.
            |b| b.len() - 2,
            |b| b.len() - FOOTER_LEN as usize,
            |_| HEADER_LEN as usize,
        ];
        for keep in cuts {
            let mut t = Truncating {
                inner: InProcessTransport::new(
                    2,
                    default_registry(),
                    ExecPolicy::retrying(er_core::fault::RetryPolicy::attempts(2)),
                ),
                keep,
                partition: None,
            };
            let err = run_dist(
                &mut t,
                "wordcount",
                &wc_inputs(),
                &DistOptions::for_workers(2),
            )
            .expect_err("a truncated segment must fail the run, never yield pairs");
            assert_eq!(err.stage, "reduce", "{err}");
            assert_eq!(Some(err.task), t.partition, "{err}");
            assert_eq!(err.attempts, 2, "{err}");
            assert!(err.message.contains("shuffle segment"), "{err}");
            assert!(err.message.contains("truncated at byte"), "{err}");
        }
    }

    #[test]
    fn unknown_job_is_a_typed_error() {
        let mut t = InProcessTransport::new(1, default_registry(), ExecPolicy::default());
        let err = run_dist(
            &mut t,
            "no-such-job",
            &wc_inputs(),
            &DistOptions::for_workers(1),
        )
        .unwrap_err();
        assert!(err.message.contains("unknown job"), "{err}");
    }
}
