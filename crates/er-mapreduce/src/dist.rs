//! Transport-agnostic distributed jobs: payload codec, task runner, driver.
//!
//! The multi-process backend cannot ship closures to a child process, so
//! distributable jobs are *named*: a [`TaskRegistry`] maps a job name to a
//! [`DistJob`] implementation, and every task is an opaque string payload the
//! worker decodes with [`run_task`]. Both transports execute the exact same
//! `run_task` bytes — the in-process transport calls it on a thread, the
//! subprocess transport calls it inside `er --worker` — so the in-process
//! backend remains the bit-exactness oracle for the multi-process one.
//!
//! The data plane is the spill-file format of PR 4 promoted to first class:
//! every map task writes its partitioned output to fingerprinted
//! [`LineCodec`] segment files and returns only the manifest (partition,
//! record count, path); reduce tasks stream the segments back in mapper
//! order. Payloads and results never carry bulk data, so frames stay small
//! and a killed worker leaves at most an unreferenced segment file behind.

use crate::engine::{partition_of, ExecError};
use crate::transport::Transport;
use er_core::codec::{escape, unescape, LineCodec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic word of distributed shuffle segment files.
pub const DIST_MAGIC: &str = "er-dist";
/// Format version of distributed shuffle segment files.
pub const DIST_VERSION: &str = "v1";

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
    fn map(&self, record: &str, emit: &mut dyn FnMut(String, String));
    /// Reduces one key group. `values` arrive in deterministic mapper order.
    fn reduce(&self, key: &str, values: &[String]) -> Vec<String>;
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
    fn map(&self, record: &str, emit: &mut dyn FnMut(String, String)) {
        for word in record.split_whitespace() {
            emit(word.to_string(), "1".to_string());
        }
    }

    fn reduce(&self, _key: &str, values: &[String]) -> Vec<String> {
        let total: u64 = values.iter().filter_map(|v| v.parse::<u64>().ok()).sum();
        vec![total.to_string()]
    }
}

/// Dedoop-style token blocking over pre-tokenized entities.
///
/// Input record: `entity_id \t token \t token …` (the entity's distinct
/// tokens). Emits one `(token, entity_id)` posting per token; the reducer
/// keeps groups of ≥ 2 entities (singleton blocks produce no comparisons)
/// and outputs the entity ids joined by spaces, in arrival order — which is
/// ascending entity order when the driver feeds entities in id order.
pub struct TokenBlockingJob;

impl DistJob for TokenBlockingJob {
    fn map(&self, record: &str, emit: &mut dyn FnMut(String, String)) {
        let mut fields = record.split('\t');
        let Some(id) = fields.next() else { return };
        for token in fields {
            if !token.is_empty() {
                emit(token.to_string(), id.to_string());
            }
        }
    }

    fn reduce(&self, _key: &str, values: &[String]) -> Vec<String> {
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
// A payload is a multi-line string: a tab-separated header line, then one
// escaped record (map) or segment path (reduce) per line. The frame layer
// escapes the payload as a whole, so nesting is safe.

/// Builds a map-task payload.
pub fn encode_map_task(
    partitions: usize,
    spill_bound: u64,
    fingerprint: u64,
    dir: &Path,
    records: &[String],
) -> String {
    let mut out = format!(
        "m\t{partitions}\t{spill_bound}\t{fingerprint:016x}\t{}",
        escape(&dir.display().to_string())
    );
    for r in records {
        out.push('\n');
        out.push_str(&escape(r));
    }
    out
}

/// Builds a reduce-task payload.
pub fn encode_reduce_task(partition: usize, fingerprint: u64, segments: &[String]) -> String {
    let mut out = format!("r\t{partition}\t{fingerprint:016x}");
    for s in segments {
        out.push('\n');
        out.push_str(&escape(s));
    }
    out
}

/// One segment a map task wrote: `(partition, records, path)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentRef {
    /// Partition the segment belongs to.
    pub partition: usize,
    /// Records in the segment.
    pub records: u64,
    /// Segment file path.
    pub path: String,
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
pub fn decode_map_result(payload: &str) -> Result<MapResult, String> {
    let mut lines = payload.lines();
    let header = lines.next().unwrap_or("");
    let mut f = header.split('\t');
    if f.next() != Some("map") {
        return Err(format!("bad map result header: {header:?}"));
    }
    let emitted = parse_field(f.next(), "emitted")?;
    let spills = parse_field(f.next(), "spills")?;
    let mut segments = Vec::new();
    for line in lines {
        let mut f = line.split('\t');
        segments.push(SegmentRef {
            partition: parse_field(f.next(), "partition")? as usize,
            records: parse_field(f.next(), "records")?,
            path: unescape(f.next().ok_or("missing segment path")?)?,
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
pub fn decode_reduce_result(payload: &str) -> Result<ReduceResult, String> {
    let mut lines = payload.lines();
    let header = lines.next().unwrap_or("");
    let mut f = header.split('\t');
    if f.next() != Some("red") {
        return Err(format!("bad reduce result header: {header:?}"));
    }
    let groups = parse_field(f.next(), "groups")?;
    let mut pairs = Vec::new();
    for line in lines {
        let (k, v) = line
            .split_once('\t')
            .ok_or_else(|| format!("bad reduce output line: {line:?}"))?;
        pairs.push((unescape(k)?, unescape(v)?));
    }
    Ok(ReduceResult { groups, pairs })
}

fn parse_field(field: Option<&str>, what: &str) -> Result<u64, String> {
    field
        .ok_or_else(|| format!("missing {what}"))?
        .parse::<u64>()
        .map_err(|_| format!("bad {what}: {field:?}"))
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
    payload: &str,
    budget_bytes: u64,
) -> Result<String, String> {
    let j = registry
        .get(job)
        .ok_or_else(|| format!("unknown job {job:?} (registered: {:?})", registry.names()))?;
    match stage {
        "map" => run_map_task(j.as_ref(), payload, budget_bytes),
        "reduce" => run_reduce_task(j.as_ref(), payload),
        other => Err(format!("unknown stage {other:?}")),
    }
}

fn run_map_task(job: &dyn DistJob, payload: &str, budget_bytes: u64) -> Result<String, String> {
    let mut lines = payload.lines();
    let header = lines.next().unwrap_or("");
    let mut f = header.split('\t');
    if f.next() != Some("m") {
        return Err(format!("bad map task header: {header:?}"));
    }
    let partitions = parse_field(f.next(), "partitions")? as usize;
    let spill_bound = parse_field(f.next(), "spill_bound")?;
    let fingerprint = parse_hex(f.next())?;
    let dir = PathBuf::from(unescape(f.next().ok_or("missing spill dir")?)?);
    if partitions == 0 {
        return Err("map task with zero partitions".to_string());
    }
    // The worker's budget allotment tightens the configured bound.
    let bound = match (spill_bound, budget_bytes) {
        (0, b) => b,
        (a, 0) => a,
        (a, b) => a.min(b),
    };
    let codec = LineCodec::new(DIST_MAGIC, DIST_VERSION, fingerprint);

    let mut buffers: Vec<Vec<String>> = vec![Vec::new(); partitions];
    let mut buffer_bytes: Vec<u64> = vec![0; partitions];
    let mut emitted: u64 = 0;
    let mut spills: u64 = 0;
    let mut segments: Vec<SegmentRef> = Vec::new();

    let flush =
        |p: usize, buf: &mut Vec<String>, segments: &mut Vec<SegmentRef>| -> Result<(), String> {
            if buf.is_empty() {
                return Ok(());
            }
            let seq = DIST_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("seg-{}-{seq}-p{p}.lines", std::process::id()));
            let n = buf.len() as u64;
            codec
                .write_atomic(
                    &path,
                    "shuffle",
                    &format!(" part={p} records={n}"),
                    buf.drain(..),
                )
                .map_err(|e| format!("cannot write segment {}: {e}", path.display()))?;
            segments.push(SegmentRef {
                partition: p,
                records: n,
                path: path.display().to_string(),
            });
            Ok(())
        };

    for line in lines {
        let record = unescape(line)?;
        let mut pending: Vec<(usize, String, u64)> = Vec::new();
        job.map(&record, &mut |k, v| {
            let p = partition_of(&k, partitions);
            let bytes = (k.len() + v.len()) as u64;
            pending.push((p, format!("{}\t{}", escape(&k), escape(&v)), bytes));
        });
        for (p, encoded, bytes) in pending {
            emitted += 1;
            buffers[p].push(encoded);
            buffer_bytes[p] += bytes;
            if bound > 0 && buffer_bytes[p] > bound {
                flush(p, &mut buffers[p], &mut segments)?;
                buffer_bytes[p] = 0;
                spills += 1;
            }
        }
    }
    for (p, buf) in buffers.iter_mut().enumerate() {
        flush(p, buf, &mut segments)?;
    }

    let mut out = format!("map\t{emitted}\t{spills}");
    for s in &segments {
        out.push_str(&format!(
            "\n{}\t{}\t{}",
            s.partition,
            s.records,
            escape(&s.path)
        ));
    }
    Ok(out)
}

fn run_reduce_task(job: &dyn DistJob, payload: &str) -> Result<String, String> {
    let mut lines = payload.lines();
    let header = lines.next().unwrap_or("");
    let mut f = header.split('\t');
    if f.next() != Some("r") {
        return Err(format!("bad reduce task header: {header:?}"));
    }
    let _partition = parse_field(f.next(), "partition")?;
    let fingerprint = parse_hex(f.next())?;
    let codec = LineCodec::new(DIST_MAGIC, DIST_VERSION, fingerprint);

    // Replay segments in manifest (mapper) order; group preserving first-seen
    // arrival order of values, then reduce keys in sorted order so the output
    // is independent of partition count and worker schedule.
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in lines {
        let path = PathBuf::from(unescape(line)?);
        let (_, body) = codec
            .read(&path, "shuffle")
            .map_err(|e| format!("segment {}: {e}", path.display()))?
            .ok_or_else(|| format!("segment {} vanished", path.display()))?;
        for row in body {
            let (ek, ev) = row
                .split_once('\t')
                .ok_or_else(|| format!("bad segment row in {}: {row:?}", path.display()))?;
            groups.entry(unescape(ek)?).or_default().push(unescape(ev)?);
        }
    }

    let mut out = format!("red\t{}", groups.len());
    for (key, values) in &groups {
        for output in job.reduce(key, values) {
            out.push_str(&format!("\n{}\t{}", escape(key), escape(&output)));
        }
    }
    Ok(out)
}

fn parse_hex(field: Option<&str>) -> Result<u64, String> {
    let hex = field.ok_or("missing fingerprint")?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("bad fingerprint: {hex:?}"))
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
    /// Mirrors the run's statistics into the obs registry under the same
    /// names the in-process engine uses, so `er-metrics-check` invariants
    /// hold regardless of backend.
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
    let map_payloads: Vec<String> = inputs
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
    let mut per_partition: Vec<Vec<String>> = vec![Vec::new(); partitions];
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
    let reduce_payloads: Vec<String> = per_partition
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
            payloads: &[String],
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
        let cuts: [fn(&[u8]) -> usize; 3] = [
            // Half the footer line, the whole footer line, the whole body.
            |b| b.len() - 2,
            |b| b.len() - 4,
            |b| b.iter().position(|&c| c == b'\n').map_or(0, |i| i + 1),
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
            assert!(err.message.contains("truncated er-dist"), "{err}");
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
