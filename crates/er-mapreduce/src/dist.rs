//! Transport-agnostic distributed blocking: payload codec, task runner,
//! job walk.
//!
//! The multi-process backend cannot ship closures to a child process, so the
//! job is *named* ([`KEY_TRANSPOSE`]) and every task is an opaque byte
//! payload (an [`er_core::wire`] record) the worker decodes with
//! [`run_task`]. Both transports execute the exact same `run_task` bytes —
//! the in-process transport calls it on a thread, the subprocess transport
//! calls it inside `er --worker` — so the in-process backend remains the
//! bit-exactness oracle for the multi-process one.
//!
//! The one job is the symbol transpose, driven by [`run_key_transpose`]: the
//! blocks of a family's [`KeyRows`]. Map tasks carry rows as `u32` symbols —
//! the vocabulary never travels — partition each posting by **symbol range**
//! and write each partition's postings as key-sorted `(Symbol, EntityId)`
//! runs, colstore's `KIND_POSTINGS` segment record. Each
//! reduce counting-sorts its range into `(symbol, members)` blocks; ranges
//! are disjoint and ascending, so the coordinator concatenates them in
//! partition order. [`run_dist`] is a thin adapter that runs string records
//! through the same job.
//!
//! The shuffle never rides in frames — though a map payload carries its
//! input rows inline and a reduce result its blocks — so a killed worker
//! leaves at most an unreferenced segment file behind.

use crate::engine::ExecError;
use crate::transport::Transport;
use er_core::colstore::{Posting, Segment, SegmentError, SegmentWriter, POSTING_BYTES};
use er_core::entity::EntityId;
use er_core::intern::{Interner, Symbol};
use er_core::profiles::KeyRows;
use er_core::wire::{put_bytes, put_u32, put_u64, Decoder, WireError};
use std::ffi::OsStr;
use std::ops::Range;
use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique sequence for job directories and segment files; combined
/// with the pid, two concurrent runs can never collide on a path.
static DIST_SEQ: AtomicU64 = AtomicU64::new(0);

/// The name of the one job [`run_task`] runs, and [`run_key_transpose`]
/// sends.
pub const KEY_TRANSPOSE: &str = "key-transpose";

/// Kept only because `bench/` names it; delete with ROADMAP direction 1.
/// Workers know the one job [`KEY_TRANSPOSE`] and need no registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskRegistry;

/// Kept only because `bench/` names it; delete with ROADMAP direction 1.
pub fn default_registry() -> TaskRegistry {
    TaskRegistry
}

// ---------------------------------------------------------------------------
// Task payloads
// ---------------------------------------------------------------------------
//
// A payload is a one-byte tag, header fields, then zero or more records, all
// in the `er_core::wire` codec; records run to the end of the payload. Paths
// travel as their OS bytes.
//
// Map task: partitions, spill bound, fingerprint, job dir, the vocabulary
// length, then one record per entity — `entity u32, len u32, len × symbol
// u32`. Map result: emission and spill counts, then the manifest. Reduce
// task: partition, fingerprint, the symbol range `lo..hi` (two `u64`s), then
// segment paths. Reduce result: the count of distinct symbols seen, then one
// record per symbol with ≥ 2 members, ascending — `symbol u32, count u32,
// count × entity u32`, members ascending.

const MAP_TASK: u8 = b't';
const REDUCE_TASK: u8 = b'u';
const MAP_RESULT: u8 = b'M';
const REDUCE_RESULT: u8 = b'B';

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
    /// `(symbol, entity)` postings the task emitted.
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

/// Runs one task attempt: decodes `payload`, executes the map or reduce of
/// [`KEY_TRANSPOSE`] — the only job there is; any other name is an error —
/// and encodes the result payload. Pure up to segment file names, which are
/// process-unique but never appear in reduce output.
///
/// `budget_bytes` is the worker's negotiated memory allotment (0 =
/// unlimited); it tightens the map-side spill bound so a worker never
/// buffers more shuffle bytes than its share of the job budget.
pub fn run_task(
    job: &str,
    stage: &str,
    payload: &[u8],
    budget_bytes: u64,
) -> Result<Vec<u8>, String> {
    if job != KEY_TRANSPOSE {
        return Err(format!(
            "unknown job {job:?}: workers run only {KEY_TRANSPOSE:?}"
        ));
    }
    match stage {
        "map" => run_transpose_map(payload, budget_bytes),
        "reduce" => run_transpose_reduce(payload),
        other => Err(format!("unknown stage {other:?}")),
    }
}

/// The map header fields, as [`encode_transpose_map_task`] wrote them.
struct MapHeader {
    partitions: usize,
    /// The configured spill bound tightened by the worker's allotment.
    bound: u64,
    fingerprint: u64,
    dir: PathBuf,
}

impl MapHeader {
    fn decode(d: &mut Decoder<'_>, budget_bytes: u64) -> Result<MapHeader, String> {
        let header = |e: WireError| format!("bad map task header: {e}");
        let partitions = d.usize().map_err(header)?;
        let spill_bound = d.u64().map_err(header)?;
        let fingerprint = d.u64().map_err(header)?;
        let dir = path(d).map_err(header)?;
        if partitions == 0 {
            return Err("map task with zero partitions".to_string());
        }
        // The worker's budget allotment tightens the configured bound.
        let bound = match (spill_bound, budget_bytes) {
            (0, b) => b,
            (a, 0) => a,
            (a, b) => a.min(b),
        };
        Ok(MapHeader {
            partitions,
            bound,
            fingerprint,
            dir,
        })
    }

    /// Writes `run` as one segment of partition `p` and adds it to
    /// `segments`.
    fn segment(
        &self,
        p: usize,
        segments: &mut Vec<SegmentRef>,
        run: &[Posting],
    ) -> Result<(), String> {
        let seq = DIST_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("seg-{}-{seq}-p{p}.seg", std::process::id()));
        let mut w = SegmentWriter::create(&path, self.fingerprint).map_err(|e| e.to_string())?;
        w.run(run).map_err(|e| e.to_string())?;
        w.finish().map_err(|e| e.to_string())?;
        segments.push(SegmentRef { partition: p, path });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The symbol transpose (`key-transpose`)
// ---------------------------------------------------------------------------

/// One block of the transpose: a symbol and its members, ascending.
pub type SymbolBlock = (Symbol, Vec<EntityId>);

/// The partition of symbol `s` among `partitions` ranges of a `vocab`-key
/// vocabulary: `s · partitions / vocab`, so partition `p` holds the symbols
/// of [`symbol_range`]`(p, …)` and ascending partitions hold ascending
/// symbols.
fn symbol_partition(s: u32, partitions: usize, vocab: u64) -> usize {
    (u128::from(s) * partitions as u128 / u128::from(vocab)) as usize
}

/// The symbols partition `p` of `partitions` holds:
/// `⌈p · vocab / partitions⌉ .. ⌈(p + 1) · vocab / partitions⌉`.
fn symbol_range(p: usize, partitions: usize, vocab: u64) -> Range<u64> {
    let start = |p: usize| {
        let n = partitions as u128;
        ((p as u128 * u128::from(vocab)).div_ceil(n)) as u64
    };
    start(p)..start(p + 1)
}

/// Builds a `key-transpose` map-task payload over the rows of `entities`.
pub fn encode_transpose_map_task(
    partitions: usize,
    spill_bound: u64,
    fingerprint: u64,
    dir: &Path,
    rows: &KeyRows,
    entities: Range<usize>,
) -> Vec<u8> {
    let mut out = vec![MAP_TASK];
    put_u64(&mut out, partitions as u64);
    put_u64(&mut out, spill_bound);
    put_u64(&mut out, fingerprint);
    put_bytes(&mut out, dir.as_os_str().as_bytes());
    put_u64(&mut out, rows.vocabulary().len() as u64);
    for e in entities {
        let row = rows.symbols(EntityId(e as u32));
        put_u32(&mut out, e as u32);
        put_u32(&mut out, row.len() as u32);
        for s in row {
            put_u32(&mut out, s.0);
        }
    }
    out
}

/// Builds a `key-transpose` reduce-task payload for the symbols `range`.
fn encode_transpose_reduce_task(
    partition: usize,
    fingerprint: u64,
    range: Range<u64>,
    segments: &[PathBuf],
) -> Vec<u8> {
    let mut out = vec![REDUCE_TASK];
    put_u64(&mut out, partition as u64);
    put_u64(&mut out, fingerprint);
    put_u64(&mut out, range.start);
    put_u64(&mut out, range.end);
    for s in segments {
        put_bytes(&mut out, s.as_os_str().as_bytes());
    }
    out
}

/// The transpose map: every posting `(symbol, entity)` of the task's rows
/// goes to its symbol range's buffer; a buffer that outgrows the spill bound
/// (charged at the posting's 8 bytes) is flushed as a sorted run, and every
/// buffer is at the end.
fn run_transpose_map(payload: &[u8], budget_bytes: u64) -> Result<Vec<u8>, String> {
    let mut d = tagged(payload, MAP_TASK, "map task")?;
    let h = MapHeader::decode(&mut d, budget_bytes)?;
    let vocab = d.u64().map_err(|e| format!("bad map task header: {e}"))?;

    let mut buffers: Vec<Vec<Posting>> = vec![Vec::new(); h.partitions];
    let mut emitted: u64 = 0;
    let mut spills: u64 = 0;
    let mut segments: Vec<SegmentRef> = Vec::new();
    let flush = |p: usize, run: &mut Vec<Posting>, segments: &mut Vec<SegmentRef>| {
        run.sort_unstable();
        h.segment(p, segments, run)?;
        run.clear();
        Ok::<(), String>(())
    };

    let bad = |e: WireError| format!("bad map task record: {e}");
    while !d.is_empty() {
        let entity = EntityId(d.u32().map_err(bad)?);
        let len = d.u32().map_err(bad)?;
        for _ in 0..len {
            let at = d.offset();
            let s = d.u32().map_err(bad)?;
            if u64::from(s) >= vocab {
                return Err(format!(
                    "bad map task record at byte {at}: symbol {s} of entity {} is outside \
                     the {vocab}-key vocabulary",
                    entity.0
                ));
            }
            let p = symbol_partition(s, h.partitions, vocab);
            let run = &mut buffers[p];
            run.push((Symbol(s), entity));
            emitted += 1;
            if h.bound > 0 && (run.len() * POSTING_BYTES) as u64 > h.bound {
                flush(p, run, &mut segments)?;
                spills += 1;
            }
        }
    }
    for (p, run) in buffers.iter_mut().enumerate() {
        if !run.is_empty() {
            flush(p, run, &mut segments)?;
        }
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

/// The transpose reduce: the range's runs in mapper order, counting-sorted
/// by symbol. Mappers hold ascending entity chunks and each run is sorted,
/// so every symbol's members arrive ascending; the reduce checks that
/// rather than trusting it.
fn run_transpose_reduce(payload: &[u8]) -> Result<Vec<u8>, String> {
    let header = |e: WireError| format!("bad reduce task header: {e}");
    let mut d = tagged(payload, REDUCE_TASK, "reduce task")?;
    let _partition = d.u64().map_err(header)?;
    let fingerprint = d.u64().map_err(header)?;
    let lo = d.u64().map_err(header)?;
    let hi = d.u64().map_err(header)?;
    if lo > hi || hi > 1 << 32 {
        return Err(format!("bad reduce task header: symbol range {lo}..{hi}"));
    }

    let mut postings: Vec<Posting> = Vec::new();
    while !d.is_empty() {
        let path = path(&mut d).map_err(|e| format!("bad reduce task segment path: {e}"))?;
        let shuffle = |e: SegmentError| format!("shuffle {e}");
        let seg = Segment::open(&path, fingerprint).map_err(shuffle)?;
        for section in 0..seg.sections().len() {
            let mut run = seg.run(section).map_err(shuffle)?;
            while let Some((s, e)) = run.next().map_err(shuffle)? {
                if !(lo..hi).contains(&u64::from(s.0)) {
                    return Err(format!(
                        "shuffle segment {}: posting ({}, {}) is outside this reduce's \
                         symbol range {lo}..{hi}",
                        path.display(),
                        s.0,
                        e.0
                    ));
                }
                postings.push((s, e));
            }
        }
    }

    // Counting sort: `start[k]..start[k + 1]` are the members of symbol
    // `lo + k`, placed in arrival order.
    let width = if postings.is_empty() {
        0
    } else {
        (hi - lo) as usize
    };
    let mut start = vec![0u32; width + 1];
    let mut groups: u64 = 0;
    for (s, _) in &postings {
        let count = &mut start[(u64::from(s.0) - lo) as usize + 1];
        groups += u64::from(*count == 0);
        *count += 1;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut next = start.clone();
    let mut members = vec![EntityId(0); postings.len()];
    for (s, e) in postings {
        let slot = &mut next[(u64::from(s.0) - lo) as usize];
        members[*slot as usize] = e;
        *slot += 1;
    }

    let mut out = vec![REDUCE_RESULT];
    put_u64(&mut out, groups);
    for (k, bounds) in start.windows(2).enumerate() {
        let block = &members[bounds[0] as usize..bounds[1] as usize];
        if block.len() < 2 {
            continue;
        }
        let symbol = lo as u32 + k as u32;
        if let Some(w) = block.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "shuffle postings of symbol {symbol}: entity {} arrived after entity {}",
                w[1].0, w[0].0
            ));
        }
        put_u32(&mut out, symbol);
        put_u32(&mut out, block.len() as u32);
        for e in block {
            put_u32(&mut out, e.0);
        }
    }
    Ok(out)
}

/// Parses a `key-transpose` reduce result for the symbols `range` of an
/// `entities`-row input: the distinct symbols the reduce saw, and its
/// blocks. Every block must hold ≥ 2 members, ascending and below
/// `entities`, and symbols must ascend inside `range`.
fn decode_transpose_result(
    payload: &[u8],
    range: Range<u64>,
    entities: usize,
) -> Result<(u64, Vec<SymbolBlock>), String> {
    let bad = |e: WireError| format!("bad reduce result: {e}");
    let invalid = |at: u64, reason: String| bad(WireError::invalid(at, reason));
    let mut d = tagged(payload, REDUCE_RESULT, "reduce result")?;
    let groups = d.u64().map_err(bad)?;
    let mut blocks: Vec<SymbolBlock> = Vec::new();
    while !d.is_empty() {
        let at = d.offset();
        let left = payload.len() as u64 - at;
        if left < 8 {
            return Err(invalid(
                at,
                format!("{left} trailing byte(s) after the last block"),
            ));
        }
        let s = d.u32().map_err(bad)?;
        let after = blocks
            .last()
            .map_or(range.start, |(p, _)| u64::from(p.0) + 1);
        if !(after..range.end).contains(&u64::from(s)) {
            return Err(invalid(
                at,
                format!("symbol {s} out of order (expected {after}..{})", range.end),
            ));
        }
        let at = d.offset();
        let count = d.u32().map_err(bad)?;
        if count < 2 {
            return Err(invalid(at, format!("symbol {s} has {count} member(s)")));
        }
        let mut members = Vec::with_capacity((count as usize).min(payload.len() / 4));
        for _ in 0..count {
            let at = d.offset();
            let e = d.u32().map_err(bad)?;
            let after = members.last().map_or(0, |p: &EntityId| u64::from(p.0) + 1);
            if u64::from(e) < after || e as usize >= entities {
                return Err(invalid(
                    at,
                    format!("member {e} of symbol {s} out of order or past {entities} entities"),
                ));
            }
            members.push(EntityId(e));
        }
        blocks.push((Symbol(s), members));
    }
    Ok((groups, blocks))
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
    /// `(symbol, entity)` postings emitted by all map tasks.
    pub map_output_records: u64,
    /// Distinct symbols across all reduce tasks.
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

/// Removes the job's spill directory on every exit path.
struct JobDirGuard(PathBuf);

impl Drop for JobDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A result the coordinator could not accept.
fn collect_err(task: usize, message: String) -> ExecError {
    ExecError {
        stage: "collect".to_string(),
        task,
        attempts: 0,
        message,
    }
}

/// Result of a [`run_key_transpose`]: the blocks as symbols, plus stats.
#[derive(Clone, Debug, Default)]
pub struct TransposeOutput {
    /// One `(symbol, members)` block per symbol at least two rows share,
    /// symbols ascending, members ascending.
    pub blocks: Vec<SymbolBlock>,
    /// Run statistics (`reduce_groups` counts distinct symbols).
    pub stats: DistStats,
}

/// The transpose of `rows` as the distributed [`KEY_TRANSPOSE`] job on
/// `transport`: every symbol at least two rows share, with its rows' entity
/// ids — the blocks of `er_blocking::block::blocks_from_profiles` before
/// their keys are rendered.
///
/// The job walk: a fresh job directory, removed on every exit path; the map
/// stage over contiguous chunks of rows, so members arrive in entity order;
/// the map results' manifests collected per partition; and the reduce stage
/// over each partition's segments, in mapper order. Partitions are
/// ascending symbol ranges, so concatenating the reduce results in
/// partition order is symbol order — which is key order, the vocabulary
/// being sorted. Deterministic: for fixed `rows` and `opts` the output is
/// bit-identical across transports, worker, task and partition counts,
/// spill bounds, retries, speculation and worker crashes — the in-process
/// transport is the oracle the subprocess backend is property-tested
/// against.
pub fn run_key_transpose(
    transport: &mut dyn Transport,
    rows: &KeyRows,
    opts: &DistOptions,
) -> Result<TransposeOutput, ExecError> {
    let vocab = rows.vocabulary().len() as u64;
    if rows.is_empty() || vocab == 0 {
        return Ok(TransposeOutput::default());
    }
    let partitions = opts.partitions.max(1);
    let chunk = rows.len().div_ceil(opts.map_tasks.max(1));
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
    let map_payloads: Vec<Vec<u8>> = (0..rows.len())
        .step_by(chunk)
        .map(|first| {
            let entities = first..(first + chunk).min(rows.len());
            let (bound, fingerprint) = (opts.spill_bound, opts.fingerprint);
            encode_transpose_map_task(partitions, bound, fingerprint, &dir, rows, entities)
        })
        .collect();
    let map_out = transport.run_stage(KEY_TRANSPOSE, "map", &map_payloads)?;
    let mut stats = DistStats {
        map_tasks: map_payloads.len() as u64,
        retried: map_out.retried,
        speculated: map_out.speculated,
        reassigned: map_out.reassigned,
        ..DistStats::default()
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
        .map(|(p, segs)| {
            let range = symbol_range(p, partitions, vocab);
            encode_transpose_reduce_task(p, opts.fingerprint, range, segs)
        })
        .collect();
    let red_out = transport.run_stage(KEY_TRANSPOSE, "reduce", &reduce_payloads)?;
    stats.reduce_tasks = reduce_payloads.len() as u64;
    stats.retried += red_out.retried;
    stats.speculated += red_out.speculated;
    stats.reassigned += red_out.reassigned;
    let mut blocks = Vec::new();
    for (task, payload) in red_out.results.iter().enumerate() {
        let range = symbol_range(task, partitions, vocab);
        let (groups, part) = decode_transpose_result(payload, range, rows.len())
            .map_err(|m| collect_err(task, m))?;
        stats.reduce_groups += groups;
        blocks.extend(part);
    }
    Ok(TransposeOutput { blocks, stats })
}

/// Result of a [`run_dist`]: key-sorted output pairs plus stats.
#[derive(Clone, Debug, Default)]
pub struct DistOutput {
    /// `(key, members)` pairs, sorted by key.
    pub pairs: Vec<(String, String)>,
    /// Run statistics.
    pub stats: DistStats,
}

/// Kept only because `bench/` names it; delete with ROADMAP direction 1.
///
/// Token blocking over string records, as [`run_key_transpose`]: `job` must
/// be `"token-blocking"` (any other name is a `setup` [`ExecError`]) and
/// each input is `id \t key \t key …`. The keys are interned, deduplicated
/// per record (a record that repeats a key is one member of its block) and
/// rank-ordered by [`KeyRows::from_rows`], so symbol order is key order.
/// Each block renders as `(key, ids)`: its members' id fields in input
/// order, joined by spaces; blocks of fewer than two records are dropped.
/// The stats are the transpose's: `map_output_records` counts the distinct
/// `(key, record)` postings and `reduce_groups` the distinct keys.
pub fn run_dist(
    transport: &mut dyn Transport,
    job: &str,
    inputs: &[String],
    opts: &DistOptions,
) -> Result<DistOutput, ExecError> {
    if job != "token-blocking" {
        return Err(ExecError {
            stage: "setup".to_string(),
            task: 0,
            attempts: 0,
            message: format!("unknown job {job:?}: run_dist runs only \"token-blocking\""),
        });
    }
    let mut interner = Interner::new();
    let (mut ids, mut lens, mut symbols, mut row) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for record in inputs {
        let mut fields = record.split('\t');
        ids.push(fields.next().unwrap_or_default());
        row.clear();
        row.extend(fields.filter(|k| !k.is_empty()).map(|k| interner.intern(k)));
        row.sort_unstable();
        row.dedup();
        lens.push(row.len());
        symbols.extend_from_slice(&row);
    }
    let rows = KeyRows::from_rows(interner.into_strings(), &lens, symbols);
    let out = run_key_transpose(transport, &rows, opts)?;
    let pairs = out
        .blocks
        .into_iter()
        .map(|(s, members)| {
            let members: Vec<&str> = members.iter().map(|e| ids[e.index()]).collect();
            (rows.vocabulary()[s.index()].clone(), members.join(" "))
        })
        .collect();
    Ok(DistOutput {
        pairs,
        stats: out.stats,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transport::InProcessTransport;
    use er_core::fault::ExecPolicy;
    use std::collections::BTreeMap;

    /// A draw in `0..n` from a 64-bit LCG.
    fn lcg(x: &mut u64, n: u64) -> usize {
        *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        ((*x >> 33) % n) as usize
    }

    /// Key rows over the vocabulary `k0000 …`: `n` entities, each with up
    /// to five distinct LCG-drawn keys of `vocab`.
    pub(crate) fn key_rows(n: usize, vocab: u64, seed: u64) -> KeyRows {
        let mut x = seed;
        let vocabulary: Vec<String> = (0..vocab).map(|k| format!("k{k:04}")).collect();
        let (mut lens, mut symbols) = (Vec::new(), Vec::new());
        for _ in 0..n {
            let mut row: Vec<u32> = (0..lcg(&mut x, 6))
                .map(|_| lcg(&mut x, vocab) as u32)
                .collect();
            row.sort_unstable();
            row.dedup();
            lens.push(row.len());
            symbols.extend(row.into_iter().map(Symbol));
        }
        KeyRows::from_rows(vocabulary, &lens, symbols)
    }

    /// The transpose of `rows` grouped serially in a `BTreeMap`, and the
    /// number of distinct symbols it saw.
    pub(crate) fn serial_transpose(rows: &KeyRows) -> (Vec<SymbolBlock>, u64) {
        let mut groups: BTreeMap<Symbol, Vec<EntityId>> = BTreeMap::new();
        for (e, row) in rows.iter().enumerate() {
            for &s in row {
                groups.entry(s).or_default().push(EntityId(e as u32));
            }
        }
        let distinct = groups.len() as u64;
        let blocks = groups.into_iter().filter(|(_, m)| m.len() >= 2).collect();
        (blocks, distinct)
    }

    fn transpose(workers: usize, rows: &KeyRows, opts: &DistOptions) -> TransposeOutput {
        let mut t = InProcessTransport::new(workers, ExecPolicy::default());
        run_key_transpose(&mut t, rows, opts).unwrap()
    }

    #[test]
    fn output_is_identical_across_worker_and_task_counts() {
        let rows = key_rows(60, 12, 0xc0de);
        let reference = transpose(
            1,
            &rows,
            &DistOptions {
                map_tasks: 2,
                partitions: 2,
                ..DistOptions::for_workers(1)
            },
        );
        for workers in [2usize, 4] {
            for (mt, parts) in [(1usize, 1usize), (3, 2), (4, 4)] {
                let opts = DistOptions {
                    map_tasks: mt,
                    partitions: parts,
                    ..DistOptions::for_workers(workers)
                };
                let out = transpose(workers, &rows, &opts);
                let shape = format!("workers={workers} mt={mt} parts={parts}");
                assert_eq!(out.blocks, reference.blocks, "{shape}");
                assert_eq!(
                    out.stats.reduce_groups, reference.stats.reduce_groups,
                    "{shape}"
                );
            }
        }
    }

    #[test]
    fn spill_bound_changes_segments_not_output() {
        // A 1-byte bound flushes every posting as its own one-record run.
        let rows = key_rows(60, 12, 0x5b1);
        let unbounded = transpose(2, &rows, &DistOptions::for_workers(2));
        let opts = DistOptions {
            spill_bound: 1,
            ..DistOptions::for_workers(2)
        };
        let tiny = transpose(2, &rows, &opts);
        assert_eq!(unbounded.blocks, tiny.blocks);
        let postings = rows.n_symbols() as u64;
        assert_eq!(tiny.stats.spills, postings, "one spill per posting");
        assert_eq!(tiny.stats.segments, postings, "one segment per posting");
    }

    #[test]
    fn token_blocking_drops_singletons_and_orders_by_token() {
        let inputs = vec![
            "0\talpha\tbeta".to_string(),
            "1\tbeta\tgamma".to_string(),
            "2\talpha\tdelta".to_string(),
        ];
        let mut t = InProcessTransport::new(2, ExecPolicy::default());
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
        let opts = DistOptions {
            spill_dir: Some(base.clone()),
            ..DistOptions::for_workers(2)
        };
        assert!(!transpose(2, &key_rows(40, 8, 0xd1), &opts)
            .blocks
            .is_empty());
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

    /// Runs a two-worker transpose whose first segment is cut to
    /// `keep(bytes)` bytes and checks the typed reduce error it must end in.
    fn assert_truncation_is_typed(keep: fn(&[u8]) -> usize) {
        let mut t = Truncating {
            inner: InProcessTransport::new(
                2,
                ExecPolicy::retrying(er_core::fault::RetryPolicy::attempts(2)),
            ),
            keep,
            partition: None,
        };
        let rows = key_rows(300, 50, 0x5eed);
        let err = run_key_transpose(&mut t, &rows, &DistOptions::for_workers(2))
            .expect_err("a truncated segment must fail the run, never yield blocks");
        assert_eq!(err.stage, "reduce", "{err}");
        assert_eq!(Some(err.task), t.partition, "{err}");
        assert_eq!(err.attempts, 2, "{err}");
        assert!(err.message.contains("shuffle segment"), "{err}");
        assert!(err.message.contains("truncated at byte"), "{err}");
    }

    #[test]
    fn truncated_segment_is_a_typed_reduce_error_naming_the_truncation() {
        use er_core::colstore::{FOOTER_LEN, HEADER_LEN};
        // Part of the footer, the whole footer, everything past the header.
        assert_truncation_is_typed(|b| b.len() - 2);
        assert_truncation_is_typed(|b| b.len() - FOOTER_LEN as usize);
        assert_truncation_is_typed(|_| HEADER_LEN as usize);
    }

    #[test]
    fn symbol_ranges_tile_the_vocabulary_in_partition_order() {
        for vocab in 1..40u64 {
            for partitions in 1..8usize {
                let mut next = 0;
                for p in 0..partitions {
                    let range = symbol_range(p, partitions, vocab);
                    assert_eq!(range.start, next, "vocab {vocab} partitions {partitions}");
                    for s in range.clone() {
                        assert_eq!(symbol_partition(s as u32, partitions, vocab), p);
                    }
                    next = range.end;
                }
                assert_eq!(next, vocab);
            }
        }
    }

    #[test]
    fn key_transpose_matches_a_serial_group_by_at_every_shape() {
        for (n, vocab) in [(1usize, 1u64), (40, 3), (300, 50), (500, 997)] {
            let rows = key_rows(n, vocab, 0x7a11 + n as u64);
            let (want, distinct) = serial_transpose(&rows);
            for workers in [1usize, 3] {
                for (map_tasks, partitions) in [(1usize, 1usize), (3, 2), (7, 5)] {
                    for spill_bound in [0u64, 64] {
                        let mut t = InProcessTransport::new(workers, ExecPolicy::default());
                        let opts = DistOptions {
                            map_tasks,
                            partitions,
                            spill_bound,
                            ..DistOptions::for_workers(workers)
                        };
                        let out = run_key_transpose(&mut t, &rows, &opts).unwrap();
                        let shape = format!(
                            "n={n} vocab={vocab} workers={workers} mt={map_tasks} \
                             parts={partitions} bound={spill_bound}"
                        );
                        assert_eq!(out.blocks, want, "{shape}");
                        assert_eq!(out.stats.reduce_groups, distinct, "{shape}");
                        let postings = rows.n_symbols() as u64;
                        assert_eq!(out.stats.map_output_records, postings, "{shape}");
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_spill_bound_splits_runs_not_blocks() {
        let rows = key_rows(300, 50, 0xb0b);
        let run = |spill_bound| {
            let mut t = InProcessTransport::new(2, ExecPolicy::default());
            let opts = DistOptions {
                spill_bound,
                ..DistOptions::for_workers(2)
            };
            run_key_transpose(&mut t, &rows, &opts).unwrap()
        };
        let (unbounded, bounded) = (run(0), run(64));
        assert_eq!(unbounded.stats.spills, 0);
        assert!(bounded.stats.spills > 0, "a 64-byte bound must spill");
        assert!(bounded.stats.segments > unbounded.stats.segments);
        assert_eq!(bounded.blocks, unbounded.blocks);
    }

    #[test]
    fn worker_budget_tightens_the_transpose_spill_bound() {
        let rows = key_rows(100, 20, 0xb1d);
        let dir = std::env::temp_dir().join(format!("er-dist-budget-{}", std::process::id()));
        let payload = encode_transpose_map_task(2, 0, 7, &dir, &rows, 0..rows.len());
        let map = |budget| {
            let result = run_task(KEY_TRANSPOSE, "map", &payload, budget);
            decode_map_result(&result.unwrap()).unwrap()
        };
        let (unlimited, budgeted) = (map(0), map(64));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(unlimited.spills, 0);
        assert!(budgeted.spills > 0, "a 64-byte allotment must spill");
        assert_eq!(budgeted.emitted, unlimited.emitted);
    }

    /// Rewrites one stage's task payloads or results in place.
    type Rewrite = fn(&mut [Vec<u8>]);

    /// In-process transport that rewrites the task payloads of `stage`
    /// before it runs, and its results after.
    struct Tamper {
        inner: InProcessTransport,
        stage: &'static str,
        payloads: Rewrite,
        results: Rewrite,
    }

    impl Transport for Tamper {
        fn run_stage(
            &mut self,
            job: &str,
            stage: &str,
            payloads: &[Vec<u8>],
        ) -> Result<crate::transport::StageOutput, ExecError> {
            if stage != self.stage {
                return self.inner.run_stage(job, stage, payloads);
            }
            let mut payloads = payloads.to_vec();
            (self.payloads)(&mut payloads);
            let mut out = self.inner.run_stage(job, stage, &payloads)?;
            (self.results)(&mut out.results);
            Ok(out)
        }
    }

    /// The error of a two-worker transpose whose `stage` was tampered with.
    fn tampered(stage: &'static str, payloads: Rewrite, results: Rewrite) -> ExecError {
        let mut t = Tamper {
            inner: InProcessTransport::new(2, ExecPolicy::default()),
            stage,
            payloads,
            results,
        };
        let rows = key_rows(300, 50, 0x5eed);
        run_key_transpose(&mut t, &rows, &DistOptions::for_workers(2))
            .expect_err("a tampered run must fail typed, never yield blocks")
    }

    fn u32_at(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    }

    #[test]
    fn a_map_symbol_past_the_vocabulary_is_a_typed_map_error() {
        // Map task 1's header claims a one-key vocabulary: its vocabulary
        // length follows the tag, three u64s and the job dir.
        let err = tampered(
            "map",
            |p| {
                let at = 29 + u32_at(&p[1], 25) as usize;
                p[1][at..at + 8].copy_from_slice(&1u64.to_le_bytes());
            },
            |_| {},
        );
        assert_eq!((err.stage.as_str(), err.task), ("map", 1), "{err}");
        assert!(
            err.message.contains("outside the 1-key vocabulary"),
            "{err}"
        );
    }

    #[test]
    fn a_posting_outside_the_reduce_range_is_a_typed_reduce_error() {
        // Reduce 0 is told its range `lo..hi` (bytes 17..33) ends one symbol
        // past its start.
        let err = tampered(
            "reduce",
            |p| p[0][25..33].copy_from_slice(&1u64.to_le_bytes()),
            |_| {},
        );
        assert_eq!((err.stage.as_str(), err.task), ("reduce", 0), "{err}");
        assert!(
            err.message
                .contains("outside this reduce's symbol range 0..1"),
            "{err}"
        );
    }

    #[test]
    fn malformed_transpose_results_are_typed_collect_errors() {
        // Reduce 0's first block starts at byte 9: symbol, count, members.
        let cases: [(Rewrite, &str); 3] = [
            (
                |r| r[0][13..17].copy_from_slice(&1u32.to_le_bytes()),
                "has 1 member(s)",
            ),
            (
                |r| {
                    let first = r[0][9..17 + 4 * u32_at(&r[0], 13) as usize].to_vec();
                    r[0].extend(first);
                },
                "out of order",
            ),
            (|r| r[0].extend([0, 0, 0]), "3 trailing byte(s)"),
        ];
        for (results, cause) in cases {
            let err = tampered("reduce", |_| {}, results);
            assert_eq!((err.stage.as_str(), err.task), ("collect", 0), "{err}");
            assert!(err.message.contains(cause), "{cause}: {err}");
        }
    }

    #[test]
    fn truncated_postings_segment_is_a_typed_reduce_error() {
        use er_core::colstore::{HEADER_LEN, SECTION_HEADER_LEN};
        // Mid-record: inside the second posting of the run.
        assert_truncation_is_typed(|_| (HEADER_LEN + SECTION_HEADER_LEN + 8 + 12) as usize);
    }

    #[test]
    fn unknown_job_is_a_typed_error() {
        // A worker runs only the transpose, on either stage.
        for stage in ["map", "reduce"] {
            let err = run_task("no-such-job", stage, &[], 0).unwrap_err();
            assert!(err.contains("unknown job \"no-such-job\""), "{err}");
        }
        let mut t = InProcessTransport::new(1, ExecPolicy::default());
        let err = t
            .run_stage("token-blocking", "map", &[Vec::new()])
            .unwrap_err();
        assert_eq!((err.stage.as_str(), err.task), ("map", 0), "{err}");
        assert!(err.message.contains("unknown job"), "{err}");
        // The adapter names the job it refuses before any task runs.
        let err = run_dist(&mut t, "no-such-job", &[], &DistOptions::for_workers(1)).unwrap_err();
        assert_eq!(err.stage, "setup", "{err}");
        assert!(err.message.contains("\"no-such-job\""), "{err}");
    }
}
