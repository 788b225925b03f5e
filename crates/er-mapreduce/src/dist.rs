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
//! the vocabulary never travels — and cut each row into one slice per
//! **symbol range**, in the same row codec. The coordinator appends every
//! map result's slices, in mapper order, to the reduce task of their range,
//! and each reduce counting-sorts its range into `(symbol, members)` blocks;
//! ranges are disjoint and ascending, so the coordinator concatenates the
//! reduce results in partition order. [`run_dist`] is a thin adapter that
//! runs string records through the same job.
//!
//! The shuffle rides in the task payloads and results like every other byte
//! of the job, so a run writes no file.

use crate::engine::ExecError;
use crate::transport::Transport;
use er_core::entity::EntityId;
use er_core::intern::{Interner, Symbol};
use er_core::profiles::KeyRows;
use er_core::wire::{put_bytes, put_u32, put_u64, Decoder, WireError};
use std::ops::Range;

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
// in the `er_core::wire` codec; records run to the end of the payload. A row
// is `entity u32, len u32, len × symbol u32`.
//
// Map task: partitions, the vocabulary length, then one row per entity. Map
// result: the emission count, then one slice per partition, ascending — a
// `u32` byte length, then the task's rows cut to that partition's symbol
// range, rows with no symbol there left out. Reduce task: the symbol range
// `lo..hi` (two `u64`s), then that range's slice of every map result, in
// mapper order, each behind its length. Reduce result: the count of
// distinct symbols seen, then one record per symbol with ≥ 2 members,
// ascending — `symbol u32, count u32, count × entity u32`, members
// ascending.

const MAP_TASK: u8 = b't';
const REDUCE_TASK: u8 = b'u';
const MAP_RESULT: u8 = b'M';
const REDUCE_RESULT: u8 = b'B';

/// A decoder past the tag of `payload`, which must be `tag`.
fn tagged<'a>(payload: &'a [u8], tag: u8, what: &str) -> Result<Decoder<'a>, String> {
    let mut d = Decoder::new(payload);
    match d.u8() {
        Ok(t) if t == tag => Ok(d),
        Ok(t) => Err(format!("bad {what} header: tag {t}, expected {tag}")),
        Err(e) => Err(format!("bad {what} header: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Task runner (shared by both transports)
// ---------------------------------------------------------------------------

/// Runs one task attempt: decodes `payload`, executes the map or reduce of
/// [`KEY_TRANSPOSE`] — the only job there is; any other name is an error —
/// and encodes the result payload. Pure: the same payload yields the same
/// result bytes on either transport.
pub fn run_task(job: &str, stage: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
    if job != KEY_TRANSPOSE {
        return Err(format!(
            "unknown job {job:?}: workers run only {KEY_TRANSPOSE:?}"
        ));
    }
    match stage {
        "map" => run_transpose_map(payload),
        "reduce" => run_transpose_reduce(payload),
        other => Err(format!("unknown stage {other:?}")),
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
    rows: &KeyRows,
    entities: Range<usize>,
) -> Vec<u8> {
    let mut out = vec![MAP_TASK];
    put_u64(&mut out, partitions as u64);
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

/// The transpose map: every row is cut into the slices of its symbols'
/// ranges, rows in task order and symbols in row order, so no slice needs
/// sorting.
fn run_transpose_map(payload: &[u8]) -> Result<Vec<u8>, String> {
    let header = |e: WireError| format!("bad map task header: {e}");
    let mut d = tagged(payload, MAP_TASK, "map task")?;
    let partitions = d.usize().map_err(header)?;
    let vocab = d.u64().map_err(header)?;
    if partitions == 0 {
        return Err("map task with zero partitions".to_string());
    }

    let mut slices: Vec<Vec<u8>> = vec![Vec::new(); partitions];
    // Per slice the current row has reached: its count field and count.
    let mut open: Vec<Option<(usize, u32)>> = vec![None; partitions];
    let mut emitted: u64 = 0;
    let bad = |e: WireError| format!("bad map task record: {e}");
    while !d.is_empty() {
        let entity = d.u32().map_err(bad)?;
        let len = d.u32().map_err(bad)?;
        open.fill(None);
        for _ in 0..len {
            let at = d.offset();
            let s = d.u32().map_err(bad)?;
            if u64::from(s) >= vocab {
                return Err(format!(
                    "bad map task record at byte {at}: symbol {s} of entity {entity} is outside \
                     the {vocab}-key vocabulary"
                ));
            }
            let p = symbol_partition(s, partitions, vocab);
            let slice = &mut slices[p];
            let (count_at, count) = open[p].get_or_insert_with(|| {
                put_u32(slice, entity);
                put_u32(slice, 0);
                (slice.len() - 4, 0)
            });
            *count += 1;
            slice[*count_at..*count_at + 4].copy_from_slice(&count.to_le_bytes());
            put_u32(slice, s);
            emitted += 1;
        }
    }
    let bytes: usize = slices.iter().map(|s| 4 + s.len()).sum();
    let mut out = Vec::with_capacity(9 + bytes);
    out.push(MAP_RESULT);
    put_u64(&mut out, emitted);
    for slice in &slices {
        put_bytes(&mut out, slice);
    }
    Ok(out)
}

/// A `key-transpose` reduce-task header for the symbols `range`; the
/// coordinator appends the slices.
fn transpose_reduce_header(range: Range<u64>) -> Vec<u8> {
    let mut out = vec![REDUCE_TASK];
    put_u64(&mut out, range.start);
    put_u64(&mut out, range.end);
    out
}

/// Appends the slices of one map result to the reduce payloads, slice `p`
/// to payload `p`, behind its length; returns the result's emission count.
/// The result must hold one slice per payload.
fn append_slices(result: &[u8], reduce: &mut [Vec<u8>]) -> Result<u64, String> {
    let bad = |e: WireError| format!("bad map result: {e}");
    let mut d = tagged(result, MAP_RESULT, "map result")?;
    let emitted = d.u64().map_err(bad)?;
    let mut slices = 0;
    while !d.is_empty() {
        let slice = d
            .bytes()
            .map_err(|e| format!("bad map result: slice {slices}: {e}"))?;
        if let Some(payload) = reduce.get_mut(slices) {
            put_bytes(payload, slice);
        }
        slices += 1;
    }
    if slices != reduce.len() {
        return Err(format!(
            "bad map result: {slices} slice(s), expected one per partition ({})",
            reduce.len()
        ));
    }
    Ok(emitted)
}

/// Calls `f` on every `(symbol, entity)` posting of the slices `d` holds,
/// in arrival order, after checking that the symbol lies in `range`.
fn for_each_posting(
    mut d: Decoder<'_>,
    range: &Range<u64>,
    mut f: impl FnMut(u32, EntityId),
) -> Result<(), String> {
    let mut mapper = 0;
    while !d.is_empty() {
        let cut = |e: WireError| format!("bad shuffle slice of map task {mapper}: {e}");
        let at = d.offset() + 4;
        let mut rows = Decoder::at(d.bytes().map_err(cut)?, at);
        while !rows.is_empty() {
            let entity = EntityId(rows.u32().map_err(cut)?);
            for _ in 0..rows.u32().map_err(cut)? {
                let s = rows.u32().map_err(cut)?;
                if !range.contains(&u64::from(s)) {
                    return Err(format!(
                        "shuffle slice of map task {mapper}: posting ({s}, {}) is outside this \
                         reduce's symbol range {}..{}",
                        entity.0, range.start, range.end
                    ));
                }
                f(s, entity);
            }
        }
        mapper += 1;
    }
    Ok(())
}

/// The transpose reduce: the range's slices in mapper order, counting-sorted
/// by symbol in two passes over the payload. Mappers hold ascending entity
/// chunks and keep their rows in order, so every symbol's members arrive
/// ascending; the reduce checks that rather than trusting it.
fn run_transpose_reduce(payload: &[u8]) -> Result<Vec<u8>, String> {
    let header = |e: WireError| format!("bad reduce task header: {e}");
    let mut d = tagged(payload, REDUCE_TASK, "reduce task")?;
    let lo = d.u64().map_err(header)?;
    let hi = d.u64().map_err(header)?;
    if lo > hi || hi > 1 << 32 {
        return Err(format!("bad reduce task header: symbol range {lo}..{hi}"));
    }
    let range = lo..hi;

    // Counting sort: `start[k]..start[k + 1]` are the members of symbol
    // `lo + k`, placed in arrival order. The table is sized on the first
    // posting, so an empty range costs nothing.
    let mut start: Vec<u32> = Vec::new();
    for_each_posting(d.clone(), &range, |s, _| {
        if start.is_empty() {
            start = vec![0; (hi - lo) as usize + 1];
        }
        start[(u64::from(s) - lo) as usize + 1] += 1;
    })?;
    let groups = start.iter().filter(|&&count| count > 0).count() as u64;
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let mut next = start.clone();
    let mut members = vec![EntityId(0); start.last().map_or(0, |&n| n as usize)];
    for_each_posting(d, &range, |s, e| {
        let slot = &mut next[(u64::from(s) - lo) as usize];
        members[*slot as usize] = e;
        *slot += 1;
    })?;

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

/// Shape of a distributed run: its task and partition counts.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Number of map tasks (inputs are chunked contiguously).
    pub map_tasks: usize,
    /// Number of shuffle partitions == reduce tasks.
    pub partitions: usize,
}

impl DistOptions {
    /// Sensible defaults for `workers` workers.
    pub fn for_workers(workers: usize) -> DistOptions {
        let w = workers.max(1);
        DistOptions {
            map_tasks: w * 2,
            partitions: w,
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
    /// Task attempts retried after typed failures (both stages).
    pub retried: u64,
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
        obs.counter("mapreduce.tasks_reassigned")
            .add(self.reassigned);
        obs.counter("mapreduce.jobs").incr();
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
/// The job walk: the map stage over contiguous chunks of rows, so members
/// arrive in entity order; the map payloads dropped and each map result's
/// slices appended, in mapper order, to the reduce payload of their
/// partition; and the reduce stage over those payloads. Partitions are
/// ascending symbol ranges, so concatenating the reduce results in
/// partition order is symbol order — which is key order, the vocabulary
/// being sorted. Deterministic: for fixed `rows` and `opts` the output is
/// bit-identical across transports, worker, task and partition counts,
/// retries and worker crashes — the in-process transport is
/// the oracle the subprocess backend is property-tested against.
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

    // ---- map ---------------------------------------------------------------
    let map_payloads: Vec<Vec<u8>> = (0..rows.len())
        .step_by(chunk)
        .map(|first| {
            let entities = first..(first + chunk).min(rows.len());
            encode_transpose_map_task(partitions, rows, entities)
        })
        .collect();
    let map_out = transport.run_stage(KEY_TRANSPOSE, "map", &map_payloads)?;
    let mut stats = DistStats {
        map_tasks: map_payloads.len() as u64,
        retried: map_out.retried,
        reassigned: map_out.reassigned,
        ..DistStats::default()
    };
    drop(map_payloads);

    // ---- shuffle -----------------------------------------------------------
    let mut reduce_payloads: Vec<Vec<u8>> = (0..partitions)
        .map(|p| transpose_reduce_header(symbol_range(p, partitions, vocab)))
        .collect();
    for (task, result) in map_out.results.into_iter().enumerate() {
        stats.map_output_records +=
            append_slices(&result, &mut reduce_payloads).map_err(|m| collect_err(task, m))?;
    }

    // ---- reduce ------------------------------------------------------------
    let red_out = transport.run_stage(KEY_TRANSPOSE, "reduce", &reduce_payloads)?;
    stats.reduce_tasks = reduce_payloads.len() as u64;
    drop(reduce_payloads);
    stats.retried += red_out.retried;
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
            },
        );
        for workers in [2usize, 4] {
            for (mt, parts) in [(1usize, 1usize), (3, 2), (4, 4)] {
                let opts = DistOptions {
                    map_tasks: mt,
                    partitions: parts,
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
                    let mut t = InProcessTransport::new(workers, ExecPolicy::default());
                    let opts = DistOptions {
                        map_tasks,
                        partitions,
                    };
                    let out = run_key_transpose(&mut t, &rows, &opts).unwrap();
                    let shape = format!(
                        "n={n} vocab={vocab} workers={workers} mt={map_tasks} parts={partitions}"
                    );
                    assert_eq!(out.blocks, want, "{shape}");
                    assert_eq!(out.stats.reduce_groups, distinct, "{shape}");
                    let postings = rows.n_symbols() as u64;
                    assert_eq!(out.stats.map_output_records, postings, "{shape}");
                }
            }
        }
    }

    #[test]
    fn map_results_slice_each_row_by_symbol_range() {
        // Two ranges of a four-key vocabulary: symbols 0..2 and 2..4.
        let rows = KeyRows::from_rows(
            (0..4).map(|k| format!("k{k}")).collect(),
            &[3, 1, 0, 2],
            [0, 2, 3, 1, 2, 3].map(Symbol).to_vec(),
        );
        let payload = encode_transpose_map_task(2, &rows, 0..rows.len());
        let result = run_task(KEY_TRANSPOSE, "map", &payload).unwrap();
        let words = |ws: &[u32]| -> Vec<u8> { ws.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let mut want = vec![MAP_RESULT];
        put_u64(&mut want, 6);
        // Entity 0 in both ranges, entity 1 in the first only, entity 2
        // (no keys) in neither, entity 3 in the second only.
        put_bytes(&mut want, &words(&[0, 1, 0, 1, 1, 1]));
        put_bytes(&mut want, &words(&[0, 2, 2, 3, 3, 2, 2, 3]));
        assert_eq!(result, want);
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
        // length follows the tag and the partition count.
        let err = tampered(
            "map",
            |p| p[1][9..17].copy_from_slice(&1u64.to_le_bytes()),
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
        // Reduce 0 is told its range `lo..hi` (bytes 1..17) ends one symbol
        // past its start.
        let err = tampered(
            "reduce",
            |p| p[0][9..17].copy_from_slice(&1u64.to_le_bytes()),
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

    /// Map result 0's first slice: its length sits at bytes 9..13, after the
    /// tag and the emission count.
    fn first_slice_len(r: &[Vec<u8>]) -> usize {
        u32_at(&r[0], 9) as usize
    }

    #[test]
    fn a_map_result_with_the_wrong_slice_count_is_a_typed_collect_error() {
        // Map result 0 loses its second slice, or gains an empty third.
        let cases: [(Rewrite, &str); 2] = [
            (
                |r| {
                    let end = 13 + first_slice_len(r);
                    r[0].truncate(end);
                },
                "1 slice(s), expected one per partition (2)",
            ),
            (
                |r| r[0].extend([0, 0, 0, 0]),
                "3 slice(s), expected one per partition (2)",
            ),
        ];
        for (results, cause) in cases {
            let err = tampered("map", |_| {}, results);
            assert_eq!((err.stage.as_str(), err.task), ("collect", 0), "{err}");
            assert!(err.message.contains(cause), "{cause}: {err}");
        }
    }

    #[test]
    fn a_cut_shuffle_slice_is_a_typed_error_naming_stage_and_task() {
        // Map result 1 ends three bytes short: its last slice's length
        // outruns the result, which the coordinator refuses.
        let err = tampered(
            "map",
            |_| {},
            |r| {
                let len = r[1].len();
                r[1].truncate(len - 3);
            },
        );
        assert_eq!((err.stage.as_str(), err.task), ("collect", 1), "{err}");
        assert!(err.message.contains("slice 1: truncated at byte"), "{err}");
    }

    /// Map result `M`'s first slice keeps only the first `keep(len)` of its
    /// `len` bytes, and its length says so: the framing holds, and only the
    /// reduce finds the row cut.
    fn cut_first_slice<const M: usize>(r: &mut [Vec<u8>], keep: impl Fn(usize) -> usize) {
        let len = u32_at(&r[M], 9) as usize;
        let kept = keep(len);
        r[M][9..13].copy_from_slice(&(kept as u32).to_le_bytes());
        r[M].drain(13 + kept..13 + len);
    }

    #[test]
    fn truncated_segment_is_a_typed_reduce_error_naming_the_truncation() {
        // The last row of map result 0's first slice loses one byte, two
        // bytes, or its whole last posting. Every row holds a posting.
        let cuts: [Rewrite; 3] = [
            |r| cut_first_slice::<0>(r, |len| len - 1),
            |r| cut_first_slice::<0>(r, |len| len - 2),
            |r| cut_first_slice::<0>(r, |len| len - 4),
        ];
        for results in cuts {
            let err = tampered("map", |_| {}, results);
            assert_eq!((err.stage.as_str(), err.task), ("reduce", 0), "{err}");
            assert!(
                err.message
                    .contains("bad shuffle slice of map task 0: truncated at byte"),
                "{err}"
            );
        }
    }

    #[test]
    fn truncated_postings_segment_is_a_typed_reduce_error() {
        // Mid-record: map result 1's first slice ends two bytes into the
        // first posting of its first row, after the entity and the count.
        let err = tampered("map", |_| {}, |r| cut_first_slice::<1>(r, |_| 10));
        assert_eq!((err.stage.as_str(), err.task), ("reduce", 0), "{err}");
        assert!(
            err.message
                .contains("bad shuffle slice of map task 1: truncated at byte"),
            "{err}"
        );
    }

    #[test]
    fn members_out_of_order_are_a_typed_reduce_error() {
        // The first row of map result 1's first slice claims entity 0, which
        // arrives after map task 0's rows.
        let err = tampered(
            "map",
            |_| {},
            |r| r[1][13..17].copy_from_slice(&0u32.to_le_bytes()),
        );
        assert_eq!((err.stage.as_str(), err.task), ("reduce", 0), "{err}");
        assert!(err.message.contains("arrived after entity"), "{err}");
    }

    #[test]
    fn unknown_job_is_a_typed_error() {
        // A worker runs only the transpose, on either stage.
        for stage in ["map", "reduce"] {
            let err = run_task("no-such-job", stage, &[]).unwrap_err();
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
