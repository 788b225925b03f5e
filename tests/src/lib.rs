//! Fixtures shared by the integration suites: the seeded datasets, the
//! micro-collection strategy, the thread cells, the kernel
//! row helpers, the subprocess worker, the key rows and serial oracle of the
//! MapReduce transpose, the bitwise graph and resolution asserts, a
//! scratch-directory guard and the worker-pool ledger assert.
//!
//! The property rows run on the vendored `proptest` shim
//! (`vendor/proptest`), which does **not** shrink: a failing case panics
//! with its seed and case number, never with a smaller input. So every
//! property row prints its input values in its failure message — together
//! with the seed and case number, that is the only way to reproduce it.

use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::{EntityId, KbId};
use er_core::intern::{Interner, Symbol};
use er_core::obs::MetricsSnapshot;
use er_core::parallel::Parallelism;
use er_core::profiles::{KeyRows, TokenProfiles};
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_mapreduce::dist::SymbolBlock;
use er_metablocking::BlockingGraph;
use er_pipeline::Resolution;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The worker counts every parallel kernel is checked at.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// `f` at every thread count, labelled.
pub fn threaded<T>(what: &str, f: impl Fn(Parallelism) -> T) -> Vec<(String, T)> {
    THREAD_COUNTS
        .iter()
        .map(|&t| (format!("{what} threads={t}"), f(Parallelism::threads(t))))
        .collect()
}

/// A kernel row's verdict: every variant equals the oracle.
pub fn row<T: PartialEq + std::fmt::Debug>(oracle: &T, ctx: &str, variants: Vec<(String, T)>) {
    for (variant, got) in variants {
        assert_eq!(&got, oracle, "{ctx} × {variant}");
    }
}

/// [`row`] for graphs: every variant equals the oracle bitwise.
pub fn graph_row(oracle: &BlockingGraph, ctx: &str, variants: Vec<(String, BlockingGraph)>) {
    for (variant, got) in variants {
        assert_graphs_bitwise_equal(&got, oracle, &format!("{ctx} × {variant}"));
    }
}

/// The `er-test-worker` binary, for `SubprocessConfig::program` and
/// `PipelineBuilder::worker_program`. Test harness binaries own `main`, so
/// they cannot re-exec themselves as workers; Cargo sets the variable only
/// while it compiles an integration test, hence a macro.
#[macro_export]
macro_rules! worker_program {
    () => {
        env!("CARGO_BIN_EXE_er-test-worker")
    };
}

/// A seeded dirty dataset of `entities` real-world entities.
pub fn dataset(entities: usize, noise: NoiseModel, seed: u64) -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(entities, noise, seed))
}

/// [`dataset`] at every noise level of [`NoiseModel::sweep`], labelled.
pub fn noise_sweep(entities: usize, seed: u64) -> impl Iterator<Item = (String, DirtyDataset)> {
    NoiseModel::sweep().into_iter().map(move |(name, noise)| {
        let label = format!("n={entities} noise={name} seed={seed}");
        (label, dataset(entities, noise, seed))
    })
}

/// A dirty collection of one single-attribute entity per value.
pub fn collection_from_values(values: &[String]) -> EntityCollection {
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for v in values {
        c.push(KbId(0), vec![("v".to_string(), v.clone())]);
    }
    c
}

/// Micro-collections over a five-letter alphabet: up to 24 values of up to
/// six short tokens, so blocks overlap heavily and irregularly.
pub fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,5}", 0..25)
}

/// `id \t token…` records with overlapping vocabulary, so blocks span map
/// chunks and every reduce partition has work. Record `i` names
/// `tok{i % 7}` and `tok{(3i + 1) % 11}`, which coincide at `i = 5`.
pub fn token_lines(n: u32) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "{i}\ttok{}\ttok{}\tcommon{}",
                i % 7,
                (i * 3 + 1) % 11,
                i % 2
            )
        })
        .collect()
}

/// Key rows from `id \t key…` lines: row `i` holds line `i`'s distinct,
/// non-empty keys (the id field is dropped).
pub fn key_rows_of_lines(lines: &[String]) -> KeyRows {
    let mut interner = Interner::new();
    let (mut lens, mut symbols) = (Vec::new(), Vec::new());
    for line in lines {
        let keys = line.split('\t').skip(1).filter(|k| !k.is_empty());
        let mut row: Vec<Symbol> = keys.map(|k| interner.intern(k)).collect();
        row.sort_unstable();
        row.dedup();
        lens.push(row.len());
        symbols.extend(row);
    }
    KeyRows::from_rows(interner.into_strings(), &lens, symbols)
}

/// The token rows of `c`: what `Pipeline`'s subprocess backend ships to
/// `er_mapreduce::run_key_transpose`.
pub fn token_rows(c: &EntityCollection) -> KeyRows {
    let tokenizer = er_core::tokenize::Tokenizer::default();
    TokenProfiles::build(c, &tokenizer, Parallelism::serial())
}

/// The oracle of `er_mapreduce::run_key_transpose`: `rows` grouped serially
/// in a `BTreeMap` — every symbol two or more rows share, with those rows,
/// ascending. It shares no code with the engine.
pub fn serial_transpose(rows: &KeyRows) -> Vec<SymbolBlock> {
    let mut groups: BTreeMap<Symbol, Vec<EntityId>> = BTreeMap::new();
    for (e, row) in rows.iter().enumerate() {
        for &s in row {
            groups.entry(s).or_default().push(EntityId(e as u32));
        }
    }
    groups.into_iter().filter(|(_, m)| m.len() >= 2).collect()
}

/// Asserts two graphs carry the same edges in the same order with bitwise
/// equal ARCS weights: `to_bits` makes the claim explicit and would catch a
/// -0.0 vs 0.0 split that `==` on f64 lets through.
pub fn assert_graphs_bitwise_equal(got: &BlockingGraph, want: &BlockingGraph, ctx: &str) {
    assert_eq!(got, want, "graph diverged: {ctx}");
    assert_eq!(got.n_edges(), want.n_edges(), "edge count diverged: {ctx}");
    for ((gp, ge), (wp, we)) in got.edges().zip(want.edges()) {
        assert_eq!(gp, wp, "edge order diverged: {ctx}");
        assert_eq!(ge.common_blocks, we.common_blocks, "CBS diverged: {ctx}");
        assert_eq!(
            ge.arcs.to_bits(),
            we.arcs.to_bits(),
            "ARCS not bit-identical at {gp:?}: {ctx}"
        );
    }
}

/// Asserts a pipeline run resolved as the reference run: the same matches,
/// clusters and comparison counts, with nothing shed.
pub fn assert_same_resolution(got: &Resolution, want: &Resolution, cell: &str) {
    assert_eq!(got.matches, want.matches, "{cell}: matches");
    assert_eq!(got.clusters, want.clusters, "{cell}: clusters");
    let (g, w) = (&got.report, &want.report);
    assert_eq!(
        g.blocked_comparisons, w.blocked_comparisons,
        "{cell}: blocked"
    );
    let scheduled = w.scheduled_comparisons;
    assert_eq!(g.scheduled_comparisons, scheduled, "{cell}: scheduled");
    assert_eq!(g.shed_comparisons, 0, "{cell}: shed");
}

/// A fresh directory path under the system temp dir, unique per process
/// and call, removed with everything in it when the guard drops.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A new, not yet created, scratch path tagged `tag`.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "er-it-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }

    /// [`ScratchDir::new`], with the directory created.
    pub fn created(tag: &str) -> ScratchDir {
        let dir = ScratchDir::new(tag);
        std::fs::create_dir_all(&*dir).expect("scratch dir");
        dir
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts a worker pool wound down cleanly: the `worker.*` ledger
/// balances (`spawned == exited + crashed`, `restarted <= crashed`), the
/// `worker.running` gauge drained to 0, and none of `pids` is left as this
/// process's zombie child (a reaped pid is gone from `/proc` or, reused,
/// belongs to someone else).
pub fn assert_pool_drained(snap: &MetricsSnapshot, pids: &[u32], cell: &str) {
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let (spawned, crashed) = (count("worker.spawned"), count("worker.crashed"));
    assert_eq!(spawned, count("worker.exited") + crashed, "{cell}: ledger");
    assert!(count("worker.restarted") <= crashed, "{cell}: restarts");
    assert_eq!(
        snap.gauge("worker.running"),
        Some(0.0),
        "{cell}: pool drained"
    );
    let me = std::process::id();
    for &pid in pids {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // The fields after the parenthesised command name: state, ppid.
        let mut fields = stat.rsplit(')').next().unwrap_or("").split_whitespace();
        let state = fields.next().unwrap_or("");
        let ppid: u32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        assert!(
            !(state == "Z" && ppid == me),
            "{cell}: worker {pid} leaked as a zombie child ({})",
            stat.trim()
        );
    }
}
