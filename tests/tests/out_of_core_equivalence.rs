//! Out-of-core equivalence harness.
//!
//! The external-sort paths — token blocking spilled as sorted `(Symbol,
//! EntityId)` posting runs (`er_blocking::ooc`) and the blocking graph built
//! from pair-sorted edge-contribution runs (`er_metablocking::ooc`) — promise
//! output **bit-identical** to the in-memory builds they shadow, at any run
//! size and any worker count. This suite holds that promise to account:
//!
//! 1. streamed token blocking vs `TokenBlocking::par_build`,
//! 2. streamed graph construction vs `BlockingGraph::par_build` — ARCS
//!    weights compared via `f64::to_bits`, so "close enough" is measurably
//!    not the contract,
//! 3. the streamed graph, pruned, vs `par_meta_block` — the node-centric
//!    scan, which never builds a graph and so has no streamed twin,
//! 4. the whole pipeline under `out_of_core(true)` vs the default run —
//!    where only blocking spills — including under a memory budget of a
//!    quarter of the blocking index, which must spill and shed nothing,
//!
//! across generator seeds × noise levels × worker counts {1, 4} × run sizes
//! (from runt-sized runs that force deep k-way merges up to
//! everything-in-one-run), plus property tests over random
//! micro-collections. Governance is part of the contract too: a budget far
//! below the blocking index still streams to completion and drains, and a
//! successful build removes every on-disk run it wrote.

use er_blocking::governance::block_bytes;
use er_blocking::TokenBlocking;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::colstore::{collection_fingerprint, OocConfig};
use er_core::entity::KbId;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::resource::{MemoryBudget, ResourceLimits};
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::{par_meta_block, BlockingGraph, PruningScheme, WeightingScheme};
use er_pipeline::{MetaBlockingStage, Pipeline, RecoveryOptions};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Worker counts the streamed paths are checked at: 1 exercises the serial
/// spill loop, 4 the chunked spill with runs interleaved across workers.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Run sizes in records. 64 is the spill floor (a 220-entity collection
/// produces dozens of runs and a wide k-way merge); 4096 usually fits
/// everything in one run (merge degenerates to a replay).
const RUN_SIZES: [usize; 3] = [64, 512, 4096];

fn dataset(entities: usize, noise: NoiseModel, seed: u64) -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(entities, noise, seed))
}

/// A fresh spill directory per call so concurrent tests never share runs.
fn ooc_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "er_ooc_equiv_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cfg_for(tag: &str, collection: &EntityCollection, run_entries: usize) -> OocConfig {
    OocConfig::new(ooc_dir(tag))
        .with_fingerprint(collection_fingerprint(collection))
        .with_run_entries(run_entries)
}

fn collection_from_values(values: &[String]) -> EntityCollection {
    let mut c = EntityCollection::new(ResolutionMode::Dirty);
    for v in values {
        c.push(KbId(0), vec![("v".to_string(), v.clone())]);
    }
    c
}

fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,5}", 0..25)
}

/// Asserts two graphs carry the same edges with bitwise-equal ARCS weights.
fn assert_graphs_bitwise_equal(streamed: &BlockingGraph, oracle: &BlockingGraph, ctx: &str) {
    assert_eq!(streamed, oracle, "graph diverged: {ctx}");
    let s: Vec<_> = streamed.edges().collect();
    let o: Vec<_> = oracle.edges().collect();
    assert_eq!(s.len(), o.len(), "edge count diverged: {ctx}");
    for ((sp, se), (op, oe)) in s.iter().zip(&o) {
        assert_eq!(sp, op, "edge order diverged: {ctx}");
        assert_eq!(se.common_blocks, oe.common_blocks, "CBS diverged: {ctx}");
        assert_eq!(
            se.arcs.to_bits(),
            oe.arcs.to_bits(),
            "ARCS not bit-identical at {sp:?}: {ctx}"
        );
    }
}

// ----------------------------------------------------------- token blocking

#[test]
fn streamed_token_blocking_equals_in_memory_build() {
    for (noise_name, noise) in NoiseModel::sweep() {
        for seed in [7u64, 0xBE9C] {
            let ds = dataset(220, noise, seed);
            let tb = TokenBlocking::new();
            let oracle = tb.par_build(&ds.collection, Parallelism::serial());
            for threads in THREAD_COUNTS {
                for run_entries in RUN_SIZES {
                    let cfg = cfg_for("token", &ds.collection, run_entries);
                    let streamed = tb
                        .par_build_ooc_obs(
                            &ds.collection,
                            Parallelism::threads(threads),
                            &Obs::disabled(),
                            &cfg,
                        )
                        .expect("streamed build succeeds");
                    assert_eq!(
                        streamed, oracle,
                        "token blocking diverged: noise={noise_name} seed={seed} \
                         threads={threads} run_entries={run_entries}"
                    );
                    let _ = std::fs::remove_dir_all(&cfg.segment_dir);
                }
            }
        }
    }
}

// ------------------------------------------------------------ graph layout

#[test]
fn streamed_graph_equals_in_memory_build_bitwise() {
    for (noise_name, noise) in NoiseModel::sweep() {
        for seed in [99u64, 0xD1CE] {
            let ds = dataset(220, noise, seed);
            let blocks = TokenBlocking::new().build(&ds.collection);
            let oracle = BlockingGraph::build(&ds.collection, &blocks);
            for threads in THREAD_COUNTS {
                for run_entries in RUN_SIZES {
                    let cfg = cfg_for("graph", &ds.collection, run_entries);
                    let streamed = BlockingGraph::par_build_ooc(
                        &ds.collection,
                        &blocks,
                        Parallelism::threads(threads),
                        &cfg,
                    )
                    .expect("streamed graph build succeeds");
                    let ctx = format!(
                        "noise={noise_name} seed={seed} threads={threads} \
                         run_entries={run_entries}"
                    );
                    assert_graphs_bitwise_equal(&streamed, &oracle, &ctx);
                    let _ = std::fs::remove_dir_all(&cfg.segment_dir);
                }
            }
        }
    }
}

// ----------------------------------------------------------- meta-blocking

/// The scheme pairs the meta-blocking cells run: edge- and node-centric,
/// weight- and cardinality-based, union and reciprocal.
const SCHEME_PAIRS: [(WeightingScheme, PruningScheme); 3] = [
    (WeightingScheme::Arcs, PruningScheme::Wep),
    (WeightingScheme::Cbs, PruningScheme::Cnp),
    (WeightingScheme::Js, PruningScheme::ReciprocalWnp),
];

#[test]
fn streamed_graph_prunes_to_the_pairs_the_scan_keeps() {
    let ds = dataset(220, NoiseModel::moderate(), 1234);
    let blocks = TokenBlocking::new().build(&ds.collection);
    for (weighting, pruning) in SCHEME_PAIRS {
        let oracle = par_meta_block(
            &ds.collection,
            &blocks,
            weighting,
            pruning,
            Parallelism::serial(),
        );
        for threads in THREAD_COUNTS {
            let cfg = cfg_for("meta", &ds.collection, 256);
            let par = Parallelism::threads(threads);
            let graph = BlockingGraph::par_build_ooc(&ds.collection, &blocks, par, &cfg)
                .expect("streamed graph build succeeds");
            assert_eq!(
                pruning.par_prune(&graph, weighting, par),
                oracle,
                "kept pairs diverged: {weighting:?}/{pruning:?} threads={threads}"
            );
            let _ = std::fs::remove_dir_all(&cfg.segment_dir);
        }
    }
}

// ------------------------------------------------------ pipeline end-to-end

#[test]
fn forced_out_of_core_pipeline_matches_the_default_run() {
    for seed in [42u64, 0xF00D] {
        let ds = dataset(180, NoiseModel::moderate(), seed);
        let plain = Pipeline::builder().build().run(&ds.collection);
        for threads in THREAD_COUNTS {
            let dir = ooc_dir("pipeline");
            let ooc = Pipeline::builder()
                .parallelism(Parallelism::threads(threads))
                .segment_dir(&dir)
                .out_of_core(true)
                .build()
                .run(&ds.collection);
            assert_eq!(ooc.matches, plain.matches, "seed={seed} threads={threads}");
            assert_eq!(
                ooc.clusters, plain.clusters,
                "seed={seed} threads={threads}"
            );
            assert_eq!(
                ooc.report.scheduled_comparisons, plain.report.scheduled_comparisons,
                "seed={seed} threads={threads}"
            );
            assert_eq!(ooc.report.shed_comparisons, 0, "ooc never sheds");
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Budget-bound cell: a memory budget of a quarter of the blocking
        // index resolves exactly as the unbudgeted run — spilled, not shed —
        // and every segment page drains back to the budget.
        let index_bytes: u64 = TokenBlocking::new()
            .build(&ds.collection)
            .blocks()
            .iter()
            .map(block_bytes)
            .sum();
        let dir = ooc_dir("pipeline_budget");
        let obs = Obs::enabled();
        let governed = Pipeline::builder()
            .observability(obs.clone())
            .resource_limits(ResourceLimits::none().with_memory_bytes(index_bytes / 4))
            .segment_dir(&dir)
            .out_of_core(true)
            .build()
            .run(&ds.collection);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(governed.matches, plain.matches, "seed={seed} budget-bound");
        assert_eq!(
            governed.clusters, plain.clusters,
            "seed={seed} budget-bound"
        );
        assert_eq!(
            governed.report.shed_comparisons, 0,
            "seed={seed}: the budget-bound run spills, it does not shed"
        );
        let snap = obs.snapshot();
        assert!(
            snap.counter("colstore.segments_written").unwrap_or(0) > 0,
            "seed={seed}: no segment reached disk"
        );
        assert_eq!(
            snap.gauge("colstore.resident_bytes"),
            Some(0.0),
            "seed={seed}: segment pages must drain back to the budget"
        );
    }
}

/// Meta-blocking has nothing to spill: an out-of-core run resolves exactly
/// as the in-memory one under any scheme pair, and writes no segment beyond
/// those of its blocking stage (the same pipeline without meta-blocking).
#[test]
fn out_of_core_pipeline_spills_blocking_and_nothing_else() {
    let ds = dataset(260, NoiseModel::moderate(), 42);
    let segments_of = |stage: Option<MetaBlockingStage>| {
        let dir = ooc_dir("scan_only");
        let builder = Pipeline::builder()
            .observability(Obs::enabled())
            .parallelism(Parallelism::threads(2))
            .segment_dir(&dir)
            .out_of_core(true);
        let p = match stage {
            Some(stage) => builder.meta_blocking(stage),
            None => builder.no_meta_blocking(),
        }
        .build();
        let resolution = p.run(&ds.collection);
        let _ = std::fs::remove_dir_all(&dir);
        let written = p.metrics().counter("colstore.segments_written");
        (resolution, written.expect("an out-of-core run spills"))
    };
    let (_, blocking_alone) = segments_of(None);
    assert!(blocking_alone > 0);
    for (weighting, pruning) in SCHEME_PAIRS {
        let stage = MetaBlockingStage { weighting, pruning };
        let in_memory = Pipeline::builder()
            .meta_blocking(stage)
            .build()
            .run(&ds.collection);
        let (ooc, written) = segments_of(Some(stage));
        assert_eq!(ooc.matches, in_memory.matches, "{weighting:?}/{pruning:?}");
        assert_eq!(
            ooc.clusters, in_memory.clusters,
            "{weighting:?}/{pruning:?}"
        );
        assert_eq!(
            ooc.report.blocked_comparisons, in_memory.report.blocked_comparisons,
            "{weighting:?}/{pruning:?}"
        );
        assert_eq!(
            ooc.report.scheduled_comparisons, in_memory.report.scheduled_comparisons,
            "{weighting:?}/{pruning:?}"
        );
        assert_eq!(written, blocking_alone, "{weighting:?}/{pruning:?}");
    }
}

/// Forced out-of-core is a property of the stage walk, not of one entry
/// point: `run` and `run_with_recovery` spill the same segments, merge the
/// same runs and record the same meta-blocking ledger. (They drifted once —
/// the recovery driver built the graph in memory, 1 segment against 2.)
#[test]
fn out_of_core_entry_points_write_the_same_segments() {
    let ds = dataset(300, NoiseModel::moderate(), 42);
    let snapshot_of = |recovered: bool| {
        let dir = ooc_dir("entry_points");
        let p = Pipeline::builder()
            .observability(Obs::enabled())
            .segment_dir(&dir)
            .out_of_core(true)
            .build();
        if recovered {
            p.run_with_recovery(&ds.collection, &RecoveryOptions::default())
                .expect("fault-free recovery run");
        } else {
            p.run(&ds.collection);
        }
        let _ = std::fs::remove_dir_all(&dir);
        p.metrics()
    };
    let (plain, recovered) = (snapshot_of(false), snapshot_of(true));
    for key in [
        "colstore.segments_written",
        "colstore.runs_merged",
        "meta_blocking.edges_weighted",
        "meta_blocking.comparisons_before",
        "meta_blocking.comparisons_after",
        "meta_blocking.comparisons_pruned",
    ] {
        assert!(
            plain.counter(key).unwrap_or(0) > 0,
            "{key} must be recorded"
        );
        assert_eq!(plain.counter(key), recovered.counter(key), "{key}");
    }
}

// --------------------------------------------------------------- governance

#[test]
fn successful_builds_remove_every_run_file() {
    let ds = dataset(220, NoiseModel::moderate(), 13);
    let blocks = TokenBlocking::new().build(&ds.collection);

    let cfg = cfg_for("cleanup_token", &ds.collection, 64);
    TokenBlocking::new()
        .par_build_ooc_obs(
            &ds.collection,
            Parallelism::threads(4),
            &Obs::disabled(),
            &cfg,
        )
        .expect("streamed build succeeds");
    let leftovers: Vec<_> = std::fs::read_dir(&cfg.segment_dir)
        .expect("spill dir exists")
        .collect();
    assert!(
        leftovers.is_empty(),
        "token run files must be removed after the merge: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&cfg.segment_dir);

    let cfg = cfg_for("cleanup_graph", &ds.collection, 64);
    BlockingGraph::par_build_ooc(&ds.collection, &blocks, Parallelism::threads(4), &cfg)
        .expect("streamed graph build succeeds");
    let leftovers: Vec<_> = std::fs::read_dir(&cfg.segment_dir)
        .expect("spill dir exists")
        .collect();
    assert!(
        leftovers.is_empty(),
        "edge run files must be removed after the merge: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&cfg.segment_dir);
}

#[test]
fn tiny_budget_streams_to_completion_and_drains() {
    // A 4 KiB budget cannot hold the blocking index, but the streaming
    // reader releases every page behind its cursor, so a deep k-way merge
    // still completes — and the budget drains fully once the build returns.
    let ds = dataset(220, NoiseModel::moderate(), 21);
    let budget = MemoryBudget::bytes(4096);
    let cfg = cfg_for("budget", &ds.collection, 64)
        .with_page_bytes(512)
        .with_budget(budget.clone());
    let oracle = TokenBlocking::new().par_build(&ds.collection, Parallelism::serial());
    let streamed = TokenBlocking::new()
        .par_build_ooc_obs(
            &ds.collection,
            Parallelism::threads(4),
            &Obs::disabled(),
            &cfg,
        )
        .expect("a 4 KiB budget streams, it does not refuse");
    assert_eq!(streamed, oracle, "identity holds under a 4 KiB budget");
    assert_eq!(budget.used(), 0, "the build released its whole reservation");
    let _ = std::fs::remove_dir_all(&cfg.segment_dir);
}

// ---------------------------------------------------------- property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streamed token blocking == in-memory build on arbitrary
    /// micro-collections at the spill-floor run size and every thread count.
    #[test]
    fn prop_streamed_token_blocking_equals_in_memory(values in values_strategy()) {
        let c = collection_from_values(&values);
        let tb = TokenBlocking::new();
        let oracle = tb.par_build(&c, Parallelism::serial());
        for threads in THREAD_COUNTS {
            let cfg = cfg_for("prop_token", &c, 64);
            let streamed = tb
                .par_build_ooc_obs(&c, Parallelism::threads(threads), &Obs::disabled(), &cfg)
                .expect("streamed build succeeds");
            let cleanup = std::fs::remove_dir_all(&cfg.segment_dir);
            prop_assert_eq!(&streamed, &oracle, "threads={}", threads);
            prop_assert!(cleanup.is_ok());
        }
    }

    /// Streamed graph == in-memory build (ARCS bits included) on arbitrary
    /// micro-collections.
    #[test]
    fn prop_streamed_graph_equals_in_memory(values in values_strategy()) {
        let c = collection_from_values(&values);
        let blocks = TokenBlocking::new().build(&c);
        let oracle = BlockingGraph::build(&c, &blocks);
        for threads in THREAD_COUNTS {
            let cfg = cfg_for("prop_graph", &c, 64);
            let streamed = BlockingGraph::par_build_ooc(
                &c, &blocks, Parallelism::threads(threads), &cfg,
            ).expect("streamed graph build succeeds");
            let cleanup = std::fs::remove_dir_all(&cfg.segment_dir);
            prop_assert_eq!(&streamed, &oracle, "threads={}", threads);
            for (pair, e) in streamed.edges() {
                let o = oracle.edge(pair).unwrap();
                prop_assert_eq!(e.arcs.to_bits(), o.arcs.to_bits(),
                    "ARCS not bit-identical at {:?}", pair);
            }
            prop_assert!(cleanup.is_ok());
        }
    }
}
