//! Out-of-core rows of the product oracle: token blocking spilled as sorted
//! `(Symbol, EntityId)` posting runs (`er_blocking::ooc`) against the
//! in-memory build, at 1 and 4 workers × run sizes from the spill floor to
//! one run; and the pipeline under `out_of_core(true)` against the default
//! run, spilling blocking alone (meta-blocking has nothing to spill; the
//! scan ≡ graph + prune row is `er_metablocking`'s
//! `scan_equals_graph_and_prune_across_bitmap_words`). Every streamed build
//! must also leave its spill directory empty, and a budget far below the
//! index must still stream to completion and drain. The other execution
//! modes, and forced out-of-core crossed with them, are in
//! `entry_point_matrix.rs`.

use er_blocking::governance::block_bytes;
use er_blocking::TokenBlocking;
use er_core::collection::EntityCollection;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::resource::{MemoryBudget, ResourceLimits};
use er_datagen::NoiseModel;
use er_integration_tests::{
    assert_same_resolution, collection_from_values, dataset, noise_sweep, row, spilled,
    values_strategy, ScratchDir, OOC_CELLS,
};
use er_metablocking::{PruningScheme, WeightingScheme};
use er_pipeline::{MetaBlockingStage, Pipeline, PipelineBuilder, RecoveryOptions};
use proptest::prelude::*;

/// The in-memory token blocking against the streamed build at `cells`.
fn token_blocking_cells(
    c: &EntityCollection,
    cells: &[(usize, usize)],
    budget: Option<&MemoryBudget>,
    ctx: &str,
) {
    let tb = TokenBlocking::new();
    let streamed = spilled(c, cells, budget, |cfg, par| {
        tb.par_build_ooc_obs(c, par, &Obs::disabled(), cfg)
            .expect("streamed build succeeds")
    });
    row(&tb.par_build(c, Parallelism::serial()), ctx, streamed);
}

#[test]
fn streamed_token_blocking_equals_in_memory_build() {
    for seed in [7u64, 0xBE9C] {
        for (ctx, ds) in noise_sweep(220, seed) {
            token_blocking_cells(&ds.collection, &OOC_CELLS, None, &ctx);
        }
    }
}

/// The scheme pairs the meta-blocking cells run: edge- and node-centric,
/// weight- and cardinality-based, union and reciprocal.
const SCHEME_PAIRS: [(WeightingScheme, PruningScheme); 3] = [
    (WeightingScheme::Arcs, PruningScheme::Wep),
    (WeightingScheme::Cbs, PruningScheme::Cnp),
    (WeightingScheme::Js, PruningScheme::ReciprocalWnp),
];

#[test]
fn forced_out_of_core_pipeline_matches_the_default_run() {
    for seed in [42u64, 0xF00D] {
        let c = &dataset(180, NoiseModel::moderate(), seed).collection;
        let want = Pipeline::builder().build().run(c);
        let forced = |b: PipelineBuilder, dir: &ScratchDir| b.segment_dir(&**dir).out_of_core(true);
        for threads in [1, 4] {
            let dir = ScratchDir::new("ooc-pipeline");
            let b = Pipeline::builder().parallelism(Parallelism::threads(threads));
            let got = forced(b, &dir).build().run(c);
            assert_same_resolution(&got, &want, &format!("seed={seed} threads={threads}"));
        }

        // A memory budget of a quarter of the blocking index resolves
        // exactly as the unbudgeted run — spilled, not shed — and every
        // read drains back to the budget.
        let index = TokenBlocking::new().build(c);
        let index_bytes: u64 = index.blocks().iter().map(block_bytes).sum();
        let (dir, obs) = (ScratchDir::new("ooc-budget"), Obs::enabled());
        let limits = ResourceLimits::none().with_memory_bytes(index_bytes / 4);
        let b = Pipeline::builder()
            .observability(obs.clone())
            .resource_limits(limits);
        let got = forced(b, &dir).build().run(c);
        assert_same_resolution(&got, &want, &format!("seed={seed} budget-bound"));
        let snap = obs.snapshot();
        let written = snap.counter("colstore.segments_written").unwrap_or(0);
        assert!(written > 0, "seed={seed}: no segment reached disk");
        let resident = snap.gauge("colstore.resident_bytes");
        assert_eq!(resident, Some(0.0), "seed={seed}: reads drain");
    }
}

/// Meta-blocking has nothing to spill: under any scheme pair, `run` and
/// `run_with_recovery` out of core resolve as the in-memory run, write the
/// segments of their blocking stage alone, and record the same ledger.
/// (The entry points drifted once — the recovery driver built the graph in
/// memory, 1 segment against 2.)
fn spills_blocking_alone_from_every_entry_point(entities: usize, par: Parallelism) {
    let c = &dataset(entities, NoiseModel::moderate(), 42).collection;
    let spilled = |stage: Option<MetaBlockingStage>, recovered: bool| {
        let dir = ScratchDir::new("ooc-entry");
        let b = Pipeline::builder()
            .segment_dir(&*dir)
            .out_of_core(true)
            .observability(Obs::enabled())
            .parallelism(par);
        let p = match stage {
            Some(stage) => b.meta_blocking(stage),
            None => b.no_meta_blocking(),
        }
        .build();
        let recover = || p.run_with_recovery(c, &RecoveryOptions::default()).unwrap();
        let res = if recovered {
            recover().resolution
        } else {
            p.run(c)
        };
        (res, p.metrics())
    };
    let blocking_alone = spilled(None, false).1.counter("colstore.segments_written");
    assert!(blocking_alone.unwrap_or(0) > 0, "an out-of-core run spills");
    let arcs_wnp = (WeightingScheme::Arcs, PruningScheme::Wnp);
    for (weighting, pruning) in std::iter::once(arcs_wnp).chain(SCHEME_PAIRS) {
        let stage = MetaBlockingStage { weighting, pruning };
        let want = Pipeline::builder().meta_blocking(stage).build().run(c);
        let (plain, plain_snap) = spilled(Some(stage), false);
        let (recovered, recovered_snap) = spilled(Some(stage), true);
        let cell = format!("n={entities} {par:?} {weighting:?}/{pruning:?}");
        assert_same_resolution(&plain, &want, &format!("{cell} × run"));
        assert_same_resolution(&recovered, &want, &format!("{cell} × run_with_recovery"));
        for key in [
            "colstore.segments_written",
            "colstore.runs_merged",
            "meta_blocking.edges_weighted",
            "meta_blocking.comparisons_before",
            "meta_blocking.comparisons_after",
            "meta_blocking.comparisons_pruned",
        ] {
            assert!(plain_snap.counter(key).unwrap_or(0) > 0, "{cell}: {key}");
            let (plain, recovered) = (plain_snap.counter(key), recovered_snap.counter(key));
            assert_eq!(plain, recovered, "{cell}: {key}");
        }
        let written = plain_snap.counter("colstore.segments_written");
        assert_eq!(written, blocking_alone, "{cell}");
    }
}

#[test]
fn out_of_core_pipeline_spills_blocking_and_nothing_else() {
    spills_blocking_alone_from_every_entry_point(260, Parallelism::threads(2));
}

#[test]
fn out_of_core_entry_points_write_the_same_segments() {
    spills_blocking_alone_from_every_entry_point(300, Parallelism::serial());
}

#[test]
fn successful_builds_remove_every_run_file() {
    // `spilled` asserts each build's spill directory is empty afterwards.
    let c = &dataset(220, NoiseModel::moderate(), 13).collection;
    token_blocking_cells(c, &[(4, 64)], None, "cleanup");
}

#[test]
fn tiny_budget_streams_to_completion_and_drains() {
    // A 4 KiB budget cannot hold the blocking index, but the reader charges
    // one page at a time, so a deep k-way merge still completes — and the
    // budget drains fully once the build returns.
    let c = &dataset(220, NoiseModel::moderate(), 21).collection;
    let budget = MemoryBudget::bytes(4096);
    token_blocking_cells(c, &[(1, 64), (4, 64)], Some(&budget), "4 KiB");
}

/// The property rows' cells: the spill floor on both worker counts.
const FLOOR_CELLS: [(usize, usize); 2] = [(1, 64), (4, 64)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_streamed_token_blocking_equals_in_memory(values in values_strategy()) {
        let c = collection_from_values(&values);
        token_blocking_cells(&c, &FLOOR_CELLS, None, &format!("values={values:?}"));
    }

}
