//! Thread-count rows of the product oracle: every `par_*` blocking and
//! meta-blocking kernel, and the pipeline, at threads {1, 2, 4, 8} against
//! its serial build (`docs/parallelism.md` says how each kernel keeps the
//! contract). The scan rows hold the node-centric scan the pipeline runs
//! (`node_scan`) to the `BTreeMap` reference graph's serial prune, for all
//! 30 scheme pairs. Outputs compare with `==`, graphs and ARCS weights
//! bitwise. The similarity-join and matching rows, and every other
//! execution mode, are in `entry_point_matrix.rs`.

use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::block::BlockCollection;
use er_blocking::{cleaning, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::obs::Obs;
use er_datagen::{CleanCleanConfig, CleanCleanDataset, NoiseModel};
use er_integration_tests::{
    assert_same_resolution, collection_from_values, dataset, graph_row, noise_sweep, row, threaded,
    values_strategy,
};
use er_metablocking::{node_scan, BlockingGraph, Pruned, PruningScheme, WeightingScheme};
use er_pipeline::Pipeline;
use proptest::prelude::*;

/// Token blocking's serial build against every thread count.
fn token_blocking_cells(c: &EntityCollection, ctx: &str) {
    let tb = TokenBlocking::new();
    row(
        &tb.build(c),
        ctx,
        threaded("par", |par| tb.par_build(c, par)),
    );
}

#[test]
fn token_blocking_parallel_equals_serial_across_seeds_and_noise() {
    for seed in [7u64, 1234, 0xBE9C] {
        for (ctx, ds) in noise_sweep(220, seed) {
            token_blocking_cells(&ds.collection, &ctx);
        }
    }
}

#[test]
fn attribute_clustering_parallel_equals_serial() {
    for seed in [11u64, 4242] {
        let c = &dataset(200, NoiseModel::moderate(), seed).collection;
        let acb = AttributeClusteringBlocking::new().with_link_threshold(0.1);
        let variants = threaded("par", |par| acb.par_build(c, par));
        row(&acb.build(c), &format!("seed={seed}"), variants);
    }
}

#[test]
fn blocking_graph_parallel_build_is_bit_identical() {
    // The ARCS accumulator is a non-associative f64 sum: each pair's is
    // folded in block order inside one node's walk, so no split of the nodes
    // across threads can regroup it.
    for (ctx, ds) in noise_sweep(250, 99) {
        let c = &ds.collection;
        let blocks = TokenBlocking::new().build(c);
        let variants = threaded("par", |par| BlockingGraph::par_build(c, &blocks, par));
        graph_row(&BlockingGraph::build(c, &blocks), &ctx, variants);
    }
}

/// The row corpus of the weighting and pruning kernels.
fn weighted_graph() -> BlockingGraph {
    let c = &dataset(250, NoiseModel::moderate(), 5).collection;
    BlockingGraph::build(c, &TokenBlocking::new().build(c))
}

#[test]
fn edge_weighting_parallel_is_bit_identical_for_every_scheme() {
    let graph = weighted_graph();
    for weighting in WeightingScheme::ALL {
        let weights = threaded("par", |par| weighting.par_weigh_all(&graph, par));
        row(&weighting.weigh_all(&graph), weighting.name(), weights);
    }
}

#[test]
fn pruning_parallel_equals_serial_for_every_scheme_pair() {
    let graph = weighted_graph();
    for (weighting, pruning) in all_schemes() {
        let ctx = format!("{}/{}", weighting.name(), pruning.name());
        let kept = threaded("par", |par| pruning.par_prune(&graph, weighting, par));
        row(&pruning.prune(&graph, weighting), &ctx, kept);
    }
}

/// Every (weighting, pruning) scheme pair.
fn all_schemes() -> Vec<(WeightingScheme, PruningScheme)> {
    let pairs = WeightingScheme::ALL.into_iter();
    pairs
        .flat_map(|w| PruningScheme::ALL.map(|p| (w, p)))
        .collect()
}

/// The reference graph's serial prune against the node scan at every thread
/// count — kept pairs and the blocked count — per scheme pair. Returns the
/// graph's edge count.
fn scan_cells(
    c: &EntityCollection,
    blocks: &BlockCollection,
    schemes: &[(WeightingScheme, PruningScheme)],
    ctx: &str,
) -> usize {
    let graph = BlockingGraph::build_reference(c, blocks);
    for &(weighting, pruning) in schemes {
        let oracle = Pruned {
            kept: pruning.prune(&graph, weighting),
            blocked_comparisons: graph.n_edges() as u64,
        };
        let scans = threaded("scan", |par| {
            node_scan(c, blocks, weighting, pruning, par, &Obs::disabled())
        });
        let ctx = format!("{ctx} {}/{}", weighting.name(), pruning.name());
        row(&oracle, &ctx, scans);
    }
    graph.n_edges()
}

/// [`scan_cells`] for every scheme pair on `blocks` and on their auto purge.
fn purged_and_unpurged(c: &EntityCollection, blocks: &BlockCollection, ctx: &str) {
    let purged = cleaning::auto_purge(blocks, c);
    assert!(
        purged.len() < blocks.len(),
        "{ctx}: purging must drop blocks"
    );
    for (what, blocks) in [("unpurged", blocks), ("purged", &purged)] {
        let edges = scan_cells(c, blocks, &all_schemes(), &format!("{ctx} {what}"));
        assert!(edges > 0, "{ctx} {what}: needs a non-empty graph");
    }
}

#[test]
fn meta_block_end_to_end_parallel_equals_serial() {
    // The pipeline's own scheme pair on light noise.
    let arcs_wnp = [(WeightingScheme::Arcs, PruningScheme::Wnp)];
    for seed in [3u64, 77] {
        let c = dataset(300, NoiseModel::light(), seed).collection;
        let blocks = TokenBlocking::new().build(&c);
        scan_cells(&c, &blocks, &arcs_wnp, &format!("light seed={seed}"));
    }
}

#[test]
fn scan_equals_graph_on_dirty_collections_purged_and_unpurged() {
    // Unpurged token blocks put many neighbourhoods exactly on their mean
    // weight, so one wrong ARCS bit flips a kept pair; many pairs also share
    // many blocks, whose long sums are where a wrong fold order shows.
    for seed in [7u64, 1234] {
        let c = dataset(260, NoiseModel::moderate(), seed).collection;
        let blocks = TokenBlocking::new().build(&c);
        assert!(blocks.len() > 64, "needs many blocks");
        purged_and_unpurged(&c, &blocks, &format!("dirty seed={seed}"));
    }
}

#[test]
fn scan_equals_graph_on_clean_clean_collections() {
    // Clean–clean: same-KB pairs are inadmissible and single-KB blocks have
    // cardinality 0 — they count towards ECBS and JS but add no edge.
    let c = CleanCleanDataset::generate(&CleanCleanConfig {
        shared_entities: 90,
        only_first: 40,
        only_second: 40,
        ..CleanCleanConfig::default()
    })
    .collection;
    let blocks = TokenBlocking::new().build(&c);
    let single_kb = blocks.blocks().iter().any(|b| b.comparisons(&c) == 0);
    assert!(single_kb, "needs a single-KB block");
    purged_and_unpurged(&c, &blocks, "clean-clean");
}

#[test]
fn full_pipeline_parallel_equals_serial_across_noise() {
    for (ctx, ds) in noise_sweep(250, 31) {
        let c = &ds.collection;
        let want = Pipeline::builder().build().run(c);
        for (variant, got) in threaded("pipeline", |par| {
            Pipeline::builder().parallelism(par).build().run(c)
        }) {
            assert_same_resolution(&got, &want, &format!("{ctx} × {variant}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_token_blocking_thread_count_invariant(values in values_strategy()) {
        token_blocking_cells(&collection_from_values(&values), &format!("values={values:?}"));
    }

    /// The graph and its ARCS/WNP prune on irregular block-size
    /// distributions.
    #[test]
    fn prop_meta_blocking_thread_count_invariant(values in values_strategy()) {
        let c = collection_from_values(&values);
        let blocks = TokenBlocking::new().build(&c);
        let ctx = format!("values={values:?}");
        let graph = BlockingGraph::build(&c, &blocks);
        graph_row(&graph, &ctx, threaded("par", |par| BlockingGraph::par_build(&c, &blocks, par)));
        let (arcs, wnp) = (WeightingScheme::Arcs, PruningScheme::Wnp);
        let pruned = threaded("prune", |par| wnp.par_prune(&graph, arcs, par));
        row(&wnp.prune(&graph, arcs), &ctx, pruned);
        scan_cells(&c, &blocks, &all_schemes(), &ctx);
    }
}
