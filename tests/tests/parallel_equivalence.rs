//! Serial-equivalence harness for the rayon-parallel hot kernels.
//!
//! Every `par_*` entry point in the workspace promises output **bit-identical**
//! to its serial counterpart at every thread count (see `docs/parallelism.md`
//! for how each kernel upholds the contract). This suite checks the promise
//! for the four hot kernels —
//!
//! 1. blocking inverted-index construction (`TokenBlocking::par_build`,
//!    `AttributeClusteringBlocking::par_build`),
//! 2. meta-blocking graph build, edge weighting and pruning
//!    (`BlockingGraph::par_build`, `par_weigh_all`, `par_prune`,
//!    `par_meta_block`), and — section *scan ≡ graph* — the node-centric
//!    scan that `par_meta_block` and the pipeline run (`node_scan`) against
//!    the materialised reference graph, for every scheme pair,
//! 3. similarity-join candidate verification (`SimilarityJoin::par_run`),
//! 4. batch pair matching (`par_resolve_candidates`, `par_decide_candidates`)
//!
//! — across worker counts {1, 2, 4, 8}, generator seeds and noise levels,
//! both as direct assertions on fixed presets and as property tests over
//! random micro-collections. Float-carrying outputs (ARCS weights, Jaccard
//! scores) are compared with `==`, i.e. bitwise: "close enough" is not the
//! contract.

use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::simjoin::{JoinAlgorithm, SimilarityJoin};
use er_blocking::TokenBlocking;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::KbId;
use er_core::matching::{
    par_decide_candidates, par_resolve_candidates, resolve_candidates, ThresholdMatcher,
};
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::similarity::SetMeasure;
use er_datagen::{CleanCleanConfig, CleanCleanDataset, DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::{
    meta_block, node_scan, par_meta_block, BlockingGraph, PruningScheme, WeightingScheme,
};
use proptest::prelude::*;

/// The worker counts every kernel is checked at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn dataset(entities: usize, noise: NoiseModel, seed: u64) -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(entities, noise, seed))
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

// ---------------------------------------------------------------- kernel 1

#[test]
fn token_blocking_parallel_equals_serial_across_seeds_and_noise() {
    for (noise_name, noise) in NoiseModel::sweep() {
        for seed in [7u64, 1234, 0xBE9C] {
            let ds = dataset(220, noise, seed);
            let serial = TokenBlocking::new().build(&ds.collection);
            for threads in THREAD_COUNTS {
                let par =
                    TokenBlocking::new().par_build(&ds.collection, Parallelism::threads(threads));
                assert_eq!(
                    par, serial,
                    "token blocking diverged: noise={noise_name} seed={seed} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn attribute_clustering_parallel_equals_serial() {
    for seed in [11u64, 4242] {
        let ds = dataset(200, NoiseModel::moderate(), seed);
        let acb = AttributeClusteringBlocking::new().with_link_threshold(0.1);
        let serial = acb.build(&ds.collection);
        for threads in THREAD_COUNTS {
            let par = acb.par_build(&ds.collection, Parallelism::threads(threads));
            assert_eq!(par, serial, "seed={seed} threads={threads}");
        }
    }
}

// ---------------------------------------------------------------- kernel 2

#[test]
fn blocking_graph_parallel_build_is_bit_identical() {
    // The ARCS accumulator is a non-associative f64 sum — the fixed-chunk
    // merge must make it thread-count independent, checked here via the
    // graph's derived PartialEq (f64 fields compare bitwise).
    for (noise_name, noise) in NoiseModel::sweep() {
        let ds = dataset(250, noise, 99);
        let blocks = TokenBlocking::new().build(&ds.collection);
        let serial = BlockingGraph::build(&ds.collection, &blocks);
        for threads in THREAD_COUNTS {
            let par =
                BlockingGraph::par_build(&ds.collection, &blocks, Parallelism::threads(threads));
            assert_eq!(par, serial, "noise={noise_name} threads={threads}");
        }
    }
}

#[test]
fn edge_weighting_parallel_is_bit_identical_for_every_scheme() {
    let ds = dataset(250, NoiseModel::moderate(), 5);
    let blocks = TokenBlocking::new().build(&ds.collection);
    let graph = BlockingGraph::build(&ds.collection, &blocks);
    for scheme in WeightingScheme::ALL {
        let serial = scheme.weigh_all(&graph);
        for threads in THREAD_COUNTS {
            let par = scheme.par_weigh_all(&graph, Parallelism::threads(threads));
            assert_eq!(
                par,
                serial,
                "{} diverged at {threads} threads",
                scheme.name()
            );
        }
    }
}

#[test]
fn pruning_parallel_equals_serial_for_every_scheme_pair() {
    let ds = dataset(250, NoiseModel::moderate(), 5);
    let blocks = TokenBlocking::new().build(&ds.collection);
    let graph = BlockingGraph::build(&ds.collection, &blocks);
    for weighting in WeightingScheme::ALL {
        for pruning in PruningScheme::ALL {
            let serial = pruning.prune(&graph, weighting);
            for threads in THREAD_COUNTS {
                let par = pruning.par_prune(&graph, weighting, Parallelism::threads(threads));
                assert_eq!(
                    par,
                    serial,
                    "{}/{} diverged at {threads} threads",
                    weighting.name(),
                    pruning.name()
                );
            }
        }
    }
}

#[test]
fn meta_block_end_to_end_parallel_equals_serial() {
    for seed in [3u64, 77] {
        let ds = dataset(300, NoiseModel::light(), seed);
        let blocks = TokenBlocking::new().build(&ds.collection);
        let serial = meta_block(
            &ds.collection,
            &blocks,
            WeightingScheme::Arcs,
            PruningScheme::Wnp,
        );
        for threads in THREAD_COUNTS {
            let par = par_meta_block(
                &ds.collection,
                &blocks,
                WeightingScheme::Arcs,
                PruningScheme::Wnp,
                Parallelism::threads(threads),
            );
            assert_eq!(par, serial, "seed={seed} threads={threads}");
        }
    }
}

// ------------------------------------------------------------ scan ≡ graph

/// The scan against the tree-map reference graph + serial prune, for all 30
/// scheme pairs at every thread count: equal kept pairs, and a blocked count
/// equal to the graph's edge count.
fn assert_scan_equals_graph(
    collection: &EntityCollection,
    blocks: &er_blocking::block::BlockCollection,
    what: &str,
) {
    let graph = BlockingGraph::build_reference(collection, blocks);
    assert!(graph.n_edges() > 0, "{what}: needs a non-empty graph");
    for weighting in WeightingScheme::ALL {
        for pruning in PruningScheme::ALL {
            let expected = pruning.prune(&graph, weighting);
            for threads in THREAD_COUNTS {
                let got = node_scan(
                    collection,
                    blocks,
                    weighting,
                    pruning,
                    Parallelism::threads(threads),
                    &Obs::disabled(),
                );
                let cell = format!(
                    "{what} {}/{} threads={threads}",
                    weighting.name(),
                    pruning.name()
                );
                assert_eq!(got.blocked_comparisons, graph.n_edges() as u64, "{cell}");
                assert_eq!(got.kept, expected, "{cell}");
            }
        }
    }
}

#[test]
fn scan_equals_graph_on_dirty_collections_purged_and_unpurged() {
    // Unpurged token blocks put many neighbourhoods exactly on their mean
    // weight, so one wrong ARCS bit flips a kept pair; they also span many
    // 32-block chunks, which is where the two-level fold order matters.
    for seed in [7u64, 1234] {
        let ds = dataset(260, NoiseModel::moderate(), seed);
        let blocks = TokenBlocking::new().build(&ds.collection);
        assert!(blocks.len() > 64, "must span several graph chunks");
        assert_scan_equals_graph(&ds.collection, &blocks, &format!("dirty seed={seed}"));
        let purged = er_blocking::cleaning::auto_purge(&blocks, &ds.collection);
        assert!(purged.len() < blocks.len(), "purging must drop blocks");
        assert_scan_equals_graph(&ds.collection, &purged, &format!("purged seed={seed}"));
    }
}

#[test]
fn scan_equals_graph_on_clean_clean_collections() {
    // Clean–clean: same-KB pairs are inadmissible and blocks drawn from one
    // KB have cardinality 0 — they count towards an entity's blocks (ECBS,
    // JS) but contribute no edge.
    let ds = CleanCleanDataset::generate(&CleanCleanConfig {
        shared_entities: 90,
        only_first: 40,
        only_second: 40,
        ..CleanCleanConfig::default()
    });
    let blocks = TokenBlocking::new().build(&ds.collection);
    assert!(
        blocks
            .blocks()
            .iter()
            .any(|b| b.comparisons(&ds.collection) == 0),
        "needs a single-KB block"
    );
    assert_scan_equals_graph(&ds.collection, &blocks, "clean-clean");
    let purged = er_blocking::cleaning::auto_purge(&blocks, &ds.collection);
    assert_scan_equals_graph(&ds.collection, &purged, "clean-clean purged");
}

// ---------------------------------------------------------------- kernel 3

#[test]
fn simjoin_parallel_equals_serial_for_every_algorithm_and_threshold() {
    for (noise_name, noise) in NoiseModel::sweep() {
        let ds = dataset(150, noise, 21);
        for alg in [
            JoinAlgorithm::Naive,
            JoinAlgorithm::AllPairs,
            JoinAlgorithm::PPJoin,
        ] {
            for t in [0.3, 0.5, 0.8] {
                let join = SimilarityJoin::new(t, alg);
                let serial = join.run(&ds.collection);
                for threads in THREAD_COUNTS {
                    let par = join.par_run(&ds.collection, Parallelism::threads(threads));
                    // Jaccard scores compare bitwise: verification is a pure
                    // per-candidate function, merged in candidate order.
                    assert_eq!(
                        par.pairs,
                        serial.pairs,
                        "{} t={t} noise={noise_name} threads={threads}",
                        alg.name()
                    );
                    assert_eq!(
                        par.candidates_verified,
                        serial.candidates_verified,
                        "{} t={t} noise={noise_name} threads={threads}",
                        alg.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- kernel 4

#[test]
fn matching_parallel_equals_serial() {
    let ds = dataset(300, NoiseModel::moderate(), 13);
    let blocks = TokenBlocking::new().build(&ds.collection);
    let candidates = blocks.distinct_pairs(&ds.collection);
    let matcher = ThresholdMatcher::new(SetMeasure::Jaccard, 0.4);
    let serial = resolve_candidates(&ds.collection, &matcher, &candidates);
    let serial_scored: Vec<_> = candidates
        .iter()
        .map(|&p| {
            (
                p,
                er_core::matching::compare_pair(&ds.collection, &matcher, p),
            )
        })
        .collect();
    for threads in THREAD_COUNTS {
        let par = Parallelism::threads(threads);
        assert_eq!(
            par_resolve_candidates(&ds.collection, &matcher, &candidates, par),
            serial,
            "{threads} threads"
        );
        // Scores (f64) compare bitwise too.
        assert_eq!(
            par_decide_candidates(&ds.collection, &matcher, &candidates, par),
            serial_scored,
            "{threads} threads"
        );
    }
}

// ------------------------------------------------------------- end to end

#[test]
fn full_pipeline_parallel_equals_serial_across_noise() {
    for (noise_name, noise) in NoiseModel::sweep() {
        let ds = dataset(250, noise, 31);
        let serial = er_pipeline::Pipeline::builder().build().run(&ds.collection);
        for threads in [2usize, 4, 8] {
            let par = er_pipeline::Pipeline::builder()
                .parallelism(Parallelism::threads(threads))
                .build()
                .run(&ds.collection);
            assert_eq!(
                par.matches, serial.matches,
                "noise={noise_name} threads={threads}"
            );
            assert_eq!(
                par.clusters, serial.clusters,
                "noise={noise_name} threads={threads}"
            );
        }
    }
}

// ---------------------------------------------------------- property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Token blocking: par == serial on arbitrary micro-collections at every
    /// thread count.
    #[test]
    fn prop_token_blocking_thread_count_invariant(values in values_strategy()) {
        let c = collection_from_values(&values);
        let serial = TokenBlocking::new().build(&c);
        for threads in THREAD_COUNTS {
            let par = TokenBlocking::new().par_build(&c, Parallelism::threads(threads));
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
    }

    /// Meta-blocking (graph + ARCS/WNP prune): par == serial on arbitrary
    /// micro-collections, exercising the f64 fixed-chunk merge on irregular
    /// block-size distributions.
    #[test]
    fn prop_meta_blocking_thread_count_invariant(values in values_strategy()) {
        let c = collection_from_values(&values);
        let blocks = TokenBlocking::new().build(&c);
        let graph = BlockingGraph::build(&c, &blocks);
        let serial = PruningScheme::Wnp.prune(&graph, WeightingScheme::Arcs);
        for threads in THREAD_COUNTS {
            let pg = BlockingGraph::par_build(&c, &blocks, Parallelism::threads(threads));
            prop_assert_eq!(&pg, &graph, "graph diverged, threads={}", threads);
            let par = PruningScheme::Wnp.par_prune(&pg, WeightingScheme::Arcs, Parallelism::threads(threads));
            prop_assert_eq!(&par, &serial, "prune diverged, threads={}", threads);
        }
    }

    /// Similarity join: par == serial (pairs, scores and verification count)
    /// on arbitrary micro-collections and thresholds.
    #[test]
    fn prop_simjoin_thread_count_invariant(values in values_strategy(), tq in 1u32..10) {
        let t = tq as f64 / 10.0;
        let c = collection_from_values(&values);
        let join = SimilarityJoin::new(t, JoinAlgorithm::PPJoin);
        let serial = join.run(&c);
        for threads in THREAD_COUNTS {
            let par = join.par_run(&c, Parallelism::threads(threads));
            prop_assert_eq!(&par.pairs, &serial.pairs, "threads={}", threads);
            prop_assert_eq!(par.candidates_verified, serial.candidates_verified,
                "threads={}", threads);
        }
    }

    /// Batch matching: par == serial on arbitrary micro-collections.
    #[test]
    fn prop_matching_thread_count_invariant(values in values_strategy(), tq in 1u32..10) {
        let t = tq as f64 / 10.0;
        let c = collection_from_values(&values);
        let candidates = c.all_pairs();
        let matcher = ThresholdMatcher::new(SetMeasure::Jaccard, t);
        let serial = resolve_candidates(&c, &matcher, &candidates);
        for threads in THREAD_COUNTS {
            let par = par_resolve_candidates(&c, &matcher, &candidates, Parallelism::threads(threads));
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
    }
}
