//! Criterion microbenchmarks over the hot kernels of the workspace:
//! tokenization, similarity functions, blocking construction, meta-blocking
//! graph + weighting, similarity joins, Swoosh, and progressive scheduling.
//!
//! These complement the experiment binaries (`exp_*`): the experiments
//! regenerate the surveyed tables; the benches track kernel-level regressions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use er_blocking::simjoin::{JoinAlgorithm, SimilarityJoin};
use er_blocking::TokenBlocking;
use er_core::similarity::{jaccard, jaro_winkler, levenshtein_distance, CorpusStats};
use er_core::tokenize::{qgrams, Tokenizer};
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::{BlockingGraph, PruningScheme, WeightingScheme};
use std::collections::BTreeSet;
use std::hint::black_box;

fn dataset(entities: usize) -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(
        entities,
        NoiseModel::moderate(),
        0xBE9C,
    ))
}

fn bench_tokenize(c: &mut Criterion) {
    let t = Tokenizer::default();
    let value =
        "The Imitation Game: Alan M. Turing, Bletchley Park (1943) — cryptanalysis of the Enigma";
    c.bench_function("tokenize/words", |b| b.iter(|| t.tokens(black_box(value))));
    c.bench_function("tokenize/qgrams3", |b| {
        b.iter(|| qgrams(black_box(value), 3))
    });
}

fn bench_similarity(c: &mut Criterion) {
    let a: BTreeSet<String> = "alan mathison turing bletchley park enigma cryptanalysis"
        .split(' ')
        .map(str::to_string)
        .collect();
    let b: BTreeSet<String> = "alan turing enigma machine computation cambridge"
        .split(' ')
        .map(str::to_string)
        .collect();
    c.bench_function("similarity/jaccard", |bch| {
        bch.iter(|| jaccard(black_box(&a), black_box(&b)))
    });
    c.bench_function("similarity/levenshtein", |bch| {
        bch.iter(|| {
            levenshtein_distance(
                black_box("kathryn johnstone"),
                black_box("catherine johnston"),
            )
        })
    });
    c.bench_function("similarity/jaro_winkler", |bch| {
        bch.iter(|| {
            jaro_winkler(
                black_box("kathryn johnstone"),
                black_box("catherine johnston"),
            )
        })
    });
    let docs: Vec<BTreeSet<String>> = (0..100)
        .map(|i| {
            format!("token{} token{} shared common", i, i * 7 % 30)
                .split(' ')
                .map(str::to_string)
                .collect()
        })
        .collect();
    let stats = CorpusStats::from_documents(docs.iter());
    c.bench_function("similarity/tfidf_cosine", |bch| {
        bch.iter(|| stats.tfidf_cosine(black_box(&docs[0]), black_box(&docs[1])))
    });
}

fn bench_blocking(c: &mut Criterion) {
    let ds = dataset(1000);
    c.bench_function("blocking/token_1000", |b| {
        b.iter(|| TokenBlocking::new().build(black_box(&ds.collection)))
    });
    let blocks = TokenBlocking::new().build(&ds.collection);
    c.bench_function("blocking/distinct_pairs_1000", |b| {
        b.iter(|| blocks.distinct_pairs(black_box(&ds.collection)))
    });
}

fn bench_metablocking(c: &mut Criterion) {
    let ds = dataset(1000);
    let blocks = TokenBlocking::new().build(&ds.collection);
    c.bench_function("metablocking/graph_build_1000", |b| {
        b.iter(|| BlockingGraph::build(black_box(&ds.collection), black_box(&blocks)))
    });
    let graph = BlockingGraph::build(&ds.collection, &blocks);
    for weighting in [
        WeightingScheme::Cbs,
        WeightingScheme::Arcs,
        WeightingScheme::Ecbs,
    ] {
        c.bench_function(
            &format!("metablocking/wnp_{}_1000", weighting.name()),
            |b| b.iter(|| PruningScheme::Wnp.prune(black_box(&graph), weighting)),
        );
        // The same result without the graph: build + prune in one scan.
        c.bench_function(
            &format!("metablocking/scan_wnp_{}_1000", weighting.name()),
            |b| {
                b.iter(|| {
                    er_metablocking::meta_block(
                        black_box(&ds.collection),
                        black_box(&blocks),
                        weighting,
                        PruningScheme::Wnp,
                    )
                })
            },
        );
    }
}

fn bench_simjoin(c: &mut Criterion) {
    let ds = dataset(600);
    for alg in [JoinAlgorithm::AllPairs, JoinAlgorithm::PPJoin] {
        c.bench_function(&format!("simjoin/{}_600_t0.5", alg.name()), |b| {
            b.iter(|| SimilarityJoin::new(0.5, alg).run(black_box(&ds.collection)))
        });
    }
}

fn bench_swoosh(c: &mut Criterion) {
    let ds = dataset(200);
    c.bench_function("iterative/r_swoosh_200", |b| {
        b.iter_batched(
            || {
                er_core::merge::ProfileThresholdMatcher::new(
                    er_core::similarity::SetMeasure::Overlap,
                    0.7,
                )
            },
            |m| er_iterative::r_swoosh(black_box(&ds.collection), &m),
            BatchSize::SmallInput,
        )
    });
}

fn bench_progressive(c: &mut Criterion) {
    let ds = dataset(500);
    let blocks = TokenBlocking::new().build(&ds.collection);
    let candidates = blocks.distinct_pairs(&ds.collection);
    c.bench_function("progressive/score_and_sort_500", |b| {
        b.iter(|| {
            let scored = er_progressive::hints::score_pairs(
                black_box(&ds.collection),
                black_box(&candidates),
                er_core::similarity::SetMeasure::Jaccard,
            );
            er_progressive::hints::sorted_pair_list(&scored)
        })
    });
}

fn bench_minhash(c: &mut Criterion) {
    let ds = dataset(1000);
    c.bench_function("blocking/minhash_6x2_1000", |b| {
        b.iter(|| er_blocking::minhash::MinHashBlocking::new(6, 2).build(black_box(&ds.collection)))
    });
}

fn bench_incremental(c: &mut Criterion) {
    let ds = dataset(300);
    // `k = 3` resolves into many small clusters; `k = 2` — the streaming
    // session's default, and what the end-to-end benchmark's `stream.replay`
    // runs — chains most arrivals into one giant profile, so every probe
    // walks that profile's posting lists and every merge unions its row.
    for (name, k) in [
        ("iterative/incremental_insert_300", 3),
        ("iterative/incremental_insert_300_k2", 2),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut r = er_iterative::incremental::IncrementalResolver::new(
                    er_core::merge::SharedTokenMatcher::new(k),
                );
                for e in ds.collection.iter() {
                    r.insert(e);
                }
                r.clusters().len()
            })
        });
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let ds = dataset(500);
    c.bench_function("pipeline/default_500", |b| {
        b.iter(|| {
            er_pipeline::Pipeline::builder()
                .build()
                .run(black_box(&ds.collection))
        })
    });
}

/// Serial-vs-parallel benches over the four rayon-parallel hot kernels.
/// Comparing `*_t1` (serial path) against `*_t4` on a multi-core host gives
/// the speedup recorded in EXPERIMENTS.md's thread-scaling section; the
/// outputs themselves are bit-identical by the determinism contract.
fn bench_parallel_kernels(c: &mut Criterion) {
    use er_core::parallel::Parallelism;
    let ds = dataset(1500);
    let col = &ds.collection;
    let blocks = TokenBlocking::new().build(col);
    let candidates =
        er_metablocking::meta_block(col, &blocks, WeightingScheme::Arcs, PruningScheme::Wnp);
    let matcher =
        er_core::matching::ThresholdMatcher::new(er_core::similarity::SetMeasure::Jaccard, 0.4);
    for threads in [1usize, 4] {
        let par = Parallelism::threads(threads);
        c.bench_function(&format!("parallel/token_blocking_1500_t{threads}"), |b| {
            b.iter(|| TokenBlocking::new().par_build(black_box(col), par))
        });
        c.bench_function(&format!("parallel/meta_blocking_1500_t{threads}"), |b| {
            b.iter(|| {
                er_metablocking::par_meta_block(
                    black_box(col),
                    black_box(&blocks),
                    WeightingScheme::Arcs,
                    PruningScheme::Wnp,
                    par,
                )
            })
        });
        c.bench_function(&format!("parallel/simjoin_ppjoin_1500_t{threads}"), |b| {
            b.iter(|| SimilarityJoin::new(0.5, JoinAlgorithm::PPJoin).par_run(black_box(col), par))
        });
        c.bench_function(&format!("parallel/matching_1500_t{threads}"), |b| {
            b.iter(|| {
                er_core::matching::par_resolve_candidates(
                    black_box(col),
                    &matcher,
                    black_box(&candidates),
                    par,
                )
            })
        });
    }
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tokenize, bench_similarity, bench_blocking, bench_metablocking, bench_simjoin, bench_swoosh, bench_progressive, bench_minhash, bench_incremental, bench_pipeline, bench_parallel_kernels
}
criterion_main!(kernels);
