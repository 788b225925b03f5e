//! The experiments of DESIGN.md's index, one function each. Binaries in
//! `src/bin/` are thin wrappers; `exp_all` runs the full suite.

use crate::balance::balanced_loads;
use crate::{banner, clean_clean_preset, dirty_preset, f3, f4, paired_ab, Table};
use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::canopy::CanopyBlocking;
use er_blocking::cleaning;
use er_blocking::qgrams::QGramsBlocking;
use er_blocking::simjoin::{JoinAlgorithm, SimilarityJoin};
use er_blocking::sorted_neighborhood::{SortKey, SortedNeighborhood};
use er_blocking::standard::StandardBlocking;
use er_blocking::suffix::SuffixBlocking;
use er_blocking::TokenBlocking;
use er_core::collection::EntityCollection;
use er_core::ground_truth::GroundTruth;
use er_core::matching::OracleMatcher;
use er_core::metrics::BlockingQuality;
use er_core::obs::{MetricsSnapshot, Obs};
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::similarity::SetMeasure;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_iterative::iterative_blocking::{independent_blocks, iterative_blocking};
use er_iterative::swoosh::{naive_iterate, r_swoosh};
use er_metablocking::{node_scan, BlockingGraph, PruningScheme, WeightingScheme};
use er_pipeline::{CleaningStage, Pipeline};
use er_progressive::budget::{random_schedule, Budget};
use er_progressive::hints::{
    ordered_blocks_schedule, score_pairs, sorted_pair_list, PartitionHierarchy,
};
use er_progressive::psnm::ProgressiveSnm;
use er_progressive::scheduler::{SchedulerConfig, WindowScheduler};
use er_progressive::{ProgressiveOutcome, Scheduler};
use std::time::Instant;

fn quality(pairs: &[Pair], truth: &GroundTruth, collection: &EntityCollection) -> BlockingQuality {
    BlockingQuality::measure(pairs, truth, collection.total_possible_comparisons())
}

/// The spans of a `Pipeline` walk's blocking: token profiles, then blocks.
const BLOCKING_SPANS: &[&str] = &["pipeline.profiles", "pipeline.blocking"];
/// The span of a `Pipeline` walk's meta-blocking.
const META_BLOCKING_SPANS: &[&str] = &["pipeline.meta_blocking"];
/// The three phases of one `node_scan`.
const SCAN_SPANS: &[&str] = &[
    "meta_blocking.index",
    "meta_blocking.walk",
    "meta_blocking.merge",
];

/// Whole milliseconds spent in the named spans of `snapshot`, summed.
fn span_ms(snapshot: &MetricsSnapshot, names: &[&str]) -> u64 {
    let micros: u64 = names
        .iter()
        .filter_map(|name| snapshot.span(name))
        .map(|span| span.total_micros)
        .sum();
    micros / 1000
}

/// E1 — blocking-quality comparison across schemes and noise levels
/// (PC / PQ / RR per scheme; style of \[13\], \[21\]).
pub fn e1_blocking_quality() {
    banner("E1", "blocking quality across schemes and noise levels");
    let table = Table::new(&[
        ("noise", 8),
        ("scheme", 22),
        ("comparisons", 12),
        ("PC", 7),
        ("PQ", 7),
        ("RR", 7),
        ("F(PC,RR)", 9),
    ]);
    for (noise_name, noise) in NoiseModel::sweep() {
        let ds = DirtyDataset::generate(&DirtyConfig {
            noise,
            ..dirty_preset(1500)
        });
        let c = &ds.collection;
        let schemes: Vec<(&str, Vec<Pair>)> = vec![
            (
                "standard(name)",
                StandardBlocking::on_attribute("name")
                    .build(c)
                    .distinct_pairs(c),
            ),
            ("token", TokenBlocking::new().build(c).distinct_pairs(c)),
            (
                "attribute-clustering",
                AttributeClusteringBlocking::new()
                    .build(c)
                    .distinct_pairs(c),
            ),
            (
                "sorted-neighborhood",
                SortedNeighborhood::new(SortKey::FlattenedValue, 10).candidate_pairs(c),
            ),
            ("qgrams(4,name)", {
                QGramsBlocking::new(4)
                    .with_source(er_blocking::qgrams::KeySource::Attribute("name".into()))
                    .build(c)
                    .distinct_pairs(c)
            }),
            ("suffix(5,name)", {
                SuffixBlocking::new(5, 50)
                    .with_source(er_blocking::qgrams::KeySource::Attribute("name".into()))
                    .build(c)
                    .distinct_pairs(c)
            }),
            (
                "frequent-pairs(s=2)",
                er_blocking::frequent_sets::FrequentSetBlocking::new(2)
                    .build(c)
                    .distinct_pairs(c),
            ),
        ];
        for (name, pairs) in schemes {
            let q = quality(&pairs, &ds.truth, c);
            table.row(&[
                noise_name.to_string(),
                name.to_string(),
                q.comparisons.to_string(),
                f3(q.pc()),
                f4(q.pq()),
                f3(q.rr()),
                f3(q.f_measure()),
            ]);
        }
    }
    println!(
        "shape: token blocking holds near-total PC at every noise level with the \
         worst PQ/RR;\nschema-aware keys (standard/qgrams/suffix on `name`) are \
         precise but lose PC fast as noise rises; sorted neighborhood sits between."
    );
}

/// E2 — block purging and block filtering: comparisons vs PC (\[20\], \[21\]).
pub fn e2_block_cleaning() {
    banner("E2", "block purging and filtering on skewed token blocks");
    let ds = DirtyDataset::generate(&dirty_preset(3000));
    let c = &ds.collection;
    let blocks = TokenBlocking::new().build(c);
    let table = Table::new(&[
        ("variant", 22),
        ("blocks", 8),
        ("max|b|", 8),
        ("aggregate", 12),
        ("distinct", 12),
        ("PC", 7),
        ("PQ", 7),
    ]);
    let report = |name: &str, bc: &er_blocking::block::BlockCollection| {
        let stats = bc.stats(c);
        let q = quality(&bc.distinct_pairs(c), &ds.truth, c);
        table.row(&[
            name.to_string(),
            stats.blocks.to_string(),
            stats.max_block_size.to_string(),
            stats.aggregate_comparisons.to_string(),
            stats.distinct_comparisons.to_string(),
            f3(q.pc()),
            f4(q.pq()),
        ]);
    };
    report("raw token blocking", &blocks);
    let purged = cleaning::auto_purge(&blocks, c);
    report("+ purging(auto)", &purged);
    for ratio in [0.8, 0.5, 0.3] {
        let filtered = cleaning::filter_blocks(&purged, c, ratio);
        report(&format!("+ filtering(r={ratio})"), &filtered);
    }
    let canopy = CanopyBlocking::new(SetMeasure::Jaccard, 0.2, 0.6)
        .build(&er_datagen::DirtyDataset::generate(&dirty_preset(600)).collection);
    println!(
        "(canopy on 600 entities for scale reference: {} blocks)",
        canopy.len()
    );
    println!(
        "shape: purging removes ~98% of aggregate comparisons at a small PC \
         cost;\nfiltering then trades PC for further distinct-comparison reductions \
         smoothly as r shrinks."
    );
}

/// E3 — the meta-blocking grid: 5 weighting × 4 pruning schemes
/// (comparisons retained vs PC; the Tables 5/6 shape of \[22\]).
pub fn e3_metablocking() {
    banner("E3", "meta-blocking: weighting x pruning grid");
    let ds = er_datagen::CleanCleanDataset::generate(&clean_clean_preset(1200));
    let c = &ds.collection;
    let blocks = TokenBlocking::new().build(c);
    let base = quality(&blocks.distinct_pairs(c), &ds.truth, c);
    println!(
        "input blocking: {} distinct comparisons, PC {}, PQ {}",
        base.comparisons,
        f3(base.pc()),
        f4(base.pq())
    );
    let table = Table::new(&[
        ("pruning", 8),
        ("weighting", 10),
        ("kept", 10),
        ("kept%", 7),
        ("PC", 7),
        ("PQ", 7),
    ]);
    let (serial, off) = (Parallelism::serial(), Obs::disabled());
    for pruning in PruningScheme::CANONICAL {
        for weighting in WeightingScheme::ALL {
            let kept = node_scan(c, &blocks, weighting, pruning, serial, &off).kept;
            let q = quality(&kept, &ds.truth, c);
            table.row(&[
                pruning.name().to_string(),
                weighting.name().to_string(),
                q.comparisons.to_string(),
                f3(q.comparisons as f64 / base.comparisons as f64 * 100.0),
                f3(q.pc()),
                f4(q.pq()),
            ]);
        }
    }
    println!(
        "shape: every scheme cuts comparisons by an order of magnitude; \
         cardinality\nschemes (CEP/CNP) keep fewer comparisons with more PC loss \
         than weight schemes\n(WEP/WNP); node-centric schemes retain higher PC \
         than edge-centric at similar budgets."
    );
}

/// E4 — parallel blocking / meta-blocking scaling (\[10\], \[18\]).
///
/// Runs the schedule half of the pipeline (`Pipeline::candidates`: token
/// blocking, no cleaning, the `node_scan` meta-blocking over contiguous node
/// ranges) at each worker count and reads its `pipeline.*` spans. On a
/// multi-core host the wall-clock columns show real speedup; on a
/// single-core container (the common CI case) they are flat, so the
/// experiment also reports *simulated speedup* — total work over
/// critical-path worker load under BlockSplit balancing — which is
/// hardware-independent.
pub fn e4_parallel_scaling() {
    banner("E4", "parallel token blocking and meta-blocking scaling");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    let ds = DirtyDataset::generate(&dirty_preset(4000));
    let c = &ds.collection;
    let table = Table::new(&[
        ("workers", 8),
        ("blocking", 12),
        ("metablocking", 13),
        ("simulated", 10),
        ("agree", 6),
    ]);
    // One uncleaned schedule run: its candidates, blocked-comparison count
    // and metrics snapshot.
    let run = |par| {
        let pipeline = Pipeline::builder()
            .cleaning(CleaningStage::None)
            .parallelism(par)
            .observability(Obs::enabled())
            .build();
        let kept = pipeline.candidates(c);
        let snapshot = pipeline.metrics();
        let blocked = snapshot.counter("meta_blocking.comparisons_before");
        (kept, blocked, snapshot)
    };
    let (serial_kept, serial_blocked, _) = run(Parallelism::serial());
    let blocks = TokenBlocking::new().build(c);
    let total_work: u64 = balanced_loads(blocks.blocks(), 10_000, 1)[0];
    for workers in [1usize, 2, 4, 8] {
        let (kept, blocked, snapshot) = run(Parallelism::threads(workers));
        let agree = kept == serial_kept && blocked == serial_blocked;
        let loads = balanced_loads(blocks.blocks(), 10_000, workers);
        let critical = *loads.iter().max().unwrap();
        table.row(&[
            workers.to_string(),
            format!("{}ms", span_ms(&snapshot, BLOCKING_SPANS)),
            format!("{}ms", span_ms(&snapshot, META_BLOCKING_SPANS)),
            format!("{:.2}x", total_work as f64 / critical as f64),
            if agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!(
        "shape: simulated speedup is near-linear in workers (BlockSplit keeps \
         loads even);\nwall-clock follows it on multi-core hosts and stays flat \
         on single-core ones."
    );
}

/// E5 — iterative ER: R-Swoosh vs naive fixpoint; iterative blocking vs
/// independent per-block resolution (\[2\], \[27\]).
pub fn e5_iterative() {
    banner("E5", "iterative ER: merging-based and iterative blocking");
    // Complementary partial descriptions: heavy value dropout makes each
    // description a fragment of its entity, so outer cluster members often
    // match only through the merged profile — the regime where iterative
    // merging pays ([27]). Descriptions are mostly entity-specific tokens
    // (low common fraction), so the strictly ICAR shared-token matcher is
    // precise, and R-Swoosh provably equals the fixpoint resolution.
    let ds = DirtyDataset::generate(&DirtyConfig {
        entities: 400,
        duplicate_fraction: 0.6,
        max_cluster_size: 4,
        noise: er_datagen::NoiseModel {
            token_edit: 0.0,
            token_drop: 0.05,
            token_insert: 0.02,
            value_drop: 0.4,
        },
        keep_attribute_fraction: 0.8,
        profile: er_datagen::profile::ProfileConfig {
            attributes: 5,
            tokens_per_value: 3,
            common_vocab: 300,
            zipf_exponent: 1.0,
            common_token_fraction: 0.15,
        },
        ..dirty_preset(400)
    });
    let c = &ds.collection;
    let matcher = er_core::merge::SharedTokenMatcher::new(3);

    let table = Table::new(&[
        ("algorithm", 22),
        ("comparisons", 12),
        ("clusters", 9),
        ("truth-PC", 9),
        ("passes", 7),
    ]);
    let truth_pc = |clusters: &Vec<Vec<er_core::entity::EntityId>>| {
        let gt = GroundTruth::from_clusters(clusters.iter());
        ds.truth.iter().filter(|p| gt.contains(*p)).count() as f64 / ds.truth.len().max(1) as f64
    };

    let t = r_swoosh(c, &matcher);
    let clusters = t.clusters();
    table.row(&[
        "R-Swoosh (no blocking)".into(),
        t.comparisons.to_string(),
        clusters.len().to_string(),
        f3(truth_pc(&clusters)),
        "-".into(),
    ]);
    let n = naive_iterate(c, &matcher);
    let clusters = n.clusters();
    table.row(&[
        "naive fixpoint".into(),
        n.comparisons.to_string(),
        clusters.len().to_string(),
        f3(truth_pc(&clusters)),
        "-".into(),
    ]);

    let blocks = TokenBlocking::new().build(c);
    let ib = iterative_blocking(c, &blocks, &matcher);
    table.row(&[
        "iterative blocking".into(),
        ib.comparisons.to_string(),
        ib.clusters.len().to_string(),
        f3(truth_pc(&ib.clusters)),
        ib.passes.to_string(),
    ]);
    let indep = independent_blocks(c, &blocks, &matcher);
    table.row(&[
        "independent blocks".into(),
        indep.comparisons.to_string(),
        indep.clusters.len().to_string(),
        f3(truth_pc(&indep.clusters)),
        "1".into(),
    ]);
    println!(
        "shape: under the strictly ICAR shared-token matcher, R-Swoosh computes \
         exactly the\nnaive fixpoint's clusters at a fraction of its comparisons; \
         iterative blocking\nreaches at least the truth-PC of independent \
         per-block resolution while merge\npropagation removes repeated \
         cross-block comparisons."
    );
}

/// E6 — progressive recall curves: PSNM (± lookahead), the three
/// pay-as-you-go hints, the cost-window scheduler, vs batch-random
/// (\[23\], \[26\], \[1\]).
pub fn e6_progressive() {
    banner("E6", "progressive ER: recall within a comparison budget");
    let ds = DirtyDataset::generate(&dirty_preset(1500));
    let c = &ds.collection;
    let blocks = TokenBlocking::new().build(c);
    let candidates = blocks.distinct_pairs(c);
    let total = candidates.len() as u64;
    println!(
        "{} descriptions, {} truth pairs, {} blocking candidates",
        c.len(),
        ds.truth.len(),
        total
    );
    let table = Table::new(&[
        ("method", 18),
        ("r@1%", 7),
        ("r@5%", 7),
        ("r@10%", 7),
        ("r@25%", 7),
        ("r@100%", 7),
        ("AUC", 7),
    ]);
    let budgets = [total / 100, total / 20, total / 10, total / 4, total];
    let report = |name: &str, out: ProgressiveOutcome| {
        let mut cells = vec![name.to_string()];
        for b in budgets {
            cells.push(f3(out.curve.recall_at(b)));
        }
        cells.push(f3(out.curve.auc(total)));
        table.row(&cells);
    };
    fn run(ds: &DirtyDataset, schedule: impl Scheduler) -> ProgressiveOutcome {
        let oracle = OracleMatcher::new(&ds.truth);
        let (c, truth) = (&ds.collection, &ds.truth);
        er_progressive::run(
            c,
            &oracle,
            schedule,
            Budget::Unlimited,
            truth,
            &Obs::disabled(),
        )
    }
    report(
        "random",
        run(&ds, random_schedule(&candidates, 5).into_iter()),
    );
    let scored = score_pairs(c, &candidates, SetMeasure::Jaccard);
    report(
        "sorted-pairs",
        run(&ds, sorted_pair_list(&scored).into_iter()),
    );
    let hierarchy = PartitionHierarchy::build(&scored, &[0.8, 0.6, 0.4, 0.2]);
    report("hierarchy", run(&ds, hierarchy.schedule().into_iter()));
    report(
        "ordered-blocks",
        run(&ds, ordered_blocks_schedule(c, &blocks).into_iter()),
    );
    let psnm = |lookahead| ProgressiveSnm::new(SortKey::FlattenedValue, 30, lookahead);
    report("psnm", run(&ds, psnm(false).schedule(c)));
    report("psnm+lookahead", run(&ds, psnm(true).schedule(c)));
    let window = SchedulerConfig {
        window_size: 250,
        influence_boost: 0.25,
    };
    report(
        "window-scheduler",
        run(&ds, WindowScheduler::new(c, &scored, &[], window)),
    );
    println!(
        "shape: every informed method dominates random at small budgets; \
         sorted-pairs/hierarchy\nare strongest when cheap similarity is a good \
         proxy; lookahead improves plain PSNM\nin the dense regions of the sort; \
         the hierarchy prunes its tail (r@100% < 1)."
    );
}

/// E7 — scalability sweep of the batch pipeline's schedule half: one
/// `Pipeline::candidates` call per size under the default stages (token
/// blocking, auto purging, ARCS/WNP), timed by its `pipeline.*` spans.
pub fn e7_scalability() {
    banner("E7", "scalability: pipeline cost vs collection size");
    let table = Table::new(&[
        ("entities", 9),
        ("descr", 8),
        ("brute", 12),
        ("blocked", 11),
        ("pruned", 10),
        ("block-ms", 9),
        ("meta-ms", 9),
        ("PC", 7),
    ]);
    for entities in [500usize, 1000, 2000, 4000, 8000] {
        // The common-token vocabulary scales with the corpus (as real
        // vocabularies do), keeping block density comparable across sizes.
        let mut cfg = dirty_preset(entities);
        cfg.profile.common_vocab = (entities / 5).max(100);
        let ds = DirtyDataset::generate(&cfg);
        let c = &ds.collection;
        let pipeline = Pipeline::builder().observability(Obs::enabled()).build();
        let kept = pipeline.candidates(c);
        let snapshot = pipeline.metrics();
        let blocked = snapshot.counter("meta_blocking.comparisons_before");
        let q = quality(&kept, &ds.truth, c);
        table.row(&[
            entities.to_string(),
            c.len().to_string(),
            c.total_possible_comparisons().to_string(),
            blocked.unwrap_or(0).to_string(),
            kept.len().to_string(),
            span_ms(&snapshot, BLOCKING_SPANS).to_string(),
            span_ms(&snapshot, META_BLOCKING_SPANS).to_string(),
            f3(q.pc()),
        ]);
    }
    println!(
        "shape: brute force grows quadratically while blocked/pruned comparisons \
         grow\nnear-linearly; PC stays roughly flat across sizes."
    );
}

/// E8 — similarity-join blocking: PPJoin vs AllPairs vs naive across
/// thresholds (candidates verified and pairs found; shape of \[28\], \[5\]).
pub fn e8_simjoin() {
    banner(
        "E8",
        "string-similarity-join blocking: filter effectiveness",
    );
    let ds = DirtyDataset::generate(&dirty_preset(1200));
    let c = &ds.collection;
    let table = Table::new(&[
        ("t", 5),
        ("algorithm", 10),
        ("verified", 10),
        ("results", 9),
        ("PC", 7),
        ("ms", 7),
    ]);
    for t in [0.3, 0.5, 0.7, 0.9] {
        for alg in [
            JoinAlgorithm::Naive,
            JoinAlgorithm::AllPairs,
            JoinAlgorithm::PPJoin,
        ] {
            let t0 = Instant::now();
            let out = SimilarityJoin::new(t, alg).run(c);
            let elapsed = t0.elapsed();
            let pairs: Vec<Pair> = out.pairs.iter().map(|(p, _)| *p).collect();
            let q = quality(&pairs, &ds.truth, c);
            table.row(&[
                format!("{t:.1}"),
                alg.name().to_string(),
                out.candidates_verified.to_string(),
                pairs.len().to_string(),
                f3(q.pc()),
                elapsed.as_millis().to_string(),
            ]);
        }
    }
    println!(
        "shape: all three return identical results; AllPairs verifies orders of \
         magnitude\nfewer candidates than naive and PPJoin fewer still, with the \
         gap widening as t grows."
    );
}

/// E9 — ablation: block filtering before meta-blocking (\[11\]).
///
/// Parallel meta-blocking \[11\] prepends *block filtering* to the pipeline;
/// this ablation sweeps the filtering ratio and reports its effect on graph
/// size (the distinct blocked comparisons), retained comparisons and PC under
/// ARCS/WNP — the design-choice table DESIGN.md calls out. Meta-blocking is
/// the `node_scan` every pipeline runs, timed by its `meta_blocking.*` spans.
pub fn e9_filtering_ablation() {
    banner("E9", "ablation: block filtering ratio x meta-blocking");
    let ds = DirtyDataset::generate(&dirty_preset(2000));
    let c = &ds.collection;
    let blocks = TokenBlocking::new().build(c);
    let table = Table::new(&[
        ("filter-r", 9),
        ("graph-edges", 12),
        ("kept", 10),
        ("PC", 7),
        ("PQ", 7),
        ("ms", 7),
    ]);
    for ratio in [1.0, 0.8, 0.6, 0.4, 0.2] {
        let filtered = cleaning::filter_blocks(&blocks, c, ratio);
        let (arcs, wnp, obs) = (WeightingScheme::Arcs, PruningScheme::Wnp, Obs::enabled());
        let scan = node_scan(c, &filtered, arcs, wnp, Parallelism::serial(), &obs);
        let q = quality(&scan.kept, &ds.truth, c);
        table.row(&[
            format!("{ratio:.1}"),
            scan.blocked_comparisons.to_string(),
            scan.kept.len().to_string(),
            f3(q.pc()),
            f4(q.pq()),
            span_ms(&obs.snapshot(), SCAN_SPANS).to_string(),
        ]);
    }
    println!(
        "shape: moderate filtering (r = 0.6-0.8) shrinks the blocking graph by \
         3-20x and\nmeta-blocking cost with it, at single-digit relative PC loss; \
         aggressive filtering\n(r <= 0.4) starts cutting into recall — the trade-off \
         [11] exploits to scale."
    );
}

/// E10 — match clustering: connected components vs center / merge-center /
/// unique-mapping over noisy scored edges.
pub fn e10_match_clustering() {
    banner("E10", "match clustering on noisy scored edges");
    use er_core::match_clustering::{
        center_clustering, merge_center_clustering, unique_mapping_clustering,
    };
    use er_core::metrics::MatchQuality;
    // Clean-clean dataset; edges scored by Jaccard (noisy evidence).
    let ds = er_datagen::CleanCleanDataset::generate(&clean_clean_preset(800));
    let c = &ds.collection;
    let blocks = TokenBlocking::new().build(c);
    let candidates = blocks.distinct_pairs(c);
    let scored = score_pairs(c, &candidates, SetMeasure::Jaccard);
    let threshold = 0.25;
    let table = Table::new(&[
        ("algorithm", 22),
        ("pairs", 8),
        ("precision", 10),
        ("recall", 8),
        ("F1", 7),
    ]);
    let report = |name: &str, pairs: Vec<Pair>| {
        let q = MatchQuality::measure(c.len(), &pairs, &ds.truth);
        table.row(&[
            name.to_string(),
            pairs.len().to_string(),
            f3(q.precision()),
            f3(q.recall()),
            f3(q.f1()),
        ]);
    };
    // Connected components = accept every edge >= threshold, close.
    let accepted: Vec<Pair> = scored
        .iter()
        .filter(|(_, s)| *s >= threshold)
        .map(|(p, _)| *p)
        .collect();
    report("connected components", accepted);
    let umc = unique_mapping_clustering(c, &scored, threshold);
    report("unique mapping", umc);
    let center = center_clustering(c.len(), &scored, threshold);
    report(
        "center",
        er_core::ground_truth::GroundTruth::from_clusters(center.iter())
            .iter()
            .collect(),
    );
    let mc = merge_center_clustering(c.len(), &scored, threshold);
    report(
        "merge-center",
        er_core::ground_truth::GroundTruth::from_clusters(mc.iter())
            .iter()
            .collect(),
    );
    println!(
        "shape: transitive closure chains noisy edges into low-precision clusters; \
         unique\nmapping exploits the clean-clean 1-1 constraint for the best \
         precision at equal\nrecall; center/merge-center sit between."
    );
}

/// E11 — incremental ER over an evolving stream vs batch re-resolution.
pub fn e11_incremental() {
    banner("E11", "incremental ER on an arrival stream vs batch redo");
    use er_core::merge::SharedTokenMatcher;
    use er_datagen::{EvolvingConfig, EvolvingStream};
    use er_iterative::incremental::IncrementalResolver;
    let stream = EvolvingStream::generate(&EvolvingConfig {
        entities: 500,
        mean_descriptions: 2.0,
        seed: 0xE11,
        profile: er_datagen::profile::ProfileConfig {
            attributes: 5,
            tokens_per_value: 3,
            common_vocab: 400,
            zipf_exponent: 0.8,
            common_token_fraction: 0.05,
        },
        ..Default::default()
    });
    println!(
        "{} arrivals over 500 latent entities, {} truth pairs",
        stream.collection.len(),
        stream.truth.len()
    );
    let table = Table::new(&[
        ("arrivals", 9),
        ("recall", 7),
        ("precision", 10),
        ("incr-cmp", 10),
        ("batch-cmp", 12),
    ]);
    let mut resolver = IncrementalResolver::new(SharedTokenMatcher::new(3));
    let mut batch_total = 0u64;
    let mut next = 0;
    for (i, e) in stream.collection.iter().enumerate() {
        resolver.insert(e);
        if next < stream.checkpoints.len() && i + 1 == stream.checkpoints[next] {
            next += 1;
            if !next.is_multiple_of(2) {
                continue; // report every other checkpoint
            }
            let prefix = i + 1;
            let arrived = stream.truth_within(prefix);
            let resolved = GroundTruth::from_clusters(resolver.clusters().iter());
            let found = stream
                .truth
                .iter()
                .filter(|p| p.second().index() < prefix && resolved.contains(*p))
                .count();
            let recall = if arrived == 0 {
                1.0
            } else {
                found as f64 / arrived as f64
            };
            let declared = resolved.len().max(1);
            let precision = resolved
                .iter()
                .filter(|p| stream.truth.contains(*p))
                .count() as f64
                / declared as f64;
            let mut prefix_collection = er_core::collection::EntityCollection::new(
                er_core::collection::ResolutionMode::Dirty,
            );
            for e in stream.collection.iter().take(prefix) {
                prefix_collection.push(e.kb(), e.attributes().to_vec());
            }
            let batch =
                er_iterative::swoosh::r_swoosh(&prefix_collection, &SharedTokenMatcher::new(3));
            batch_total += batch.comparisons;
            table.row(&[
                prefix.to_string(),
                f3(recall),
                f3(precision),
                resolver.stats().comparisons.to_string(),
                batch_total.to_string(),
            ]);
        }
    }
    println!(
        "shape: the maintained resolution holds high recall/precision at every \
         checkpoint\nwhile cumulative comparisons stay orders of magnitude below \
         re-running batch ER."
    );
}

/// E12 — supervised vs unsupervised meta-blocking pruning.
pub fn e12_supervised() {
    banner("E12", "supervised meta-blocking vs unsupervised schemes");
    use er_metablocking::supervised::supervised_prune;
    let ds = DirtyDataset::generate(&dirty_preset(1200));
    let c = &ds.collection;
    let blocks = TokenBlocking::new().build(c);
    let graph = BlockingGraph::build(c, &blocks);
    let base: Vec<Pair> = graph.edges().map(|(p, _)| p).collect();
    let table = Table::new(&[("method", 22), ("kept", 10), ("PC", 7), ("PQ", 7)]);
    let q0 = quality(&base, &ds.truth, c);
    table.row(&[
        "no pruning".into(),
        q0.comparisons.to_string(),
        f3(q0.pc()),
        f4(q0.pq()),
    ]);
    for (weighting, pruning) in [
        (WeightingScheme::Arcs, PruningScheme::Wnp),
        (WeightingScheme::Arcs, PruningScheme::Cnp),
    ] {
        let kept = pruning.prune(&graph, weighting);
        let q = quality(&kept, &ds.truth, c);
        table.row(&[
            format!("{}/{}", weighting.name(), pruning.name()),
            q.comparisons.to_string(),
            f3(q.pc()),
            f4(q.pq()),
        ]);
    }
    for frac in [0.1, 0.2] {
        let kept = supervised_prune(&graph, &ds.truth, frac);
        let q = quality(&kept, &ds.truth, c);
        table.row(&[
            format!("supervised({}% labels)", (frac * 100.0) as u32),
            q.comparisons.to_string(),
            f3(q.pc()),
            f4(q.pq()),
        ]);
    }
    println!(
        "shape: learned pruning trades differently: it reaches precision (PQ ~0.96) \
         no\nunsupervised scheme approaches — the classifier effectively learns the \
         matcher\nfrom the labels — at a recall cost; the unsupervised schemes \
         remain the recall-\npreserving pre-matching filters."
    );
}

/// E13 — tokenizer ablation: how normalization choices move token blocking.
pub fn e13_tokenizer_ablation() {
    banner("E13", "ablation: tokenizer configuration x token blocking");
    use er_core::tokenize::Tokenizer;
    let ds = DirtyDataset::generate(&dirty_preset(1500));
    // The pseudo-word generator emits no stopwords or short tokens, so graft
    // the junk real values carry: articles/prepositions (ubiquitous) and a
    // 2-character code shared by ~10% of descriptions.
    let mut c =
        er_core::collection::EntityCollection::new(er_core::collection::ResolutionMode::Dirty);
    for (i, e) in ds.collection.iter().enumerate() {
        let mut attrs = e.attributes().to_vec();
        attrs.push(("note".to_string(), format!("the and of c{}", i % 10)));
        c.push(e.kb(), attrs);
    }
    let c = &c;
    let table = Table::new(&[
        ("tokenizer", 28),
        ("blocks", 8),
        ("comparisons", 12),
        ("PC", 7),
        ("PQ", 7),
    ]);
    let variants: Vec<(&str, Tokenizer)> = vec![
        ("default (stopwords, len>=1)", Tokenizer::default()),
        ("raw (no filtering)", Tokenizer::raw()),
        ("min token length 3", Tokenizer::default().with_min_len(3)),
        ("min token length 5", Tokenizer::default().with_min_len(5)),
    ];
    for (name, tokenizer) in variants {
        let blocks = TokenBlocking::new().with_tokenizer(tokenizer).build(c);
        let q = quality(&blocks.distinct_pairs(c), &ds.truth, c);
        table.row(&[
            name.to_string(),
            blocks.len().to_string(),
            q.comparisons.to_string(),
            f3(q.pc()),
            f4(q.pq()),
        ]);
    }
    println!(
        "shape: the raw tokenizer's PC 1.0 is a mirage — ubiquitous stopword blocks \
         approach\nthe cross-product (3.6x the comparisons). Stopword removal and \
         moderate length floors\ntrim comparisons at little PC cost; aggressive \
         floors start deleting discriminative\nshort tokens and PC falls — the \
         tokenizer is a blocking parameter, not a formality."
    );
}

/// E16 — overhead of the observability layer when enabled versus the
/// disabled default (acceptance: enabled-path overhead below 5%, outputs
/// identical, snapshot covers every pipeline stage).
pub fn e16_obs_overhead() {
    banner("E16", "observability overhead and snapshot coverage");
    let ds = DirtyDataset::generate(&dirty_preset(2500));
    let c = &ds.collection;
    // Disabled-path check: default pipelines carry a disabled Obs, so the
    // "plain" side below *is* the disabled path; the instrumented side pays
    // for a live registry, per-stage spans, and every counter/histogram.
    let plain_pipeline = Pipeline::builder().build();
    let obs_pipeline = Pipeline::builder().observability(Obs::enabled()).build();
    let ab = paired_ab(
        25,
        || plain_pipeline.run(c),
        || obs_pipeline.run(c),
        |a, b| a.matches == b.matches && a.clusters == b.clusters,
    );

    let table = Table::new(&[
        ("surface", 22),
        ("disabled", 10),
        ("enabled", 10),
        ("overhead", 9),
        ("identical", 9),
    ]);
    table.row(&[
        "pipeline end-to-end".to_string(),
        format!("{:.1}ms", ab.a_s * 1e3),
        format!("{:.1}ms", ab.b_s * 1e3),
        format!("{:+.1}%", ab.overhead_pct),
        if ab.identical { "yes" } else { "NO" }.to_string(),
    ]);

    // Snapshot coverage: every Fig. 1 stage span plus the headline counters
    // must be present after the instrumented runs above.
    let snapshot = obs_pipeline.metrics();
    let spans = [
        "pipeline.run",
        "pipeline.blocking",
        "pipeline.cleaning",
        "pipeline.meta_blocking",
        "pipeline.matching",
        "pipeline.clustering",
    ];
    let missing: Vec<&str> = spans
        .iter()
        .copied()
        .filter(|s| snapshot.span(s).is_none())
        .collect();
    println!(
        "snapshot coverage: {} counters, {} gauges, {} histograms, {} spans; \
         missing stage spans: {}",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        snapshot.spans.len(),
        if missing.is_empty() {
            "none".to_string()
        } else {
            missing.join(", ")
        }
    );
    println!(
        "  blocks built {} | comparisons {} -> {} (pruning ratio {:.3}) | matches {}",
        snapshot.counter("blocking.blocks_built").unwrap_or(0),
        snapshot
            .counter("meta_blocking.comparisons_before")
            .unwrap_or(0),
        snapshot
            .counter("meta_blocking.comparisons_after")
            .unwrap_or(0),
        snapshot.gauge("meta_blocking.pruning_ratio").unwrap_or(0.0),
        snapshot.counter("pipeline.matches").unwrap_or(0)
    );
    println!(
        "shape: the overhead row must stay below +5% (acceptance criterion) with\n\
         identical=yes — metric recording is relaxed atomics on pre-created handles\n\
         and never changes answers. The disabled path is the default for every\n\
         pipeline; the coverage lines must name no missing stage span."
    );
}

/// E17 — overhead of resource governance on the fault-free path
/// (acceptance: below 5%, outputs identical) plus a skew-shedding demo: an
/// oversized stop-word block breaches a memory budget, is shed
/// largest-comparisons-first, and the run completes with explicit,
/// reported recall loss.
pub fn e17_resource_overhead() {
    use er_core::resource::ResourceLimits;
    use std::time::Duration;

    banner("E17", "resource-governance overhead and skew shedding");
    let ds = DirtyDataset::generate(&dirty_preset(2500));
    let c = &ds.collection;

    // Generous limits: the budget charges every block and the watchdogs are
    // armed on every stage, but neither ever binds — so the measured cost is
    // the governance bookkeeping itself, not any degradation.
    let generous = ResourceLimits::none()
        .with_memory_bytes(1 << 30)
        .with_stage_timeout(Duration::from_secs(3600));
    let plain_pipeline = Pipeline::builder().build();
    let governed_pipeline = Pipeline::builder().resource_limits(generous).build();
    let ab = paired_ab(
        25,
        || plain_pipeline.run(c),
        || governed_pipeline.run(c),
        |a, b| {
            a.matches == b.matches
                && a.clusters == b.clusters
                && b.report.shed_comparisons == 0
                && b.report.skipped_comparisons == 0
        },
    );

    let table = Table::new(&[
        ("surface", 22),
        ("plain", 10),
        ("governed", 10),
        ("overhead", 9),
        ("identical", 9),
    ]);
    table.row(&[
        "pipeline end-to-end".to_string(),
        format!("{:.1}ms", ab.a_s * 1e3),
        format!("{:.1}ms", ab.b_s * 1e3),
        format!("{:+.1}%", ab.overhead_pct),
        if ab.identical { "yes" } else { "NO" }.to_string(),
    ]);

    // Skew-shedding demo: give every entity one shared stop token, so token
    // blocking emits a single oversized block holding the whole collection —
    // the web-scale skew pathology of §II. A budget one byte short of the
    // full index estimate forces admission to shed, and largest-
    // comparisons-first shedding drops exactly that block.
    let skew_ds = DirtyDataset::generate(&dirty_preset(1500));
    let mut skewed = EntityCollection::new(skew_ds.collection.mode());
    for e in skew_ds.collection.iter() {
        let mut attrs = e.attributes().to_vec();
        attrs.push(("stop".to_string(), "the".to_string()));
        skewed.push(e.kb(), attrs);
    }
    let blocks = TokenBlocking::new().build(&skewed);
    let index_bytes: u64 = blocks
        .blocks()
        .iter()
        .map(er_blocking::governance::block_bytes)
        .sum();
    let budget_bytes = index_bytes - 1;
    let ungoverned = Pipeline::builder()
        .cleaning(CleaningStage::None)
        .no_meta_blocking()
        .build();
    let governed = Pipeline::builder()
        .cleaning(CleaningStage::None)
        .no_meta_blocking()
        .observability(Obs::enabled())
        .resource_limits(ResourceLimits::none().with_memory_bytes(budget_bytes))
        .build();
    // Quality is probed on a twin pipeline so the governed pipeline's
    // counters reflect exactly one run below.
    let probe = Pipeline::builder()
        .cleaning(CleaningStage::None)
        .no_meta_blocking()
        .resource_limits(ResourceLimits::none().with_memory_bytes(budget_bytes))
        .build();
    let q_plain = ungoverned.candidate_quality(&skewed, &skew_ds.truth);
    let q_gov = probe.candidate_quality(&skewed, &skew_ds.truth);
    let res = governed.run(&skewed);
    let snapshot = governed.metrics();
    println!(
        "skew demo: {} entities all sharing one stop token; index estimate {} bytes,\n\
         budget {} bytes (one byte short of fitting)",
        skewed.len(),
        index_bytes,
        budget_bytes
    );
    println!(
        "  governed run completes: shed {} block(s) carrying {} comparison(s) \
         (counter blocking.comparisons_shed={})",
        snapshot.counter("blocking.blocks_shed").unwrap_or(0),
        res.report.shed_comparisons,
        snapshot.counter("blocking.comparisons_shed").unwrap_or(0)
    );
    println!(
        "  candidates {} -> {} | PC {:.4} -> {:.4} (recall loss {:.4}, explicit)",
        q_plain.comparisons,
        q_gov.comparisons,
        q_plain.pc(),
        q_gov.pc(),
        q_plain.pc() - q_gov.pc()
    );
    println!(
        "shape: the overhead row must stay below +5% (acceptance criterion) with\n\
         identical=yes — generous limits arm the accounting without ever binding,\n\
         and ResourceLimits::none() is the default for every pipeline. The skew\n\
         demo must complete (no abort) with the stop-word block shed, a large\n\
         candidate-count drop, and a small, explicitly reported recall loss."
    );
}

/// Runs the full suite in order.
pub fn run_all() {
    e1_blocking_quality();
    e2_block_cleaning();
    e3_metablocking();
    e4_parallel_scaling();
    e5_iterative();
    e6_progressive();
    e7_scalability();
    e8_simjoin();
    e9_filtering_ablation();
    e10_match_clustering();
    e11_incremental();
    e12_supervised();
    e13_tokenizer_ablation();
    e16_obs_overhead();
    e17_resource_overhead();
}
