//! Entry-point product test — the first cell block of the mode-matrix
//! oracle (ROADMAP): execution configuration × pipeline entry point.
//!
//! Every `Pipeline` entry point is one stage walk under a configuration, so
//! comparing entry points with each other would compare the walk with
//! itself. The oracle here therefore does **not** share the walk: it calls
//! the stages one by one through the layers' public functions (token
//! blocking → auto purge → distinct pairs → ARCS graph → WNP pruning →
//! Jaccard 0.4 → connected components), serially and in memory, the way
//! `bench/src/staged.rs` does. Each cell must reproduce its matches,
//! clusters and comparison counts exactly. Two of the oracle's choices are
//! deliberately not the pipeline's: it *enumerates* the distinct blocked
//! pairs (the walk reads their number off the blocking graph), and it
//! matches through a wrapper that only delegates `Matcher::compare`, so it
//! takes the per-pair string-set path (the matching stage decides from
//! token profiles).
//!
//! Configurations: default, 4 threads, forced out-of-core (serial, on 4
//! threads — the chunked producers feeding the external sort — and under
//! the subprocess backend, where blocks come from the workers and only the
//! graph build streams), a binding memory budget rescued through
//! `segment_dir`, and the subprocess backend on two `er-test-worker`
//! processes; the TF-IDF matching stage; and a run without meta-blocking
//! (the schedule *is* the enumerated blocked pairs). Entries: `run`,
//! `run_with_recovery` with default options, `run_with_recovery` resumed
//! from each of the three checkpoints, and `run_with_matcher` given the
//! configured matcher. One more cell fails meta-blocking on every attempt:
//! the degraded schedule is the blocked pairs, enumerated only then.
//!
//! The other block-producing families (attribute clustering, standard key,
//! q-grams, MinHash) get a cell per execution mode, against their own
//! serial `build` as the oracle: every family is a transpose of its key
//! rows, so every mode must reproduce every family.

use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::minhash::MinHashBlocking;
use er_blocking::qgrams::QGramsBlocking;
use er_blocking::standard::StandardBlocking;
use er_blocking::{cleaning, BlockCollection, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::entity::{Entity, EntityId};
use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use er_core::matching::{par_decide_candidates, Decision, Matcher, TfIdfMatcher, ThresholdMatcher};
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::resource::ResourceLimits;
use er_core::similarity::SetMeasure;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::{BlockingGraph, PruningScheme, WeightingScheme};
use er_pipeline::recovery::{STAGE_BLOCKING, STAGE_MATCHING, STAGE_META_BLOCKING};
use er_pipeline::{
    Backend, BlockingStage, MatchingStage, Pipeline, PipelineBuilder, RecoveryEvent,
    RecoveryOptions, Resolution,
};
use std::path::PathBuf;
use std::sync::Arc;

fn dataset() -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(200, NoiseModel::moderate(), 0xE9))
}

/// The stages of the configuration under test that the oracle mirrors.
#[derive(Clone, Copy)]
struct Stages {
    meta_blocking: bool,
    /// `Some(threshold)`: TF-IDF matching; `None`: the default Jaccard 0.4.
    tfidf: Option<f64>,
}

const DEFAULT_STAGES: Stages = Stages {
    meta_blocking: true,
    tfidf: None,
};

/// The configured matcher as the per-pair reference: only `compare` is
/// delegated, so batch calls fall back to the per-pair loop.
enum Reference {
    Jaccard(ThresholdMatcher),
    TfIdf(TfIdfMatcher),
}

impl Matcher for Reference {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        match self {
            Reference::Jaccard(m) => m.compare(a, b),
            Reference::TfIdf(m) => m.compare(a, b),
        }
    }
}

fn matcher(c: &EntityCollection, stages: Stages) -> Reference {
    match stages.tfidf {
        None => Reference::Jaccard(ThresholdMatcher::new(SetMeasure::Jaccard, 0.4)),
        Some(threshold) => Reference::TfIdf(TfIdfMatcher::from_collection(c, threshold)),
    }
}

/// What every cell must reproduce.
struct Expected {
    blocked: u64,
    scheduled: u64,
    matches: Vec<Pair>,
    clusters: Vec<Vec<EntityId>>,
}

/// The pipeline's stages, called one by one — no `er_pipeline`.
fn staged_oracle(c: &EntityCollection, stages: Stages) -> Expected {
    let par = Parallelism::serial();
    let blocks = cleaning::auto_purge(&TokenBlocking::new().par_build(c, par), c);
    let blocked = blocks.distinct_pairs(c);
    let kept = if stages.meta_blocking {
        let graph = BlockingGraph::par_build(c, &blocks, par);
        PruningScheme::Wnp.par_prune(&graph, WeightingScheme::Arcs, par)
    } else {
        blocked.clone()
    };
    let mut matches: Vec<Pair> = par_decide_candidates(c, &matcher(c, stages), &kept, par)
        .into_iter()
        .filter_map(|(p, d)| d.is_match.then_some(p))
        .collect();
    matches.sort();
    let clusters = er_core::clusters::components_from_matches(c.len(), &matches);
    Expected {
        blocked: blocked.len() as u64,
        scheduled: kept.len() as u64,
        matches,
        clusters,
    }
}

fn assert_cell(res: &Resolution, want: &Expected, cell: &str) {
    assert_eq!(res.matches, want.matches, "{cell}: matches");
    assert_eq!(res.clusters, want.clusters, "{cell}: clusters");
    let r = &res.report;
    assert_eq!(r.blocked_comparisons, want.blocked, "{cell}: blocked");
    assert_eq!(r.scheduled_comparisons, want.scheduled, "{cell}: scheduled");
    assert_eq!(r.matched_comparisons, want.scheduled, "{cell}: matched");
    assert_eq!(r.shed_comparisons, 0, "{cell}: shed");
    assert_eq!(r.skipped_comparisons, 0, "{cell}: skipped");
}

fn scratch(config: &str, what: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "er-entry-matrix-{}-{config}-{what}",
        std::process::id()
    ))
}

/// Runs every entry point of one default-stages configuration against the
/// oracle.
fn check_configuration(config: &str, configure: impl Fn(PipelineBuilder) -> PipelineBuilder) {
    check_stages(config, DEFAULT_STAGES, configure);
}

/// Runs every entry point of one configuration against the oracle of its
/// stages.
fn check_stages(
    config: &str,
    stages: Stages,
    configure: impl Fn(PipelineBuilder) -> PipelineBuilder,
) {
    let ds = dataset();
    let c = &ds.collection;
    let want = staged_oracle(c, stages);
    assert!(
        (want.scheduled < want.blocked) == stages.meta_blocking && !want.matches.is_empty(),
        "the corpus must exercise pruning and matching"
    );
    let p = configure(Pipeline::builder()).build();

    assert_cell(&p.run(c), &want, &format!("{config} × run"));

    let out = p.run_with_recovery(c, &RecoveryOptions::default()).unwrap();
    assert_cell(
        &out.resolution,
        &want,
        &format!("{config} × run_with_recovery"),
    );
    assert!(out.events.is_empty(), "{config}: {:?}", out.events);
    assert_eq!(out.resumed_from, None);
    assert_eq!(out.scheduled.map(|s| s.len() as u64), Some(want.scheduled));

    let boundaries: [(&str, &[&str]); 3] = [
        // (resume point, deeper checkpoint files deleted first)
        (STAGE_MATCHING, &[]),
        (STAGE_META_BLOCKING, &["matched.ckpt"]),
        (STAGE_BLOCKING, &["matched.ckpt", "scheduled.ckpt"]),
    ];
    for (stage, delete) in boundaries {
        let dir = scratch(config, &format!("ckpt-{stage}"));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RecoveryOptions::default().checkpoint_dir(&dir);
        p.run_with_recovery(c, &opts).unwrap();
        for f in delete {
            std::fs::remove_file(dir.join(f)).unwrap();
        }
        let resumed = p.run_with_recovery(c, &opts.resume(true)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.resumed_from, Some(stage), "{config}");
        assert_cell(
            &resumed.resolution,
            &want,
            &format!("{config} × resumed from {stage}"),
        );
    }

    assert_cell(
        &p.run_with_matcher(c, &matcher(c, stages)),
        &want,
        &format!("{config} × run_with_matcher"),
    );
}

#[test]
fn default_configuration() {
    check_configuration("default", |b| b);
}

#[test]
fn four_threads() {
    check_configuration("threads4", |b| b.parallelism(Parallelism::threads(4)));
}

#[test]
fn forced_out_of_core() {
    let dir = scratch("ooc", "segments");
    check_configuration("ooc", |b| b.segment_dir(&dir).out_of_core(true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forced_out_of_core_on_four_threads() {
    let dir = scratch("ooc-threads4", "segments");
    check_configuration("ooc-threads4", |b| {
        b.parallelism(Parallelism::threads(4))
            .segment_dir(&dir)
            .out_of_core(true)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forced_out_of_core_under_the_subprocess_backend() {
    let dir = scratch("ooc-subprocess", "segments");
    check_configuration("ooc-subprocess", |b| {
        b.backend(Backend::Subprocess { workers: 2 })
            .worker_program(env!("CARGO_BIN_EXE_er-test-worker"))
            .segment_dir(&dir)
            .out_of_core(true)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binding_budget_rescued_through_the_segment_dir() {
    let dir = scratch("rescue", "segments");
    let configure = |b: PipelineBuilder| {
        b.resource_limits(ResourceLimits::none().with_memory_bytes(4096))
            .segment_dir(&dir)
    };
    check_configuration("rescue", configure);
    // The budget really binds: the run goes through the spill rescue.
    let obs = Obs::enabled();
    configure(Pipeline::builder())
        .observability(obs.clone())
        .build()
        .run(&dataset().collection);
    assert_eq!(obs.snapshot().counter("colstore.spill_rescues"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subprocess_backend_on_two_workers() {
    check_configuration("subprocess", |b| {
        b.backend(Backend::Subprocess { workers: 2 })
            .worker_program(env!("CARGO_BIN_EXE_er-test-worker"))
    });
}

#[test]
fn tfidf_matching_stage() {
    let stages = Stages {
        tfidf: Some(0.5),
        ..DEFAULT_STAGES
    };
    check_stages("tfidf", stages, |b| b.matching(MatchingStage::TfIdf(0.5)));
    check_stages("tfidf-threads4", stages, |b| {
        b.matching(MatchingStage::TfIdf(0.5))
            .parallelism(Parallelism::threads(4))
    });
}

#[test]
fn without_meta_blocking() {
    let stages = Stages {
        meta_blocking: false,
        ..DEFAULT_STAGES
    };
    check_stages("no-meta-blocking", stages, |b| b.no_meta_blocking());
    let dir = scratch("no-meta-blocking-ooc", "segments");
    check_stages("no-meta-blocking-ooc", stages, |b| {
        b.no_meta_blocking().segment_dir(&dir).out_of_core(true)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn meta_blocking_degraded_schedules_the_blocked_pairs() {
    // Meta-blocking fails on every attempt, so no blocking graph is ever
    // built: the walk has to enumerate the blocked pairs itself, and both
    // the schedule and `blocked_comparisons` must be that enumeration.
    let ds = dataset();
    let c = &ds.collection;
    let unpruned = Stages {
        meta_blocking: false,
        ..DEFAULT_STAGES
    };
    let want = staged_oracle(c, unpruned);
    let plan =
        FaultPlan::none().inject_all_attempts(STAGE_META_BLOCKING, 0, 2, FaultKind::Transient);
    let opts = RecoveryOptions::retrying(RetryPolicy::attempts(2))
        .with_injector(Arc::new(FaultInjector::new(plan)));
    let out = Pipeline::builder()
        .build()
        .run_with_recovery(c, &opts)
        .unwrap();
    assert!(
        out.events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::MetaBlockingDegraded { .. })),
        "{:?}",
        out.events
    );
    assert_cell(&out.resolution, &want, "meta-blocking degraded");
    let blocks = cleaning::auto_purge(&TokenBlocking::new().build(c), c);
    assert_eq!(out.scheduled, Some(blocks.distinct_pairs(c)));
}

#[test]
fn every_block_family_in_every_mode() {
    // Meta-blocking is off, so the oracle is the family's serial build →
    // auto purge → the enumerated blocked pairs → Jaccard 0.4 → connected
    // components, with no second kernel in it.
    let ds = dataset();
    let c = &ds.collection;
    let families: [(&str, BlockingStage, BlockCollection); 4] = [
        (
            "attrcluster",
            BlockingStage::AttributeClustering,
            AttributeClusteringBlocking::new().build(c),
        ),
        (
            "standard",
            BlockingStage::StandardKey("name".into()),
            StandardBlocking::on_attribute("name").build(c),
        ),
        (
            "qgrams",
            BlockingStage::QGrams(3),
            QGramsBlocking::new(3).build(c),
        ),
        (
            "minhash",
            BlockingStage::MinHash(6, 2),
            MinHashBlocking::new(6, 2).build(c),
        ),
    ];
    let dir = scratch("families", "segments");
    let threads4 = |b: PipelineBuilder| b.parallelism(Parallelism::threads(4));
    let ooc = |b: PipelineBuilder| b.segment_dir(&dir).out_of_core(true);
    let rescue = |b: PipelineBuilder| {
        b.resource_limits(ResourceLimits::none().with_memory_bytes(1024))
            .segment_dir(&dir)
    };
    let subprocess = |b: PipelineBuilder| {
        b.backend(Backend::Subprocess { workers: 2 })
            .worker_program(env!("CARGO_BIN_EXE_er-test-worker"))
    };
    type Configure<'a> = &'a dyn Fn(PipelineBuilder) -> PipelineBuilder;
    let modes: [(&str, Configure, &str); 5] = [
        ("threads4", &threads4, "profiles.symbols"),
        ("ooc", &ooc, "colstore.segments_written"),
        (
            "ooc-threads4",
            &|b| ooc(threads4(b)),
            "colstore.segments_written",
        ),
        ("rescue", &rescue, "colstore.spill_rescues"),
        ("subprocess", &subprocess, "worker.spawned"),
    ];
    for (family, stage, blocks) in families {
        let blocked = cleaning::auto_purge(&blocks, c).distinct_pairs(c);
        let reference = matcher(c, DEFAULT_STAGES);
        let mut matches: Vec<Pair> =
            par_decide_candidates(c, &reference, &blocked, Parallelism::serial())
                .into_iter()
                .filter_map(|(p, d)| d.is_match.then_some(p))
                .collect();
        matches.sort();
        let want = Expected {
            blocked: blocked.len() as u64,
            scheduled: blocked.len() as u64,
            clusters: er_core::clusters::components_from_matches(c.len(), &matches),
            matches,
        };
        assert!(!want.matches.is_empty(), "{family}: the corpus must match");
        for (mode, configure, ran) in modes {
            let obs = Obs::enabled();
            let builder = Pipeline::builder()
                .blocking(stage.clone())
                .no_meta_blocking()
                .observability(obs.clone());
            let res = configure(builder).build().run(c);
            let cell = format!("{family} × {mode}");
            assert_cell(&res, &want, &cell);
            // The mode really ran: its path left its counter behind. And
            // every family reports its key index, as `er-metrics-check`
            // requires of any blocking run.
            let snapshot = obs.snapshot();
            for counter in [ran, "blocking.interner_symbols", "blocking.tokens_indexed"] {
                assert!(
                    snapshot.counter(counter).unwrap_or(0) > 0,
                    "{cell}: {counter}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
