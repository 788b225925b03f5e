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
//! clusters and comparison counts exactly.
//!
//! Configurations: default, 4 threads, forced out-of-core (serial, on 4
//! threads — the chunked producers feeding the external sort — and under
//! the subprocess backend, where blocks come from the workers and only the
//! graph build streams), a binding memory budget rescued through
//! `segment_dir`, and the subprocess backend on two `er-test-worker`
//! processes. Entries: `run`, `run_with_recovery` with
//! default options, `run_with_recovery` resumed from each of the three
//! checkpoints, and `run_with_matcher` given the configured matcher.

use er_blocking::{cleaning, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::matching::{par_decide_candidates, ThresholdMatcher};
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::resource::ResourceLimits;
use er_core::similarity::SetMeasure;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_metablocking::{BlockingGraph, PruningScheme, WeightingScheme};
use er_pipeline::recovery::{STAGE_BLOCKING, STAGE_MATCHING, STAGE_META_BLOCKING};
use er_pipeline::{Backend, Pipeline, PipelineBuilder, RecoveryOptions, Resolution};
use std::path::PathBuf;

fn dataset() -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(200, NoiseModel::moderate(), 0xE9))
}

fn matcher() -> ThresholdMatcher {
    ThresholdMatcher::new(SetMeasure::Jaccard, 0.4)
}

/// What every cell must reproduce.
struct Expected {
    blocked: u64,
    scheduled: u64,
    matches: Vec<Pair>,
    clusters: Vec<Vec<EntityId>>,
}

/// The default pipeline's stages, called one by one — no `er_pipeline`.
fn staged_oracle(c: &EntityCollection) -> Expected {
    let par = Parallelism::serial();
    let blocks = cleaning::auto_purge(&TokenBlocking::new().par_build(c, par), c);
    let blocked = blocks.distinct_pairs(c).len() as u64;
    let graph = BlockingGraph::par_build(c, &blocks, par);
    let kept = PruningScheme::Wnp.par_prune(&graph, WeightingScheme::Arcs, par);
    let mut matches: Vec<Pair> = par_decide_candidates(c, &matcher(), &kept, par)
        .into_iter()
        .filter_map(|(p, d)| d.is_match.then_some(p))
        .collect();
    matches.sort();
    let clusters = er_core::clusters::components_from_matches(c.len(), &matches);
    Expected {
        blocked,
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

/// Runs every entry point of one configuration against the oracle.
fn check_configuration(config: &str, configure: impl Fn(PipelineBuilder) -> PipelineBuilder) {
    let ds = dataset();
    let c = &ds.collection;
    let want = staged_oracle(c);
    assert!(
        want.scheduled < want.blocked && !want.matches.is_empty(),
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
        &p.run_with_matcher(c, &matcher()),
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
