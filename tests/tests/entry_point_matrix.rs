//! The product oracle: the Fig. 1 stages and the `Pipeline` entry points in
//! every execution mode, each row held to one oracle.
//!
//! **Kernel rows.** One oracle per stage kernel and the mode variants that
//! must reproduce it, compared with `==` (ARCS weights with `to_bits`).
//! Their property rows name their input values in every failure (the
//! vendored proptest does not shrink). The rows of the blocking and
//! meta-blocking kernels live in two sibling suites that share this
//! file's fixtures (`er_integration_tests`): `parallel_equivalence.rs`
//! (threads {1, 2, 4, 8} against the serial build) and
//! `layout_equivalence.rs` (the compact layouts against the string-keyed /
//! `BTreeMap` reference). Here: the similarity-join and matching rows,
//! `run_dist` — the frozen string adapter over the MapReduce key transpose
//! — on threads and on subprocess workers, and the frozen out-of-core
//! token build under a 4 KiB budget.
//!
//! **Pipeline rows.** Every entry point is one stage walk under a
//! configuration, so comparing entry points with each other would compare
//! the walk with itself. The oracle here does **not** share the walk: it
//! calls the stages one by one through the layers' public functions (token
//! blocking → auto purge → distinct pairs → ARCS graph → WNP pruning →
//! Jaccard 0.4 → connected components), serially and in memory. Each cell
//! must reproduce its matches, clusters and comparison counts exactly. Two
//! of the oracle's choices are deliberately not the pipeline's: it
//! *enumerates* the distinct blocked pairs (the walk reads their number off
//! the scan), and it matches through a wrapper that only delegates
//! `Matcher::compare`, so it takes the per-pair string-set path (the
//! matching stage decides from token profiles). Entries: `run`,
//! `run_with_recovery` fault-free and under absorbable seeded fault plans
//! (only `StageRetried` events allowed), resumed from each of the three
//! checkpoints, and `run_with_matcher`. Configurations: the modes below,
//! TF-IDF matching, no meta-blocking, degraded meta-blocking, every
//! key-based blocking family, and the stage properties.
//!
//! **Cross-mode cells.** A checkpoint written in one mode resumes in every
//! other; a streaming replay under a binding queue budget with corrupt
//! records; and the scenario matrix's PC/PQ/RR locks in every mode.

use er_bench::scenarios::{
    cell_builder, envelope_for, BLOCKING_METHODS, PQ_TOLERANCE, RATE_TOLERANCE, REGISTRY,
    WEIGHTING_SCHEMES,
};
use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::block::BlockCollection;
use er_blocking::minhash::MinHashBlocking;
use er_blocking::qgrams::QGramsBlocking;
use er_blocking::simjoin::{JoinAlgorithm, SimilarityJoin};
use er_blocking::standard::StandardBlocking;
use er_blocking::{cleaning, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::colstore::OocConfig;
use er_core::entity::{Entity, EntityId};
use er_core::fault::{ExecPolicy, FaultInjector, FaultKind, FaultPlan, RetryPolicy, SeededFaults};
use er_core::ingest::{IngestConfig, IngestError};
use er_core::matching::{
    compare_pair, par_decide_candidates, par_resolve_candidates, resolve_candidates, Decision,
    Matcher, TfIdfMatcher, ThresholdMatcher,
};
use er_core::merge::SharedTokenMatcher;
use er_core::metrics::BlockingQuality;
use er_core::obs::{MetricsSnapshot, Obs};
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::resource::{MemoryBudget, ResourceLimits};
use er_core::similarity::SetMeasure;
use er_datagen::{CorruptConfig, CorruptStream, DirtyDataset, EvolvingConfig, NoiseModel};
use er_integration_tests::{
    assert_pool_drained, collection_from_values, dataset, key_rows_of_lines, noise_sweep, row,
    threaded, token_lines, values_strategy, worker_program, ScratchDir,
};
use er_iterative::swoosh::r_swoosh;
use er_mapreduce::{
    run_dist, run_key_transpose, DistOptions, InProcessTransport, SubprocessConfig,
    SubprocessTransport, Transport,
};
use er_metablocking::{BlockingGraph, PruningScheme, WeightingScheme};
use er_pipeline::recovery::{STAGE_BLOCKING, STAGE_MATCHING, STAGE_META_BLOCKING};
use er_pipeline::streaming::{StreamingConfig, StreamingSession};
use er_pipeline::{
    Backend, BlockingStage, CleaningStage, ClusteringStage, MatchingStage, Pipeline,
    PipelineBuilder, RecoveryEvent, RecoveryOptions, Resolution,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

// =================================================================== modes

/// An execution mode: how it configures a builder (given a scratch path for
/// its segment dir), and a counter a run in it must leave nonzero — the
/// mode's own path where it has one (rescue, workers).
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    configure: fn(PipelineBuilder, &Path) -> PipelineBuilder,
    ran: &'static str,
}

impl Mode {
    fn on(&self, builder: PipelineBuilder, dir: &Path) -> PipelineBuilder {
        (self.configure)(builder, dir)
    }
}

fn subprocess(builder: PipelineBuilder, workers: usize) -> PipelineBuilder {
    builder
        .backend(Backend::Subprocess { workers })
        .worker_program(worker_program!())
}

const DEFAULT: Mode = Mode {
    name: "default",
    configure: |b, _| b,
    ran: "profiles.symbols",
};
const THREADS4: Mode = Mode {
    name: "threads4",
    configure: |b, _| b.parallelism(Parallelism::threads(4)),
    ran: "profiles.symbols",
};
const OOC: Mode = Mode {
    name: "ooc",
    configure: |b, dir| b.segment_dir(dir).out_of_core(true),
    ran: "profiles.symbols",
};
const OOC_THREADS4: Mode = Mode {
    name: "ooc-threads4",
    configure: |b, dir| (OOC.configure)((THREADS4.configure)(b, dir), dir),
    ran: "profiles.symbols",
};
/// Forced out-of-core under a 1 KiB budget, far below the index: it is
/// admitted whole, so nothing is shed.
const OOC_BUDGET: Mode = Mode {
    name: "ooc-budget",
    configure: |b, dir| (OOC.configure)((RESCUE.configure)(b, dir), dir),
    ran: "profiles.symbols",
};
/// A binding memory budget, rescued through the segment dir: the index is
/// admitted whole instead of shed.
const RESCUE: Mode = Mode {
    name: "rescue",
    configure: |b, dir| {
        b.resource_limits(ResourceLimits::none().with_memory_bytes(1024))
            .segment_dir(dir)
    },
    ran: "blocking.budget_rescues",
};
const SUBPROCESS: Mode = Mode {
    name: "subprocess",
    configure: |b, _| subprocess(b, 2),
    ran: "worker.spawned",
};
const SUBPROCESS4: Mode = Mode {
    name: "subprocess4",
    configure: |b, _| subprocess(b, 4),
    ran: "worker.spawned",
};
/// Forced out-of-core under the subprocess backend: blocks come from the
/// workers and are admitted whole.
const OOC_SUBPROCESS: Mode = Mode {
    name: "ooc-subprocess",
    configure: |b, dir| (OOC.configure)(subprocess(b, 2), dir),
    ran: "worker.spawned",
};
/// The binding budget rescued through the segment dir, with the blocks
/// from the workers: the admission step follows either backend.
const RESCUE_SUBPROCESS: Mode = Mode {
    name: "rescue-subprocess",
    configure: |b, dir| (RESCUE.configure)(subprocess(b, 2), dir),
    ran: "blocking.budget_rescues",
};
/// Forced out-of-core under the binding budget, blocks from the workers.
const OOC_BUDGET_SUBPROCESS: Mode = Mode {
    name: "ooc-budget-subprocess",
    configure: |b, dir| (OOC_BUDGET.configure)(subprocess(b, 2), dir),
    ran: "worker.spawned",
};

// ============================================================= kernel rows

/// Similarity join: pairs, bitwise scores and the verification count.
fn simjoin_cells(c: &EntityCollection, join: &SimilarityJoin, ctx: &str) {
    let outcome = |out: er_blocking::simjoin::JoinOutput| (out.pairs, out.candidates_verified);
    let variants = threaded("join", |par| outcome(join.par_run(c, par)));
    row(&outcome(join.run(c)), ctx, variants);
}

/// Batch matching: accepted pairs and bitwise-scored decisions.
fn matching_cells(
    c: &EntityCollection,
    candidates: &[Pair],
    matcher: &ThresholdMatcher,
    ctx: &str,
) {
    let decided: Vec<(Pair, Decision)> = candidates
        .iter()
        .map(|&p| (p, compare_pair(c, matcher, p)))
        .collect();
    let oracle = (resolve_candidates(c, matcher, candidates), decided);
    let variants = threaded("match", |par| {
        (
            par_resolve_candidates(c, matcher, candidates, par),
            par_decide_candidates(c, matcher, candidates, par),
        )
    });
    row(&oracle, ctx, variants);
}

#[test]
fn similarity_join_row() {
    for (ctx, ds) in noise_sweep(150, 21) {
        for alg in [
            JoinAlgorithm::Naive,
            JoinAlgorithm::AllPairs,
            JoinAlgorithm::PPJoin,
        ] {
            for t in [0.3, 0.5, 0.8] {
                let ctx = format!("{ctx} {} t={t}", alg.name());
                simjoin_cells(&ds.collection, &SimilarityJoin::new(t, alg), &ctx);
            }
        }
    }
}

/// The frozen out-of-core token build under a 4 KiB budget, far below the
/// index, at every thread count: it completes as the in-memory build,
/// charges nothing and writes nothing under its segment dir.
#[test]
fn tiny_budget_out_of_core_build_completes_and_drains() {
    let c = &dataset(220, NoiseModel::moderate(), 21).collection;
    let tb = TokenBlocking::new();
    let budget = MemoryBudget::bytes(4096);
    let dir = ScratchDir::new("ooc-4k");
    let cfg = OocConfig::new(&*dir)
        .with_run_entries(64)
        .with_page_bytes(512)
        .with_budget(budget.clone());
    let variants = threaded("ooc 4 KiB", |par| {
        tb.par_build_ooc_obs(c, par, &Obs::disabled(), &cfg)
            .expect("the build completes")
    });
    row(
        &tb.par_build(c, Parallelism::serial()),
        "n=220 seed=21",
        variants,
    );
    assert_eq!(budget.used(), 0, "nothing held");
    assert!(!dir.exists(), "nothing written under the segment dir");
}

#[test]
fn matching_row() {
    let c = dataset(300, NoiseModel::moderate(), 13).collection;
    let candidates = TokenBlocking::new().build(&c).distinct_pairs(&c);
    let matcher = ThresholdMatcher::new(SetMeasure::Jaccard, 0.4);
    matching_cells(&c, &candidates, &matcher, "n=300 seed=13");
}

/// `run_dist`, the frozen string adapter over `run_key_transpose`, on the
/// in-process transport and on worker processes at 1, 2 and 4 workers. Its
/// pairs equal the rendered transpose of the records' key rows and a serial
/// group-by of each record's distinct keys; a record that repeats a key is
/// one member of its block, so alone it makes no block (no self-pair); and
/// an unknown job name is a typed `setup` error. Every pool's ledger
/// balances and every worker is reaped.
#[test]
fn run_dist_subprocess_row() {
    // Record 5 names `tok5` twice.
    let inputs = token_lines(80);
    let rows = key_rows_of_lines(&inputs);
    let mut groups: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for line in &inputs {
        let (id, keys) = line.split_once('\t').expect("id field");
        for key in keys.split('\t').collect::<BTreeSet<_>>() {
            groups.entry(key).or_default().push(id);
        }
    }
    let want: Vec<(String, String)> = groups
        .into_iter()
        .filter(|(_, ids)| ids.len() >= 2)
        .map(|(key, ids)| (key.to_string(), ids.join(" ")))
        .collect();
    let lone = ["5\ttok5\ttok5".to_string()];
    for workers in [1usize, 2, 4] {
        let opts = DistOptions::for_workers(workers);
        let obs = Obs::enabled();
        let mut cfg = SubprocessConfig::new(workers);
        cfg.program = Some(worker_program!().into());
        cfg.policy = ExecPolicy::default().with_obs(obs.clone());
        let mut procs = SubprocessTransport::new(cfg);
        let monitor = procs.monitor();
        let mut threads = InProcessTransport::new(workers, ExecPolicy::default());
        let backends: [(&str, &mut dyn Transport); 2] =
            [("threads", &mut threads), ("processes", &mut procs)];
        for (backend, t) in backends {
            let cell = format!("{backend} workers={workers}");
            let got = run_dist(t, "token-blocking", &inputs, &opts).expect(&cell);
            let transposed = run_key_transpose(t, &rows, &opts).expect(&cell);
            let rendered: Vec<(String, String)> = transposed
                .blocks
                .iter()
                .map(|(s, members)| {
                    let ids: Vec<String> = members.iter().map(|e| e.0.to_string()).collect();
                    (rows.vocabulary()[s.index()].clone(), ids.join(" "))
                })
                .collect();
            assert_eq!(got.pairs, want, "{cell}: serial group-by");
            assert_eq!(got.pairs, rendered, "{cell}: rendered transpose");
            assert_eq!(got.stats, transposed.stats, "{cell}: stats");
            let alone = run_dist(t, "token-blocking", &lone, &opts).expect(&cell);
            assert_eq!(alone.pairs, Vec::new(), "{cell}: a self-pair block");
            let err = run_dist(t, "word-count", &inputs, &opts).expect_err(&cell);
            assert_eq!(err.stage, "setup", "{cell}: {err}");
            assert!(err.message.contains("\"word-count\""), "{cell}: {err}");
        }
        drop(procs);
        let cell = format!("workers={workers}");
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("worker.spawned"),
            Some(workers as u64),
            "{cell}"
        );
        assert!(monitor.live_pids().is_empty(), "{cell}");
        assert_pool_drained(&snap, &monitor.all_pids(), &cell);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_similarity_join_row(values in values_strategy(), tq in 1u32..10) {
        let join = SimilarityJoin::new(tq as f64 / 10.0, JoinAlgorithm::PPJoin);
        let ctx = format!("values={values:?} t={tq}/10");
        simjoin_cells(&collection_from_values(&values), &join, &ctx);
    }

    #[test]
    fn prop_matching_row(values in values_strategy(), tq in 1u32..10) {
        let c = collection_from_values(&values);
        let matcher = ThresholdMatcher::new(SetMeasure::Jaccard, tq as f64 / 10.0);
        let ctx = format!("values={values:?} t={tq}/10");
        matching_cells(&c, &c.all_pairs(), &matcher, &ctx);
    }
}

// =========================================================== pipeline rows

fn corpus() -> DirtyDataset {
    dataset(200, NoiseModel::moderate(), 0xE9)
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

impl Expected {
    /// The matches over `scheduled`, and their connected components.
    fn matching(c: &EntityCollection, stages: Stages, blocked: usize, scheduled: &[Pair]) -> Self {
        let mut matches: Vec<Pair> =
            par_decide_candidates(c, &matcher(c, stages), scheduled, Parallelism::serial())
                .into_iter()
                .filter_map(|(p, d)| d.is_match.then_some(p))
                .collect();
        matches.sort();
        Expected {
            blocked: blocked as u64,
            scheduled: scheduled.len() as u64,
            clusters: er_core::clusters::components_from_matches(c.len(), &matches),
            matches,
        }
    }
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
    Expected::matching(c, stages, blocked.len(), &kept)
}

/// Asserts `counter` was recorded nonzero: the path it counts really ran.
fn assert_ran(snap: &MetricsSnapshot, counter: &str, cell: &str) {
    assert!(snap.counter(counter).unwrap_or(0) > 0, "{cell}: {counter}");
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

/// Seeds of the absorbable fault plans every configuration runs under.
const FAULT_SEEDS: [u64; 2] = [6, 11];

/// The checkpoint files each resume point needs.
const RESUME_POINTS: [(&str, &[&str]); 3] = [
    (
        STAGE_MATCHING,
        &["blocked.ckpt", "scheduled.ckpt", "matched.ckpt"],
    ),
    (STAGE_META_BLOCKING, &["blocked.ckpt", "scheduled.ckpt"]),
    (STAGE_BLOCKING, &["blocked.ckpt"]),
];

/// Options resuming from a fresh checkpoint directory that holds `files`
/// copied from `from`; the directory lives as long as the guard.
fn resume_from(from: &Path, files: &[&str]) -> (ScratchDir, RecoveryOptions) {
    let dir = ScratchDir::created("ckpt");
    for f in files {
        std::fs::copy(from.join(f), dir.join(f)).expect("checkpoint copy");
    }
    let opts = RecoveryOptions::default()
        .checkpoint_dir(&*dir)
        .resume(true);
    (dir, opts)
}

/// Runs every entry point of one mode, with `stages` configured on top,
/// against the oracle of `stages`; returns the mode's metrics snapshot.
fn check_stages(
    mode: Mode,
    stages: Stages,
    ds: &DirtyDataset,
    configure: impl Fn(PipelineBuilder) -> PipelineBuilder,
) -> MetricsSnapshot {
    let c = &ds.collection;
    let config = mode.name;
    let want = staged_oracle(c, stages);
    assert!(
        (want.scheduled < want.blocked) == stages.meta_blocking && !want.matches.is_empty(),
        "the corpus must exercise pruning and matching"
    );
    let dir = ScratchDir::new(config);
    let obs = Obs::enabled();
    let p = configure(mode.on(Pipeline::builder(), &dir))
        .observability(obs.clone())
        .build();

    assert_cell(&p.run(c), &want, &format!("{config} × run"));

    let out = p.run_with_recovery(c, &RecoveryOptions::default()).unwrap();
    let cell = format!("{config} × run_with_recovery");
    assert_cell(&out.resolution, &want, &cell);
    assert!(out.events.is_empty(), "{config}: {:?}", out.events);
    assert_eq!(out.resumed_from, None);
    assert_eq!(out.scheduled.map(|s| s.len() as u64), Some(want.scheduled));

    let mut retries = 0;
    for seed in FAULT_SEEDS {
        let plan = FaultPlan::seeded(SeededFaults::absorbable(seed));
        let opts = RecoveryOptions::retrying(RetryPolicy::attempts(3))
            .with_injector(Arc::new(FaultInjector::new(plan)));
        let out = p.run_with_recovery(c, &opts).unwrap();
        let cell = format!("{config} × faults seed={seed}");
        assert_cell(&out.resolution, &want, &cell);
        let retried = |e: &RecoveryEvent| matches!(e, RecoveryEvent::StageRetried { .. });
        assert!(out.events.iter().all(retried), "{cell}: {:?}", out.events);
        retries += out.events.len();
    }
    assert!(retries > 0, "{config}: the fault plans must inject");

    let written = ScratchDir::new("ckpt-written");
    let opts = RecoveryOptions::default().checkpoint_dir(&*written);
    p.run_with_recovery(c, &opts).unwrap();
    for (stage, files) in RESUME_POINTS {
        let (_dir, opts) = resume_from(&written, files);
        let resumed = p.run_with_recovery(c, &opts).unwrap();
        assert_eq!(resumed.resumed_from, Some(stage), "{config}");
        let cell = format!("{config} × resumed from {stage}");
        assert_cell(&resumed.resolution, &want, &cell);
    }

    let cell = format!("{config} × run_with_matcher");
    assert_cell(&p.run_with_matcher(c, &matcher(c, stages)), &want, &cell);

    let snap = obs.snapshot();
    assert_ran(&snap, mode.ran, config);
    snap
}

/// Runs every entry point of one mode under the default stages.
fn check_mode(mode: Mode, ds: &DirtyDataset) -> MetricsSnapshot {
    check_stages(mode, DEFAULT_STAGES, ds, |b| b)
}

#[test]
fn default_configuration() {
    check_mode(DEFAULT, &corpus());
}

#[test]
fn four_threads() {
    check_mode(THREADS4, &corpus());
}

#[test]
fn forced_out_of_core() {
    check_mode(OOC, &corpus());
}

#[test]
fn forced_out_of_core_on_four_threads() {
    check_mode(OOC_THREADS4, &corpus());
}

#[test]
fn forced_out_of_core_under_the_subprocess_backend() {
    let snap = check_mode(OOC_SUBPROCESS, &corpus());
    assert_pool_drained(&snap, &[], OOC_SUBPROCESS.name);
}

#[test]
fn forced_out_of_core_under_a_binding_budget() {
    check_mode(OOC_BUDGET, &corpus());
}

#[test]
fn forced_out_of_core_under_a_binding_budget_on_the_subprocess_backend() {
    let snap = check_mode(OOC_BUDGET_SUBPROCESS, &corpus());
    assert_pool_drained(&snap, &[], OOC_BUDGET_SUBPROCESS.name);
}

#[test]
fn binding_budget_rescued_through_the_segment_dir() {
    let rescue_4k = Mode {
        name: "rescue-4k",
        configure: |b, dir| {
            b.resource_limits(ResourceLimits::none().with_memory_bytes(4096))
                .segment_dir(dir)
        },
        ..RESCUE
    };
    let ds = corpus();
    check_mode(rescue_4k, &ds);
    // The budget really binds: one run goes through the budget rescue once.
    let (dir, obs) = (ScratchDir::new("rescue-once"), Obs::enabled());
    let p = rescue_4k.on(Pipeline::builder(), &dir);
    p.observability(obs.clone()).build().run(&ds.collection);
    assert_eq!(obs.snapshot().counter("blocking.budget_rescues"), Some(1));
}

#[test]
fn binding_budget_rescued_on_the_subprocess_backend() {
    let ds = corpus();
    let snap = check_mode(RESCUE_SUBPROCESS, &ds);
    assert_pool_drained(&snap, &[], RESCUE_SUBPROCESS.name);
    // One run goes through the rescue once, and writes nothing.
    let (dir, obs) = (ScratchDir::new("rescue-subprocess-once"), Obs::enabled());
    let p = RESCUE_SUBPROCESS.on(Pipeline::builder(), &dir);
    let res = p.observability(obs.clone()).build().run(&ds.collection);
    assert_eq!(res.report.shed_comparisons, 0);
    assert_eq!(obs.snapshot().counter("blocking.budget_rescues"), Some(1));
    assert!(!dir.exists(), "nothing written under the segment dir");
}

/// The subprocess cells run on the matrix corpus and on a light-noise one;
/// every pool they spawn winds down with a balanced ledger.
fn check_subprocess(mode: Mode, workers: u64) {
    for ds in [corpus(), dataset(120, NoiseModel::light(), 91)] {
        let snap = check_mode(mode, &ds);
        let spawned = snap.counter("worker.spawned").unwrap_or(0);
        assert!(spawned >= workers, "{}: {spawned} spawned", mode.name);
        assert_pool_drained(&snap, &[], mode.name);
    }
}

#[test]
fn subprocess_backend_on_two_workers() {
    check_subprocess(SUBPROCESS, 2);
}

#[test]
fn subprocess_backend_on_four_workers() {
    check_subprocess(SUBPROCESS4, 4);
}

#[test]
fn tfidf_matching_stage() {
    let stages = Stages {
        tfidf: Some(0.5),
        ..DEFAULT_STAGES
    };
    for mode in [DEFAULT, THREADS4] {
        check_stages(mode, stages, &corpus(), |b| {
            b.matching(MatchingStage::TfIdf(0.5))
        });
    }
}

#[test]
fn without_meta_blocking() {
    let stages = Stages {
        meta_blocking: false,
        ..DEFAULT_STAGES
    };
    for mode in [DEFAULT, OOC] {
        check_stages(mode, stages, &corpus(), |b| b.no_meta_blocking());
    }
}

#[test]
fn meta_blocking_degraded_schedules_the_blocked_pairs() {
    // Meta-blocking fails on every attempt, so the walk has to enumerate
    // the blocked pairs itself, and both the schedule and
    // `blocked_comparisons` must be that enumeration.
    let ds = corpus();
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
    let out = Pipeline::builder().build().run_with_recovery(c, &opts);
    let out = out.unwrap();
    let degraded = |e: &RecoveryEvent| matches!(e, RecoveryEvent::MetaBlockingDegraded { .. });
    assert!(out.events.iter().any(degraded), "{:?}", out.events);
    assert_cell(&out.resolution, &want, "meta-blocking degraded");
    let blocks = cleaning::auto_purge(&TokenBlocking::new().build(c), c);
    assert_eq!(out.scheduled, Some(blocks.distinct_pairs(c)));
}

#[test]
fn every_block_family_in_every_mode() {
    // Meta-blocking is off, so the oracle is the family's serial build →
    // auto purge → the enumerated blocked pairs → Jaccard 0.4 → connected
    // components, with no second kernel in it.
    let ds = corpus();
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
    for (family, stage, blocks) in families {
        let blocked = cleaning::auto_purge(&blocks, c).distinct_pairs(c);
        let want = Expected::matching(c, DEFAULT_STAGES, blocked.len(), &blocked);
        assert!(!want.matches.is_empty(), "{family}: the corpus must match");
        for mode in [THREADS4, OOC, OOC_THREADS4, RESCUE, SUBPROCESS] {
            let dir = ScratchDir::new("families");
            let obs = Obs::enabled();
            let builder = Pipeline::builder()
                .blocking(stage.clone())
                .no_meta_blocking()
                .observability(obs.clone());
            let cell = format!("{family} × {}", mode.name);
            assert_cell(&mode.on(builder, &dir).build().run(c), &want, &cell);
            // The mode really ran: its path left its counter behind. And
            // every family reports its key index, as `er-metrics-check`
            // requires of any blocking run.
            for counter in [
                mode.ran,
                "blocking.interner_symbols",
                "blocking.tokens_indexed",
            ] {
                assert_ran(&obs.snapshot(), counter, &cell);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cleaning and meta-blocking only ever shrink the candidate set.
    #[test]
    fn stages_nest(values in values_strategy()) {
        let c = collection_from_values(&values);
        let candidates = |b: PipelineBuilder| -> BTreeSet<Pair> {
            b.build().candidates(&c).into_iter().collect()
        };
        let raw = candidates(Pipeline::builder().cleaning(CleaningStage::None).no_meta_blocking());
        let cleaned =
            candidates(Pipeline::builder().cleaning(CleaningStage::AutoPurge).no_meta_blocking());
        let pruned = candidates(Pipeline::builder());
        prop_assert!(cleaned.is_subset(&raw), "values={:?}", values);
        prop_assert!(pruned.is_subset(&cleaned), "values={:?}", values);
    }

    /// Every clustering stage partitions the collection: each entity appears
    /// in exactly one cluster.
    #[test]
    fn clustering_stages_partition(values in values_strategy()) {
        let c = collection_from_values(&values);
        for stage in [
            ClusteringStage::ConnectedComponents,
            ClusteringStage::Center,
            ClusteringStage::MergeCenter,
            ClusteringStage::UniqueMapping,
        ] {
            let res = Pipeline::builder()
                .clustering(stage)
                .matching(MatchingStage::jaccard(0.5))
                .build()
                .run(&c);
            let mut seen = BTreeSet::new();
            for id in res.clusters.iter().flatten() {
                prop_assert!(seen.insert(*id), "{stage:?}: {id:?} twice, values={values:?}");
            }
            prop_assert_eq!(seen.len(), c.len(), "{:?}: uncovered, values={:?}", stage, values);
        }
    }

    /// Matches reported by any configuration lie within its own candidates.
    #[test]
    fn matches_are_candidates(values in values_strategy()) {
        let c = collection_from_values(&values);
        let p = Pipeline::builder()
            .blocking(BlockingStage::QGrams(3))
            .cleaning(CleaningStage::None)
            .no_meta_blocking()
            .matching(MatchingStage::jaccard(0.4))
            .build();
        let cands: BTreeSet<Pair> = p.candidates(&c).into_iter().collect();
        for m in &p.run(&c).matches {
            prop_assert!(cands.contains(m), "{m:?} not a candidate, values={values:?}");
        }
    }
}

// ======================================================== cross-mode cells

/// Checkpoints carry no backend, out-of-core or thread setting in their
/// fingerprint, so each mode resumes what any other wrote, from each stage.
/// A budget is part of it: a rescue-mode checkpoint is rejected by a run
/// without limits, which then resolves from scratch.
#[test]
fn checkpoints_resume_in_every_other_mode() {
    let ds = corpus();
    let c = &ds.collection;
    let want = staged_oracle(c, DEFAULT_STAGES);
    let modes = [DEFAULT, THREADS4, OOC, SUBPROCESS, OOC_SUBPROCESS];
    let segments = ScratchDir::new("resume-segments");
    let write = |mode: Mode| {
        let written = ScratchDir::new("resume-written");
        let opts = RecoveryOptions::default().checkpoint_dir(&*written);
        let p = mode.on(Pipeline::builder(), &segments).build();
        let out = p.run_with_recovery(c, &opts).unwrap();
        assert_cell(&out.resolution, &want, mode.name);
        written
    };
    for writer in modes {
        let written = write(writer);
        for reader in modes.iter().filter(|m| m.name != writer.name) {
            let p = reader.on(Pipeline::builder(), &segments).build();
            for (stage, files) in RESUME_POINTS {
                let (_dir, opts) = resume_from(&written, files);
                let out = p.run_with_recovery(c, &opts).unwrap();
                let cell = format!("{} → {} from {stage}", writer.name, reader.name);
                assert_eq!(out.resumed_from, Some(stage), "{cell}");
                let loaded = RecoveryEvent::CheckpointLoaded { stage };
                assert!(out.events.contains(&loaded), "{cell}");
                assert_cell(&out.resolution, &want, &cell);
            }
        }
    }
    let written = write(RESCUE);
    let (_dir, opts) = resume_from(&written, RESUME_POINTS[0].1);
    let out = Pipeline::builder().build().run_with_recovery(c, &opts);
    let out = out.unwrap();
    let rejected = |e: &RecoveryEvent| matches!(e, RecoveryEvent::CheckpointRejected { .. });
    assert!(out.events.iter().any(rejected), "{:?}", out.events);
    assert_eq!(out.resumed_from, None);
    assert_cell(&out.resolution, &want, "rescue → default");
}

/// Streaming through the arrival queue as `er resolve` replays a file: a
/// producer thread pushes corrupt and clean records under a queue budget
/// that makes it wait. The bounded replay accepts what an unbounded one
/// does, resolves it as batch R-Swoosh, and drains its queue; a budget
/// below the largest record is a typed error, never a truncated replay.
#[test]
fn streaming_under_a_binding_queue_budget() {
    const MAX_RECORD_BYTES: u64 = 2 << 10;
    let stream = CorruptStream::generate(&CorruptConfig {
        base: EvolvingConfig {
            entities: 150,
            seed: 0x5EED,
            ..Default::default()
        },
        corruption_rate: 0.15,
        max_record_bytes: MAX_RECORD_BYTES,
        seed: 0x5EED,
    });
    let replay = |budget: Option<u64>| {
        let limits = budget.map_or(ResourceLimits::none(), |b| {
            ResourceLimits::none().with_memory_bytes(b)
        });
        let config = StreamingConfig {
            ingest: IngestConfig {
                max_record_bytes: MAX_RECORD_BYTES,
            },
            ..StreamingConfig::default()
        };
        let obs = Obs::enabled();
        let mut session = StreamingSession::with_obs(config, limits, obs.clone());
        let (queue, records) = (session.queue(), stream.records.clone());
        let producer = std::thread::spawn(move || {
            let pushed = records.into_iter().try_for_each(|r| queue.push(r));
            queue.close();
            pushed
        });
        let queue = session.queue();
        while let Some(record) = queue.pop() {
            session.offer(record).expect("no stage limits");
        }
        producer.join().expect("producer never panics")?;
        session.flush().expect("no stage limits");
        Ok::<_, IngestError>((session, obs.snapshot()))
    };
    let (unbounded, _) = replay(None).expect("an unbounded replay is never refused");
    let largest = stream.records.iter().map(|r| r.bytes()).max().unwrap_or(0);
    let (bounded, snap) = replay(Some(largest)).expect("every record fits the budget");
    assert!(
        bounded.queue().backpressure_waits() > 0,
        "the budget must bind"
    );
    assert!(
        bounded.quarantine_report().quarantined() > 0,
        "no corrupt record"
    );
    let accepted = |s: &StreamingSession| s.collection().iter().cloned().collect::<Vec<_>>();
    assert_eq!(accepted(&bounded), accepted(&unbounded));
    let want = r_swoosh(bounded.collection(), &SharedTokenMatcher::new(2)).clusters();
    assert_eq!(bounded.clusters(), want);
    assert_eq!(
        snap.gauge("ingest.queue_bytes"),
        Some(0.0),
        "the queue drains"
    );
    assert!(matches!(
        replay(Some(largest - 1)),
        Err(IngestError::Backpressure { .. })
    ));
}

/// The scenario matrix's 45 cells in every mode: the same schedule and
/// matches as the default mode, so the same PC/PQ/RR inside the cell's
/// locked envelope.
#[test]
fn scenario_locks_hold_in_every_mode() {
    let modes = [THREADS4, OOC, RESCUE, SUBPROCESS];
    let registries: Vec<Obs> = modes.iter().map(|_| Obs::enabled()).collect();
    for scenario in REGISTRY {
        let loaded = scenario.load();
        let c = &loaded.collection;
        for &blocking in BLOCKING_METHODS {
            for &weighting in WEIGHTING_SCHEMES {
                let cell = format!("{}/{blocking}/{weighting}", scenario.name);
                let envelope = envelope_for(scenario.name, blocking, weighting).expect("locked");
                let run = |b: PipelineBuilder| {
                    let out = b.build().run_with_recovery(c, &RecoveryOptions::default());
                    let out = out.unwrap_or_else(|e| panic!("{cell}: {e}"));
                    (
                        out.scheduled.expect("a fresh schedule"),
                        out.resolution.matches,
                    )
                };
                let want = run(cell_builder(blocking, weighting));
                for (mode, obs) in modes.iter().zip(&registries) {
                    let dir = ScratchDir::new("scenario");
                    let builder = mode.on(cell_builder(blocking, weighting), &dir);
                    let got = run(builder.observability(obs.clone()));
                    let cell = format!("{cell} × {}", mode.name);
                    assert_eq!(got, want, "{cell}");
                    let total = c.total_possible_comparisons();
                    let q = BlockingQuality::measure(&got.0, &loaded.truth, total);
                    assert_eq!(q.comparisons, envelope.comparisons, "{cell}");
                    let inside = (q.pc() - envelope.pc).abs() <= RATE_TOLERANCE
                        && (q.pq() - envelope.pq).abs() <= PQ_TOLERANCE
                        && (q.rr() - envelope.rr).abs() <= RATE_TOLERANCE;
                    let (pc, pq, rr) = (q.pc(), q.pq(), q.rr());
                    assert!(inside, "{cell}: PC {pc} PQ {pq} RR {rr}, {envelope:?}");
                }
            }
        }
    }
    for (mode, obs) in modes.iter().zip(&registries) {
        assert_ran(&obs.snapshot(), mode.ran, mode.name);
    }
    assert_pool_drained(&registries[3].snapshot(), &[], "scenarios × subprocess");
}
