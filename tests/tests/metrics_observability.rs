//! Cross-crate observability tests: metrics determinism across thread
//! counts and repeated runs, locked histogram bucket boundaries, event-sink
//! routing, and JSON snapshot round-trips through a real pipeline.

use er_core::collection::EntityCollection;
use er_core::obs::{
    CaptureSink, Event, Histogram, HistogramSnapshot, MetricsSnapshot, Obs, HISTOGRAM_BUCKETS,
};
use er_core::parallel::Parallelism;
use er_core::resource::ResourceLimits;
use er_datagen::{DirtyDataset, NoiseModel};
use er_integration_tests::{dataset, worker_program, ScratchDir};
use er_pipeline::recovery::{STAGE_BLOCKING, STAGE_MATCHING};
use er_pipeline::streaming::{raw_record_from_entity, StreamingConfig, StreamingSession};
use er_pipeline::{
    Backend, BlockingStage, CleaningStage, ClusteringStage, MatchingStage, Pipeline,
    RecoveryOptions,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn corpus() -> DirtyDataset {
    dataset(300, NoiseModel::moderate(), 97)
}

fn instrumented_pipeline(threads: usize) -> Pipeline {
    Pipeline::builder()
        .blocking(BlockingStage::Token)
        .cleaning(CleaningStage::None)
        .matching(MatchingStage::jaccard(0.4))
        .clustering(ClusteringStage::ConnectedComponents)
        .parallelism(Parallelism::threads(threads))
        .observability(Obs::enabled())
        .build()
}

/// Runs the pipeline once on a fresh registry and returns the snapshot.
fn run_once(collection: &EntityCollection, threads: usize) -> MetricsSnapshot {
    let pipeline = instrumented_pipeline(threads);
    pipeline.run(collection);
    pipeline.metrics()
}

/// Extracts every JSON object key in document order — determinism over the
/// key sequence means two snapshots agree on both content and layout.
fn json_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut end = start;
            while end < bytes.len() && bytes[end] != b'"' {
                end += if bytes[end] == b'\\' { 2 } else { 1 };
            }
            // A string followed by ':' is a key; anything else is a value.
            let mut j = end + 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b':' {
                keys.push(json[start..end].to_string());
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    keys
}

#[test]
fn counters_identical_across_thread_counts_and_reruns() {
    let ds = corpus();
    let serial = run_once(&ds.collection, 1);
    let serial_again = run_once(&ds.collection, 1);
    let parallel = run_once(&ds.collection, 4);

    // Counter values: exact across reruns and across thread counts (the
    // workspace determinism contract — parallel kernels are bit-identical).
    assert_eq!(serial.counters, serial_again.counters);
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.gauges, parallel.gauges);
    assert!(serial.counter("blocking.blocks_built").unwrap() > 0);
    assert!(serial.counter("pipeline.matches").is_some());
    // The run's token profiles are among them: rank-ordering makes the CSR
    // a function of the collection alone.
    let vocabulary = serial.counter("profiles.vocabulary").unwrap();
    assert!(vocabulary > 0);
    assert!(serial.counter("profiles.symbols").unwrap() >= vocabulary);
    // Cleaning's postings ledger is present at every cleaning stage, and
    // never keeps more than it got: all of it here (this pipeline cleans
    // nothing), less under the default purge.
    let postings = |s: &MetricsSnapshot| {
        let postings_in = s.counter("cleaning.postings_in").unwrap();
        let postings_kept = s.counter("cleaning.postings_kept").unwrap();
        assert!(postings_kept <= postings_in);
        (postings_in, postings_kept)
    };
    let (postings_in, postings_kept) = postings(&serial);
    assert_eq!(postings_kept, postings_in);
    let purging = Pipeline::builder().observability(Obs::enabled()).build();
    purging.run(&ds.collection);
    let (purged_in, purged_kept) = postings(&purging.metrics());
    assert_eq!(purged_in, postings_in);
    assert!(purged_kept < purged_in);
    for snapshot in [&serial, &parallel] {
        let span = snapshot.span("pipeline.profiles").unwrap();
        assert_eq!(span.parent.as_deref(), Some("pipeline.run"));
        // The node scan's three phases, once each under its stage span.
        for phase in [
            "meta_blocking.index",
            "meta_blocking.walk",
            "meta_blocking.merge",
        ] {
            let span = snapshot.span(phase).unwrap();
            assert_eq!(span.parent.as_deref(), Some("pipeline.meta_blocking"));
            assert_eq!(span.count, 1, "{phase}");
        }
    }

    // So is the scan's meta-blocking ledger: every edge folds at least one
    // block-pair occurrence, and no node has more neighbours than edges.
    let before = serial.counter("meta_blocking.comparisons_before").unwrap();
    let contributions = serial.counter("meta_blocking.contributions").unwrap();
    assert!(contributions >= before);
    // The walk visits Σ|b|² block members, at least two per contribution,
    // however the nodes are split across workers.
    let visits = serial.counter("meta_blocking.member_visits").unwrap();
    assert_eq!(
        parallel.counter("meta_blocking.member_visits"),
        Some(visits)
    );
    assert!(visits >= 2 * contributions);
    assert!(before >= serial.counter("meta_blocking.comparisons_after").unwrap());
    let widest = serial.gauge("meta_blocking.max_neighbourhood").unwrap();
    assert!(widest >= 1.0 && widest <= before as f64);

    // Histogram contents (counts per bucket) are value-deterministic too;
    // only span durations may differ between runs.
    assert_eq!(serial.histograms, parallel.histograms);

    // JSON key order: byte-positional key sequence matches exactly.
    assert_eq!(
        json_keys(&serial.to_json()),
        json_keys(&serial_again.to_json())
    );
    assert_eq!(json_keys(&serial.to_json()), json_keys(&parallel.to_json()));
}

#[test]
fn recovery_run_counters_match_plain_run() {
    let ds = corpus();
    let plain = run_once(&ds.collection, 1);
    let pipeline = instrumented_pipeline(1);
    pipeline
        .run_with_recovery(&ds.collection, &RecoveryOptions::default())
        .unwrap();
    let recovered = pipeline.metrics();
    for key in [
        "blocking.blocks_built",
        "meta_blocking.comparisons_before",
        "meta_blocking.comparisons_after",
        "pipeline.matches",
        "pipeline.clusters",
    ] {
        assert_eq!(plain.counter(key), recovered.counter(key), "{key}");
    }
    assert_eq!(recovered.counter("recovery.stage_retries"), Some(0));
}

/// Observation belongs to the stage walk, not to one entry point: the
/// schedule-only and caller-matcher entries open the same span tree as `run`,
/// and `run_with_matcher` records the same run counters. (Both used to walk
/// the stages on their own, with no span and no counter.)
#[test]
fn every_entry_point_records_the_walk_spans_and_run_counters() {
    let ds = corpus();
    let plain = run_once(&ds.collection, 1);
    let stages_under_run = |snapshot: &MetricsSnapshot, spans: &[&str], entry: &str| {
        assert_eq!(snapshot.span("pipeline.run").map(|s| s.count), Some(1));
        for name in spans {
            let span = snapshot
                .span(name)
                .unwrap_or_else(|| panic!("{entry}: missing span {name}"));
            assert_eq!(
                span.parent.as_deref(),
                Some("pipeline.run"),
                "{entry}: {name}"
            );
        }
    };

    let scheduling = instrumented_pipeline(1);
    let candidates = scheduling.candidates(&ds.collection);
    let snapshot = scheduling.metrics();
    stages_under_run(
        &snapshot,
        &["pipeline.blocking", "pipeline.meta_blocking"],
        "candidates",
    );
    assert!(snapshot.span("pipeline.matching").is_none());
    assert_eq!(
        snapshot.counter("pipeline.matches"),
        None,
        "no resolve half"
    );
    assert_eq!(
        Some(candidates.len() as u64),
        plain.counter("pipeline.scheduled_comparisons")
    );

    let matching = instrumented_pipeline(1);
    let matcher =
        er_core::matching::ThresholdMatcher::new(er_core::similarity::SetMeasure::Jaccard, 0.4);
    matching.run_with_matcher(&ds.collection, &matcher);
    let snapshot = matching.metrics();
    stages_under_run(
        &snapshot,
        &[
            "pipeline.blocking",
            "pipeline.meta_blocking",
            "pipeline.matching",
            "pipeline.clustering",
        ],
        "run_with_matcher",
    );
    for key in [
        "pipeline.blocked_comparisons",
        "pipeline.scheduled_comparisons",
        "pipeline.matched_comparisons",
        "pipeline.matches",
        "pipeline.clusters",
    ] {
        assert!(plain.counter(key).is_some(), "{key}");
        assert_eq!(snapshot.counter(key), plain.counter(key), "{key}");
    }
}

/// The default pipeline's blocking and meta-blocking counters on
/// [`dataset`], measured before token blocking became the transpose of the
/// run's profiles: the index and the scan's ledger did not move.
/// `member_visits` was pinned when the counter was added.
const BLOCKING_AND_SCAN: [(&str, u64); 9] = [
    ("blocking.blocks_built", 538),
    ("blocking.interner_symbols", 1982),
    ("blocking.tokens_indexed", 3601),
    ("meta_blocking.comparisons_after", 636),
    ("meta_blocking.comparisons_before", 1396),
    ("meta_blocking.comparisons_pruned", 760),
    ("meta_blocking.contributions", 1817),
    ("meta_blocking.edges_weighted", 1396),
    ("meta_blocking.member_visits", 5084),
];

/// One tokenization per run, in every entry point: the walk's
/// `pipeline.profiles` closes once per walk that blocks by token or matches
/// — blocking (in memory, out of core, on worker processes), matching and
/// the progressive schedule all read it — and never when a resume starts
/// past matching. On token runs the blocking index counters are the
/// profiles' own, and every counter equals its pinned value from before.
#[test]
fn every_entry_point_tokenizes_once() {
    let ds = corpus();
    let c = &ds.collection;
    let enabled = || Pipeline::builder().observability(Obs::enabled());
    let tokenized = |s: &MetricsSnapshot| s.span("pipeline.profiles").map_or(0, |s| s.count);
    let token_run = |entry: &str, s: &MetricsSnapshot| {
        assert_eq!(tokenized(s), 1, "{entry}");
        for (index, profiles) in [
            ("blocking.tokens_indexed", "profiles.symbols"),
            ("blocking.interner_symbols", "profiles.vocabulary"),
        ] {
            assert_eq!(s.counter(index), s.counter(profiles), "{entry}: {index}");
        }
        for &(key, value) in &BLOCKING_AND_SCAN {
            assert_eq!(s.counter(key), Some(value), "{entry}: {key}");
        }
    };

    let p = enabled().build();
    p.run(c);
    token_run("run", &p.metrics());

    let p = enabled().build();
    p.candidates(c);
    token_run("candidates", &p.metrics());

    let p = enabled().build();
    p.run_progressive(c, &ds.truth, er_progressive::Budget::Unlimited);
    token_run("run_progressive", &p.metrics());

    let dir = ScratchDir::new("tokenize-once");
    let p = enabled().out_of_core(true).segment_dir(&*dir).build();
    p.run(c);
    token_run("out_of_core", &p.metrics());

    let p = enabled()
        .backend(Backend::Subprocess { workers: 2 })
        .worker_program(worker_program!())
        .build();
    p.run(c);
    token_run("subprocess", &p.metrics());

    let opts = RecoveryOptions::default().checkpoint_dir(&*dir);
    let p = enabled().build();
    p.run_with_recovery(c, &opts).unwrap();
    token_run("run_with_recovery", &p.metrics());
    // Resumed past matching, nothing tokenizes; resumed from the blocked
    // checkpoint, matching still does, once.
    for (resume_point, tokenizations) in [(STAGE_MATCHING, 0), (STAGE_BLOCKING, 1)] {
        if resume_point == STAGE_BLOCKING {
            for f in ["matched.ckpt", "scheduled.ckpt"] {
                std::fs::remove_file(dir.join(f)).unwrap();
            }
        }
        let p = enabled().build();
        let out = p.run_with_recovery(c, &opts.clone().resume(true)).unwrap();
        assert_eq!(out.resumed_from, Some(resume_point));
        assert_eq!(tokenized(&p.metrics()), tokenizations, "{resume_point}");
    }
}

/// The `blocking.*` counters and histograms of a snapshot.
fn blocking_series(
    s: &MetricsSnapshot,
) -> (
    BTreeMap<&String, &u64>,
    BTreeMap<&String, &HistogramSnapshot>,
) {
    let ours = |k: &&String| k.starts_with("blocking.");
    let counters = s.counters.iter().filter(|(k, _)| ours(k)).collect();
    let histograms = s.histograms.iter().filter(|(k, _)| ours(k)).collect();
    (counters, histograms)
}

/// Every `blocking.*` series of a run — the index counters
/// (`record_index_obs` over the run's key rows), the block counters and the
/// block-size histogram — is recorded by the same calls on either backend,
/// so a two-worker subprocess run reads exactly what the in-process run
/// reads, for token blocking and for another key family alike.
#[test]
fn blocking_series_agree_across_backends() {
    let ds = corpus();
    let snapshot = |stage: &BlockingStage, backend: Backend| {
        let p = Pipeline::builder()
            .blocking(stage.clone())
            .observability(Obs::enabled())
            .backend(backend)
            .worker_program(worker_program!())
            .build();
        p.run(&ds.collection);
        p.metrics()
    };
    for stage in [BlockingStage::Token, BlockingStage::MinHash(4, 2)] {
        let in_process = snapshot(&stage, Backend::InProcess);
        let subprocess = snapshot(&stage, Backend::Subprocess { workers: 2 });
        for key in ["blocking.tokens_indexed", "blocking.interner_symbols"] {
            assert!(in_process.counter(key).unwrap_or(0) > 0, "{stage:?}: {key}");
        }
        assert_eq!(
            blocking_series(&subprocess),
            blocking_series(&in_process),
            "{stage:?}"
        );
        assert_eq!(subprocess.counter("mapreduce.jobs"), Some(1), "{stage:?}");
    }
}

/// The subprocess map honours the spill bound its worker's budget allotment
/// sets: under a 4 KiB memory limit (2 KiB per worker) the symbol map
/// flushes sorted runs mid-task, and the run resolves exactly as the
/// in-process run under the same limit — whose transpose buffers no shuffle
/// at all, and whose budget sheds the same blocks.
#[test]
fn subprocess_spills_under_the_memory_limit_and_resolves_the_same() {
    let ds = corpus();
    let limits = ResourceLimits::none().with_memory_bytes(4096);
    let run = |backend: Backend| {
        let p = Pipeline::builder()
            .observability(Obs::enabled())
            .resource_limits(limits)
            .backend(backend)
            .worker_program(worker_program!())
            .build();
        let resolution = p.run(&ds.collection);
        (resolution, p.metrics())
    };
    let (want, _) = run(Backend::InProcess);
    let (got, snapshot) = run(Backend::Subprocess { workers: 2 });
    let spilled = snapshot
        .counter("mapreduce.partitions_spilled")
        .unwrap_or(0);
    assert!(spilled > 0, "a 2 KiB allotment must spill: {spilled}");
    assert_eq!(got.matches, want.matches);
    assert_eq!(got.clusters, want.clusters);
    assert_eq!(format!("{:?}", got.report), format!("{:?}", want.report));
}

/// `mapreduce.task_latency_micros` is recorded by the attempt ledger, so it
/// exists on both backends and holds one sample per *task* — the first
/// success — however many attempts (retries here) the task took. This is the
/// equality `er-metrics-check --require-backend` gates on.
#[test]
fn task_latency_is_timed_once_per_task_on_both_backends() {
    use er_core::fault::{ExecPolicy, FaultInjector, FaultKind, FaultPlan, RetryPolicy};
    use er_mapreduce::{
        run_key_transpose, DistOptions, InProcessTransport, SubprocessConfig, SubprocessTransport,
        Transport,
    };
    let lines: Vec<String> = (0..60)
        .map(|i| format!("{i}\ttok{}\ttok{}", i % 5, i % 3))
        .collect();
    let rows = er_integration_tests::key_rows_of_lines(&lines);
    let policy = |obs: &Obs| {
        let plan = FaultPlan::none()
            .inject("map", 0, 0, FaultKind::Transient)
            .inject("reduce", 1, 0, FaultKind::Panic);
        ExecPolicy::retrying(RetryPolicy::attempts(3))
            .with_injector(Arc::new(FaultInjector::new(plan)))
            .with_obs(obs.clone())
    };
    let timed_once = |backend: &str, obs: &Obs, transport: &mut dyn Transport| {
        let out = run_key_transpose(transport, &rows, &DistOptions::for_workers(2))
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
        out.stats.record_obs(obs);
        let snapshot = obs.snapshot();
        let tasks = out.stats.map_tasks + out.stats.reduce_tasks;
        assert_eq!(out.stats.retried, 2, "{backend}");
        assert_eq!(
            snapshot.counter("mapreduce.map_tasks").unwrap_or(0)
                + snapshot.counter("mapreduce.reduce_tasks").unwrap_or(0),
            tasks,
            "{backend}"
        );
        let timed = snapshot
            .histograms
            .get("mapreduce.task_latency_micros")
            .map_or(0, |h| h.count);
        assert_eq!(timed, tasks, "{backend}");
    };

    let obs = Obs::enabled();
    let mut threads = InProcessTransport::new(2, policy(&obs));
    timed_once("in-process", &obs, &mut threads);

    let obs = Obs::enabled();
    let mut cfg = SubprocessConfig::new(2);
    cfg.program = Some(worker_program!().into());
    cfg.policy = policy(&obs);
    timed_once("subprocess", &obs, &mut SubprocessTransport::new(cfg));
}

/// The log2 bucket boundaries are a wire format: recorded snapshots (and
/// the docs/observability.md catalog) depend on them, so they are locked
/// here value by value.
#[test]
fn histogram_bucket_boundaries_are_locked() {
    assert_eq!(HISTOGRAM_BUCKETS, 65);
    // Index: 0 → bucket 0; otherwise 64 - leading_zeros (bucket i covers
    // [2^(i-1), 2^i - 1]).
    let expected_index: [(u64, usize); 12] = [
        (0, 0),
        (1, 1),
        (2, 2),
        (3, 2),
        (4, 3),
        (7, 3),
        (8, 4),
        (1023, 10),
        (1024, 11),
        (u64::MAX >> 1, 63),
        ((u64::MAX >> 1) + 1, 64),
        (u64::MAX, 64),
    ];
    for (value, index) in expected_index {
        assert_eq!(Histogram::bucket_index(value), index, "value {value}");
    }
    // Bounds: snapshot of the full table shape plus exact spot values.
    assert_eq!(Histogram::bucket_bounds(0), (0, 0));
    assert_eq!(Histogram::bucket_bounds(1), (1, 1));
    assert_eq!(Histogram::bucket_bounds(2), (2, 3));
    assert_eq!(Histogram::bucket_bounds(10), (512, 1023));
    assert_eq!(Histogram::bucket_bounds(64), (1u64 << 63, u64::MAX));
    for i in 1..HISTOGRAM_BUCKETS {
        let (lo, hi) = Histogram::bucket_bounds(i);
        assert!(lo <= hi, "bucket {i}");
        assert_eq!(Histogram::bucket_index(lo), i, "low edge of bucket {i}");
        assert_eq!(Histogram::bucket_index(hi), i, "high edge of bucket {i}");
        if i > 1 {
            let (_, prev_hi) = Histogram::bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi + 1, "buckets {i} and {} abut", i - 1);
        }
    }
}

#[test]
fn capture_sink_collects_degradation_warnings_silently() {
    // A meta-blocking fault degrades the run; the warning must reach the
    // installed sink (and the counter) instead of being lost.
    let ds = corpus();
    let obs = Obs::enabled();
    let sink = Arc::new(CaptureSink::default());
    obs.set_sink(sink.clone());
    let pipeline = Pipeline::builder()
        .blocking(BlockingStage::Token)
        .matching(MatchingStage::jaccard(0.4))
        .observability(obs)
        .build();
    let plan = er_core::fault::FaultPlan::none().inject(
        er_pipeline::recovery::STAGE_META_BLOCKING,
        0,
        0,
        er_core::fault::FaultKind::Panic,
    );
    let opts = RecoveryOptions::retrying(er_core::fault::RetryPolicy::attempts(1))
        .with_injector(Arc::new(er_core::fault::FaultInjector::new(plan)));
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = pipeline.run_with_recovery(&ds.collection, &opts).unwrap();
    std::panic::set_hook(prev_hook);
    assert!(outcome.degraded());
    let warnings: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::Warning { .. }))
        .collect();
    assert!(
        !warnings.is_empty(),
        "degradation warning must hit the sink"
    );
    let snapshot = pipeline.metrics();
    assert!(snapshot.counter("events.warning").unwrap() >= 1);
    // attempts(1) means the single failure is final — no retry happened.
    assert_eq!(snapshot.counter("recovery.stage_retries"), Some(0));
}

#[test]
fn pipeline_snapshot_round_trips_through_json() {
    let ds = corpus();
    let pipeline = instrumented_pipeline(2);
    pipeline.run(&ds.collection);
    let snapshot = pipeline.metrics();
    let json = snapshot.to_json();
    let parsed = MetricsSnapshot::from_json(&json).unwrap();
    assert_eq!(parsed, snapshot);
    assert_eq!(parsed.to_json(), json, "re-serialization is byte-equal");
    // All five Fig. 1 stage spans are present in the parsed copy.
    for span in [
        "pipeline.run",
        "pipeline.blocking",
        "pipeline.cleaning",
        "pipeline.meta_blocking",
        "pipeline.matching",
        "pipeline.clustering",
    ] {
        assert!(parsed.span(span).is_some(), "missing span {span}");
    }
}

#[test]
fn streaming_session_counts_its_batches_and_resolver_work() {
    let ds = corpus();
    let obs = Obs::enabled();
    let mut session = StreamingSession::with_obs(
        StreamingConfig::default(),
        ResourceLimits::none(),
        obs.clone(),
    );
    for e in ds.collection.iter() {
        session.offer(raw_record_from_entity(e)).unwrap();
    }
    let rebuilt = session.checkpoint().unwrap();
    let snapshot = obs.snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let arrivals = ds.collection.len() as u64;
    assert_eq!(counter("streaming.batches"), arrivals.div_ceil(64));
    assert_eq!(counter("streaming.checkpoints"), 1);
    // Resolver work is deterministic: the incremental pass and the
    // checkpoint's rebuild integrate the same arrivals in the same order, so
    // each costs what the rebuild reports.
    assert_eq!(
        counter("streaming.resolver_comparisons"),
        2 * rebuilt.comparisons
    );
    assert_eq!(counter("streaming.resolver_merges"), 2 * rebuilt.merges);
    assert_eq!((rebuilt.comparisons, rebuilt.merges), (13_865, 444));
}

#[test]
fn disabled_obs_records_nothing() {
    let ds = corpus();
    let pipeline = Pipeline::builder()
        .blocking(BlockingStage::Token)
        .matching(MatchingStage::jaccard(0.4))
        .build();
    pipeline.run(&ds.collection);
    let snapshot = pipeline.metrics();
    assert!(snapshot.counters.is_empty());
    assert!(snapshot.gauges.is_empty());
    assert!(snapshot.histograms.is_empty());
    assert!(snapshot.spans.is_empty());
}
