//! `er` — the command-line interface of the webscale-er workspace.
//!
//! ```text
//! er generate --kind dirty --entities 1000 --noise moderate --seed 7 --out data/demo
//! er resolve  --collection data/demo.collection.txt --truth data/demo.truth.txt \
//!             --blocking token --weighting arcs --pruning wnp --threshold 0.4 \
//!             --retries 3 --checkpoint-dir /tmp/er-ckpt --resume
//! ```
//!
//! `generate` writes `<out>.collection.txt` and `<out>.truth.txt` in the
//! `er_core::io` text format; `resolve` runs the fault-tolerant pipeline —
//! blocking → (optional) meta-blocking → threshold matching → clustering —
//! and, when ground truth is supplied, prints PC/PQ/RR for the candidates
//! and precision/recall/F1 for the final matches. Stage failures are retried
//! under `--retries`; `--checkpoint-dir`/`--resume` persist and restore
//! per-stage snapshots; `--fail-stage` injects a one-shot panic into a stage
//! to demo recovery. Any unrecoverable pipeline error exits nonzero.
//! `--metrics-out FILE` enables the [`er_core::obs`] registry and writes the
//! run's metrics snapshot (counters, gauges, histograms, stage spans) as
//! deterministic sorted-key JSON; the `er-metrics-check` companion binary
//! asserts structural invariants over such a snapshot in CI.
//! Argument parsing is hand-rolled to keep the workspace dependency-light.

use er_bench::scenarios;
use er_blocking::sorted_neighborhood::SortKey;
use er_core::collection::EntityCollection;
use er_core::fault::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
use er_core::metrics::{BlockingQuality, MatchQuality};
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::resource::ResourceLimits;
use er_datagen::{
    CleanCleanConfig, CleanCleanDataset, DirtyConfig, DirtyDataset, LodConfig, LodDataset,
    NoiseModel,
};
use er_metablocking::{PruningScheme, WeightingScheme};
use er_pipeline::recovery::{STAGE_BLOCKING, STAGE_MATCHING, STAGE_META_BLOCKING};
use er_pipeline::streaming::raw_record_from_entity;
use er_pipeline::{
    Backend, BlockingStage, CleaningStage, ClusteringStage, MatchingStage, MetaBlockingStage,
    Pipeline, RecoveryOptions, StreamingConfig, StreamingSession,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    // Hidden worker mode: `er --worker` speaks the framed worker protocol on
    // stdin/stdout and never returns. This is what the subprocess backend
    // spawns when it re-execs the current binary.
    er_mapreduce::maybe_worker_entry(&er_mapreduce::default_registry());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("resolve") => cmd_resolve(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try `er help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "er — entity resolution for the Web of data\n\n\
         USAGE:\n  er generate --kind dirty|cleanclean|lod [--entities N] [--noise LEVEL]\n\
         \x20            [--seed S] --out PREFIX\n\
         \x20 er scenario list\n\
         \x20 er scenario run [--scenario NAME | --family csv|rdf|synthetic]\n\
         \x20            [--threads N] [--scorecard-out FILE] [--metrics-out FILE]\n\
         \x20 er resolve --collection FILE [--truth FILE]\n\
         \x20            [--blocking token|attrcluster|sn|minhash]\n\
         \x20            [--weighting cbs|ecbs|js|ejs|arcs] [--pruning wep|cep|wnp|cnp|none]\n\
         \x20            [--threshold T] [--clustering closure|center|umc]\n\
         \x20            [--threads N] [--show-matches N]\n\
         \x20            [--retries N] [--checkpoint-dir DIR] [--resume]\n\
         \x20            [--fail-stage blocking|meta-blocking|matching]\n\
         \x20            [--memory-budget BYTES] [--stage-timeout SECONDS]\n\
         \x20            [--segment-dir DIR] [--ooc]\n\
         \x20            [--metrics-out FILE]\n\
         \x20            [--ingest-queue-bytes BYTES] [--quarantine-out FILE]\n\
         \x20            [--backend inprocess|subprocess] [--workers N]\n\n\
         NOISE LEVELS: clean, light, moderate (default), heavy\n\
         THREADS: worker threads for the hot kernels; 0 = all cores,\n\
         \x20        default 1 (serial). The output is identical either way.\n\
         FAULTS:  --retries N retries a failed stage up to N attempts (default 3);\n\
         \x20        --checkpoint-dir DIR writes per-stage snapshots, --resume\n\
         \x20        restores the deepest valid one; --fail-stage injects one\n\
         \x20        panic into a stage's first attempt to demo recovery.\n\
         LIMITS:  --memory-budget BYTES (k/m/g suffixes, e.g. 64m) bounds the\n\
         \x20        blocking index; a breach sheds oversized blocks with the\n\
         \x20        recall loss reported instead of aborting. --stage-timeout\n\
         \x20        SECONDS arms a per-stage watchdog; an expired matching\n\
         \x20        deadline truncates the schedule, loudly.\n\
         OOC:     --segment-dir DIR enables spill-to-segment rescue: a\n\
         \x20        blocking index that would breach --memory-budget is\n\
         \x20        rebuilt out-of-core (sorted on-disk runs under DIR)\n\
         \x20        instead of shedding blocks — bit-identical output, zero\n\
         \x20        recall loss, at a reported slowdown. --ooc forces the\n\
         \x20        out-of-core blocking build unconditionally, for every\n\
         \x20        blocking method but sn, which rejects it (see\n\
         \x20        docs/out_of_core.md).\n\
         METRICS: --metrics-out FILE enables the observability registry and\n\
         \x20        writes the per-stage metrics snapshot as sorted-key JSON\n\
         \x20        (validate it with the er-metrics-check companion binary).\n\
         BACKEND: --backend subprocess runs blocking (every method but sn,\n\
         \x20        which rejects it) on --workers N (default 2) supervised\n\
         \x20        worker processes with real crash isolation: crashed\n\
         \x20        workers are restarted and their tasks reassigned, and\n\
         \x20        the resolution is bit-identical to the default\n\
         \x20        in-process backend (see docs/distributed.md).\n\
         STREAM:  --ingest-queue-bytes BYTES replays the collection through\n\
         \x20        the bounded arrival queue (producers feel back-pressure\n\
         \x20        past the budget; a record costing more than the whole\n\
         \x20        budget is an error); --quarantine-out FILE validates every\n\
         \x20        record and writes the typed quarantine ledger as JSON.\n\
         \x20        Either flag opts into the streaming ingest path; the\n\
         \x20        accepted collection is identical to the batch load.\n\
         SCENARIO: `er scenario run` executes the committed benchmark\n\
         \x20        fixtures (CSV/TSV/N-Triples plus a synthetic baseline)\n\
         \x20        across the blocking × weighting matrix and checks every\n\
         \x20        cell against its locked PC/PQ/RR envelope; any breach\n\
         \x20        exits nonzero. --scorecard-out writes the deterministic\n\
         \x20        per-cell JSON scorecard (byte-identical at any --threads);\n\
         \x20        ER_PRINT_SCENARIOS=1 also prints paste-ready lock(...) rows."
    );
}

/// Parses flags into a map: `--key value` for keys in `allowed`, bare
/// `--switch` (no value) for keys in `switches`. Unknown keys are rejected.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        if switches.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if !allowed.contains(&key) {
            let mut all: Vec<&str> = allowed.iter().chain(switches).copied().collect();
            all.sort_unstable();
            return Err(format!(
                "unknown flag --{key} (allowed: {})",
                all.join(", ")
            ));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(out)
}

/// Parses a byte size: a plain integer, optionally with a `k`/`m`/`g`
/// (KiB/MiB/GiB) suffix, case-insensitive.
fn parse_bytes(v: &str) -> Result<u64, String> {
    let lower = v.to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let shift = match lower.as_bytes()[lower.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            };
            (d, shift)
        }
        None => (lower.as_str(), 0u32),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad byte size {v:?} (expected e.g. 1048576, 64m, 2g)"))?;
    n.checked_shl(shift)
        .filter(|b| *b >> shift == n)
        .ok_or_else(|| format!("byte size {v:?} overflows u64"))
}

/// Builds the resource limits from the resolve flags.
fn resource_limits_from(flags: &BTreeMap<String, String>) -> Result<ResourceLimits, String> {
    let mut limits = ResourceLimits::none();
    if let Some(v) = flags.get("memory-budget") {
        limits = limits.with_memory_bytes(parse_bytes(v)?);
    }
    if let Some(v) = flags.get("stage-timeout") {
        let secs: f64 = v
            .parse()
            .map_err(|_| format!("bad --stage-timeout {v:?} (expected seconds)"))?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!(
                "--stage-timeout must be a non-negative number, got {v:?}"
            ));
        }
        limits = limits.with_stage_timeout(std::time::Duration::from_secs_f64(secs));
    }
    Ok(limits)
}

/// Builds the execution backend from the resolve flags: `--backend
/// inprocess` (default) or `--backend subprocess` with `--workers N` worker
/// processes (default 2).
fn backend_from(flags: &BTreeMap<String, String>) -> Result<Backend, String> {
    let workers: Option<usize> = flags
        .get("workers")
        .map(|v| v.parse().map_err(|_| format!("bad --workers {v:?}")))
        .transpose()?;
    match flags
        .get("backend")
        .map(String::as_str)
        .unwrap_or("inprocess")
    {
        "inprocess" => {
            if workers.is_some() {
                return Err("--workers only applies to --backend subprocess".to_string());
            }
            Ok(Backend::InProcess)
        }
        "subprocess" => {
            let workers = workers.unwrap_or(2);
            if workers == 0 {
                return Err("--workers must be at least 1".to_string());
            }
            Ok(Backend::Subprocess { workers })
        }
        other => Err(format!(
            "unknown --backend {other:?} (allowed: inprocess, subprocess)"
        )),
    }
}

fn noise_from(name: &str) -> Result<NoiseModel, String> {
    NoiseModel::sweep()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, m)| m)
        .ok_or_else(|| format!("unknown noise level {name:?}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["kind", "entities", "noise", "seed", "out"], &[])?;
    let kind = flags.get("kind").map(String::as_str).unwrap_or("dirty");
    let entities: usize = flags
        .get("entities")
        .map(|v| v.parse().map_err(|_| format!("bad --entities {v:?}")))
        .transpose()?
        .unwrap_or(1000);
    let noise = noise_from(flags.get("noise").map(String::as_str).unwrap_or("moderate"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|v| v.parse().map_err(|_| format!("bad --seed {v:?}")))
        .transpose()?
        .unwrap_or(42);
    let out = flags.get("out").ok_or("--out PREFIX is required")?;

    let (collection, truth) = match kind {
        "dirty" => {
            let ds = DirtyDataset::generate(&DirtyConfig {
                entities,
                noise,
                seed,
                ..Default::default()
            });
            (ds.collection, ds.truth)
        }
        "cleanclean" => {
            let ds = CleanCleanDataset::generate(&CleanCleanConfig {
                shared_entities: entities / 2,
                only_first: entities / 4,
                only_second: entities / 4,
                noise_second: noise,
                seed,
                ..Default::default()
            });
            (ds.collection, ds.truth)
        }
        "lod" => {
            let ds = LodDataset::generate(&LodConfig {
                universe: entities,
                seed,
                ..Default::default()
            });
            (ds.collection, ds.truth)
        }
        other => return Err(format!("unknown --kind {other:?}")),
    };

    let cpath = format!("{out}.collection.txt");
    let tpath = format!("{out}.truth.txt");
    let mut cf = std::fs::File::create(&cpath).map_err(|e| format!("{cpath}: {e}"))?;
    er_core::io::write_collection(&mut cf, &collection).map_err(|e| e.to_string())?;
    let mut tf = std::fs::File::create(&tpath).map_err(|e| format!("{tpath}: {e}"))?;
    er_core::io::write_truth(&mut tf, &truth).map_err(|e| e.to_string())?;
    println!(
        "wrote {} descriptions to {cpath} and {} truth pairs to {tpath}",
        collection.len(),
        truth.len()
    );
    Ok(())
}

/// Builds the fault-tolerance options from the resolve flags, validating
/// flag combinations with proper errors instead of panics.
fn recovery_options_from(flags: &BTreeMap<String, String>) -> Result<RecoveryOptions, String> {
    let retries: u32 = flags
        .get("retries")
        .map(|v| v.parse().map_err(|_| format!("bad --retries {v:?}")))
        .transpose()?
        .unwrap_or(3);
    if retries == 0 {
        return Err("--retries must be at least 1 (the first attempt counts)".to_string());
    }
    let mut opts = RecoveryOptions::retrying(RetryPolicy::attempts(retries));
    if let Some(dir) = flags.get("checkpoint-dir") {
        opts = opts.checkpoint_dir(dir);
    }
    if flags.contains_key("resume") {
        if flags.get("checkpoint-dir").is_none() {
            return Err("--resume requires --checkpoint-dir".to_string());
        }
        opts = opts.resume(true);
    }
    if let Some(stage) = flags.get("fail-stage") {
        let stage: &'static str = match stage.as_str() {
            "blocking" => STAGE_BLOCKING,
            "meta-blocking" => STAGE_META_BLOCKING,
            "matching" => STAGE_MATCHING,
            other => {
                return Err(format!(
                    "unknown --fail-stage {other:?} (allowed: blocking, meta-blocking, matching)"
                ))
            }
        };
        // One panic on the stage's first attempt: recovered when retries
        // allow, surfaced (or degraded, for meta-blocking) when they don't.
        let plan = FaultPlan::none().inject(stage, 0, 0, FaultKind::Panic);
        opts = opts.with_injector(Arc::new(FaultInjector::new(plan)));
        // The injected panic is caught by the recovery layer; without this
        // the default hook would still spray a backtrace over the output.
        std::panic::set_hook(Box::new(|info| {
            eprintln!("stage fault: {info}");
        }));
    }
    Ok(opts)
}

/// The arrival queue refused a record during a streaming replay: a record
/// costing more than the whole `--ingest-queue-bytes` budget can never be
/// admitted, and replaying past it would resolve a silently truncated
/// collection.
#[derive(Debug)]
struct ReplayRefused {
    /// 0-based position of the record in the loaded collection.
    position: usize,
    /// The record's queue cost in bytes (`RawRecord::bytes`).
    cost: u64,
    /// The `--ingest-queue-bytes` budget.
    budget: u64,
}

impl std::fmt::Display for ReplayRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "streaming ingest: record {} costs {} bytes, more than the whole \
             --ingest-queue-bytes budget of {} bytes; refusing to resolve a truncated collection",
            self.position, self.cost, self.budget
        )
    }
}

/// Replays a loaded collection through the streaming ingest path: a producer
/// thread feeds raw records into the budget-bounded arrival queue
/// (`--ingest-queue-bytes`), the session validates and quarantines them, and
/// the accepted collection — bit-identical to the input minus quarantined
/// records — is handed to the pipeline. `--quarantine-out FILE` writes the
/// quarantine ledger as deterministic JSON. A record the queue refuses is a
/// [`ReplayRefused`] error.
fn streaming_load(
    collection: &EntityCollection,
    queue_bytes: Option<u64>,
    quarantine_out: Option<&String>,
    obs: Obs,
) -> Result<EntityCollection, String> {
    let limits = match queue_bytes {
        Some(b) => ResourceLimits::none().with_memory_bytes(b),
        None => ResourceLimits::none(),
    };
    let config = StreamingConfig {
        mode: collection.mode(),
        ..StreamingConfig::default()
    };
    let mut session = StreamingSession::with_obs(config, limits, obs);
    let records: Vec<_> = collection.iter().map(raw_record_from_entity).collect();
    let producer_queue = session.queue();
    let budget = queue_bytes.unwrap_or(u64::MAX);
    let producer = std::thread::spawn(move || {
        let outcome = records
            .into_iter()
            .enumerate()
            .try_for_each(|(position, r)| {
                let cost = r.bytes();
                producer_queue.push(r).map_err(|_| ReplayRefused {
                    position,
                    cost,
                    budget,
                })
            });
        producer_queue.close();
        outcome
    });
    let consumer_queue = session.queue();
    while let Some(record) = consumer_queue.pop() {
        session.offer(record).map_err(|e| e.to_string())?;
    }
    producer
        .join()
        .map_err(|_| "streaming producer thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    session.flush().map_err(|e| e.to_string())?;
    let report = session.quarantine_report();
    println!(
        "streaming ingest: {} accepted, {} quarantined (queue high watermark {} bytes, {} \
         backpressure wait(s))",
        report.accepted(),
        report.quarantined(),
        consumer_queue.high_watermark(),
        consumer_queue.backpressure_waits()
    );
    if let Some(path) = quarantine_out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("quarantine report written to {path}");
    }
    Ok(session.collection().clone())
}

/// `er scenario list|run` — the committed benchmark matrix (see
/// `er_bench::scenarios` and docs/scenarios.md). `run` executes the selected
/// scenarios across the blocking × weighting matrix, prints one row per cell
/// with its lock verdict (plus the re-lock rows under `ER_PRINT_SCENARIOS`),
/// optionally writes the deterministic scorecard JSON and a metrics
/// snapshot, and exits nonzero when any locked cell drifts out of its
/// PC/PQ/RR envelope.
fn cmd_scenario(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for s in scenarios::REGISTRY {
                println!("{:<16} {:<10} {}", s.name, s.family.code(), s.description);
            }
            Ok(())
        }
        Some("run") => cmd_scenario_run(&args[1..]),
        Some(other) => Err(format!(
            "unknown scenario subcommand {other:?} (try `er scenario run` or `er scenario list`)"
        )),
        None => Err("scenario needs a subcommand: run or list".to_string()),
    }
}

fn cmd_scenario_run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "scenario",
            "family",
            "threads",
            "scorecard-out",
            "metrics-out",
        ],
        &[],
    )?;
    let threads: usize = flags
        .get("threads")
        .map(|v| v.parse().map_err(|_| format!("bad --threads {v:?}")))
        .transpose()?
        .unwrap_or(1);
    let selected: Vec<&scenarios::Scenario> = match (flags.get("scenario"), flags.get("family")) {
        (Some(_), Some(_)) => {
            return Err("--scenario and --family are mutually exclusive".to_string())
        }
        (Some(name), None) => {
            let scenario = scenarios::find(name).ok_or_else(|| {
                let names: Vec<&str> = scenarios::REGISTRY.iter().map(|s| s.name).collect();
                format!(
                    "unknown scenario {name:?} (available: {})",
                    names.join(", ")
                )
            })?;
            vec![scenario]
        }
        (None, Some(family)) => {
            let family = scenarios::ScenarioFamily::parse(family).ok_or_else(|| {
                format!("unknown --family {family:?} (allowed: csv, rdf, synthetic)")
            })?;
            scenarios::REGISTRY
                .iter()
                .filter(|s| s.family == family)
                .collect()
        }
        (None, None) => scenarios::REGISTRY.iter().collect(),
    };

    let metrics_out = flags.get("metrics-out");
    let obs = if metrics_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let results = scenarios::run_matrix(&selected, threads, &obs);

    println!(
        "{:<16} {:>11} {:>9} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "scenario", "blocking", "weighting", "cmp", "pc", "pq", "rr", "f1", "lock"
    );
    for c in &results {
        let verdict = match (&c.breach, c.locked) {
            (Some(_), _) => "BREACH",
            (None, true) => "ok",
            (None, false) => "-",
        };
        println!(
            "{:<16} {:>11} {:>9} {:>7} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>7}",
            c.scenario, c.blocking, c.weighting, c.comparisons, c.pc, c.pq, c.rr, c.f1, verdict
        );
    }
    let breached: Vec<_> = results.iter().filter(|c| c.breach.is_some()).collect();
    for c in &breached {
        eprintln!(
            "lock breach: {}/{}/{}: {}",
            c.scenario,
            c.blocking,
            c.weighting,
            c.breach.as_deref().unwrap_or_default()
        );
    }
    println!(
        "scenario matrix: {} cell(s) run, {} locked, {} breached (threads {threads})",
        results.len(),
        results.iter().filter(|c| c.locked).count(),
        breached.len()
    );
    scenarios::maybe_print_relock(&results);
    if let Some(path) = flags.get("scorecard-out") {
        std::fs::write(path, scenarios::scorecard_json(&results))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("scorecard written to {path}");
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, obs.snapshot().to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("metrics snapshot written to {path}");
    }
    if !breached.is_empty() {
        return Err(format!(
            "{} scenario cell(s) breached their locked quality envelope",
            breached.len()
        ));
    }
    Ok(())
}

fn cmd_resolve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "collection",
            "truth",
            "blocking",
            "weighting",
            "pruning",
            "threshold",
            "clustering",
            "threads",
            "show-matches",
            "retries",
            "checkpoint-dir",
            "fail-stage",
            "memory-budget",
            "stage-timeout",
            "segment-dir",
            "metrics-out",
            "ingest-queue-bytes",
            "quarantine-out",
            "backend",
            "workers",
        ],
        &["resume", "ooc"],
    )?;
    let par = Parallelism::threads(
        flags
            .get("threads")
            .map(|v| v.parse().map_err(|_| format!("bad --threads {v:?}")))
            .transpose()?
            .unwrap_or(1),
    );
    let opts = recovery_options_from(&flags)?;
    let limits = resource_limits_from(&flags)?;
    let backend = backend_from(&flags)?;
    if flags.get("blocking").map(String::as_str) == Some("sn") {
        // Sorted neighborhood yields pairs, not blocks: there is no index to
        // spill or to ship to workers, so refuse the flags rather than
        // ignore them.
        if flags.contains_key("ooc") {
            return Err("--ooc does not apply to --blocking sn (it has no blocks)".to_string());
        }
        if backend != Backend::InProcess {
            return Err(
                "--backend subprocess does not apply to --blocking sn (it has no blocks)"
                    .to_string(),
            );
        }
    }
    let ingest_queue_bytes = flags
        .get("ingest-queue-bytes")
        .map(|v| parse_bytes(v))
        .transpose()?;
    let cpath = flags
        .get("collection")
        .ok_or("--collection FILE is required")?;
    let f = std::fs::File::open(cpath).map_err(|e| format!("{cpath}: {e}"))?;
    let collection: EntityCollection =
        er_core::io::read_collection(&mut std::io::BufReader::new(f)).map_err(|e| e.to_string())?;
    println!(
        "loaded {} descriptions ({:?})",
        collection.len(),
        collection.mode()
    );

    // One Obs instance spans ingest and the pipeline, so a `--metrics-out`
    // snapshot taken after the run carries the `ingest.*` counters too.
    let metrics_out = flags.get("metrics-out");
    let obs = if metrics_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };

    // Streaming ingest is opt-in: with neither flag present the loaded
    // collection flows to the pipeline untouched, so existing runs are
    // byte-for-byte unaffected.
    let quarantine_out = flags.get("quarantine-out");
    let collection = if ingest_queue_bytes.is_some() || quarantine_out.is_some() {
        streaming_load(&collection, ingest_queue_bytes, quarantine_out, obs.clone())?
    } else {
        collection
    };

    let truth = flags
        .get("truth")
        .map(|tpath| -> Result<_, String> {
            let f = std::fs::File::open(tpath).map_err(|e| format!("{tpath}: {e}"))?;
            er_core::io::read_truth(&mut std::io::BufReader::new(f)).map_err(|e| e.to_string())
        })
        .transpose()?;

    // Stage selection mirrors the historical flag vocabulary onto the
    // er-pipeline stages (no cleaning, matching the CLI's past behavior).
    let blocking = flags.get("blocking").map(String::as_str).unwrap_or("token");
    let blocking_stage = match blocking {
        "token" => BlockingStage::Token,
        "attrcluster" => BlockingStage::AttributeClustering,
        "sn" => BlockingStage::SortedNeighborhood(vec![SortKey::FlattenedValue], 10),
        "minhash" => BlockingStage::MinHash(8, 2),
        other => return Err(format!("unknown --blocking {other:?}")),
    };
    let pair_producing = matches!(blocking_stage, BlockingStage::SortedNeighborhood(..));

    let pruning = flags.get("pruning").map(String::as_str).unwrap_or("wnp");
    let meta = if pruning == "none" || pair_producing {
        None
    } else {
        let weighting = match flags.get("weighting").map(String::as_str).unwrap_or("arcs") {
            "cbs" => WeightingScheme::Cbs,
            "ecbs" => WeightingScheme::Ecbs,
            "js" => WeightingScheme::Js,
            "ejs" => WeightingScheme::Ejs,
            "arcs" => WeightingScheme::Arcs,
            other => return Err(format!("unknown --weighting {other:?}")),
        };
        let pruning = match pruning {
            "wep" => PruningScheme::Wep,
            "cep" => PruningScheme::Cep,
            "wnp" => PruningScheme::Wnp,
            "cnp" => PruningScheme::Cnp,
            other => return Err(format!("unknown --pruning {other:?}")),
        };
        Some(MetaBlockingStage { weighting, pruning })
    };

    let threshold: f64 = flags
        .get("threshold")
        .map(|v| v.parse().map_err(|_| format!("bad --threshold {v:?}")))
        .transpose()?
        .unwrap_or(0.4);
    let clustering = match flags
        .get("clustering")
        .map(String::as_str)
        .unwrap_or("closure")
    {
        "closure" => ClusteringStage::ConnectedComponents,
        "center" => ClusteringStage::Center,
        "umc" => ClusteringStage::UniqueMapping,
        other => return Err(format!("unknown --clustering {other:?}")),
    };

    let mut builder = Pipeline::builder()
        .blocking(blocking_stage)
        .cleaning(CleaningStage::None)
        .matching(MatchingStage::jaccard(threshold))
        .clustering(clustering)
        .parallelism(par)
        .resource_limits(limits)
        .backend(backend)
        .observability(obs);
    builder = match meta {
        Some(mb) => builder.meta_blocking(mb),
        None => builder.no_meta_blocking(),
    };
    if let Some(dir) = flags.get("segment-dir") {
        builder = builder.segment_dir(dir);
    }
    if flags.contains_key("ooc") {
        builder = builder.out_of_core(true);
        println!(
            "out-of-core: blocking streams through sorted segment runs ({})",
            flags
                .get("segment-dir")
                .map(String::as_str)
                .unwrap_or("system temp dir")
        );
    }
    let pipeline = builder.build();

    // The fault-tolerant run: retried stages, optional checkpoints, loud
    // degradation. Unrecoverable errors propagate to a nonzero exit.
    let outcome = pipeline
        .run_with_recovery(&collection, &opts)
        .map_err(|e| e.to_string())?;
    for event in &outcome.events {
        println!("recovery: {event}");
    }
    if let Some(stage) = outcome.resumed_from {
        println!("resumed from the {stage} checkpoint");
    }
    let report = &outcome.resolution.report;
    println!(
        "blocking [{blocking}]: {} candidate comparisons",
        report.blocked_comparisons
    );
    if report.shed_comparisons > 0 {
        println!(
            "memory budget: shed {} comparison(s) from oversized blocks (recall loss reported, \
             run completed)",
            report.shed_comparisons
        );
    }
    if report.skipped_comparisons > 0 {
        println!(
            "stage timeout: matching skipped {} of {} scheduled comparison(s)",
            report.skipped_comparisons, report.scheduled_comparisons
        );
    }
    if meta.is_some() && !outcome.degraded() && outcome.resumed_from != Some(STAGE_MATCHING) {
        println!(
            "meta-blocking [{}/{}]: {} comparisons kept",
            meta.map(|m| m.weighting.name()).unwrap_or(""),
            meta.map(|m| m.pruning.name()).unwrap_or(""),
            report.scheduled_comparisons
        );
    }
    if let (Some(t), Some(candidates)) = (&truth, &outcome.scheduled) {
        let q = BlockingQuality::measure(candidates, t, collection.total_possible_comparisons());
        println!(
            "candidate quality: PC {:.3}  PQ {:.4}  RR {:.3}",
            q.pc(),
            q.pq(),
            q.rr()
        );
    }

    let matches = &outcome.resolution.matches;
    let non_singleton = outcome
        .resolution
        .clusters
        .iter()
        .filter(|c| c.len() > 1)
        .count();
    println!(
        "matching [jaccard >= {threshold}]: {} match pairs, {} multi-description entities",
        matches.len(),
        non_singleton
    );
    if let Some(t) = &truth {
        let q = MatchQuality::measure(collection.len(), matches, t);
        println!(
            "match quality: precision {:.3}  recall {:.3}  F1 {:.3}",
            q.precision(),
            q.recall(),
            q.f1()
        );
    }
    let show: usize = flags
        .get("show-matches")
        .map(|v| v.parse().map_err(|_| format!("bad --show-matches {v:?}")))
        .transpose()?
        .unwrap_or(0);
    for p in matches.iter().take(show) {
        let name = |id: er_core::entity::EntityId| {
            collection
                .entity(id)
                .attributes()
                .first()
                .map(|(_, v)| v.as_str())
                .unwrap_or("<empty>")
                .to_string()
        };
        println!("  {:?}: {:?} == {:?}", p, name(p.first()), name(p.second()));
    }
    if let Some(path) = metrics_out {
        let json = pipeline.metrics().to_json();
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!("metrics snapshot written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_flags_happy_path() {
        let f = parse_flags(
            &s(&["--kind", "dirty", "--out", "x"]),
            &["kind", "out"],
            &[],
        )
        .unwrap();
        assert_eq!(f["kind"], "dirty");
        assert_eq!(f["out"], "x");
    }

    #[test]
    fn parse_flags_rejects_unknown_and_dangling() {
        assert!(parse_flags(&s(&["--bogus", "1"]), &["kind"], &[]).is_err());
        assert!(parse_flags(&s(&["--kind"]), &["kind"], &[]).is_err());
        assert!(parse_flags(&s(&["kind", "dirty"]), &["kind"], &[]).is_err());
    }

    #[test]
    fn parse_flags_switches_take_no_value() {
        let f = parse_flags(&s(&["--resume", "--kind", "dirty"]), &["kind"], &["resume"]).unwrap();
        assert_eq!(f["resume"], "true");
        assert_eq!(f["kind"], "dirty");
    }

    #[test]
    fn noise_levels_resolve() {
        for n in ["clean", "light", "moderate", "heavy"] {
            assert!(noise_from(n).is_ok());
        }
        assert!(noise_from("extreme").is_err());
    }

    fn generate(prefix: &str, kind: &str, entities: &str) {
        cmd_generate(&s(&[
            "--kind",
            kind,
            "--entities",
            entities,
            "--noise",
            "light",
            "--seed",
            "5",
            "--out",
            prefix,
        ]))
        .unwrap();
    }

    #[test]
    fn generate_and_resolve_round_trip() {
        let dir = std::env::temp_dir().join("er_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("demo").to_string_lossy().to_string();
        generate(&prefix, "dirty", "150");
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--threshold",
            "0.5",
        ]))
        .unwrap();
        // Same resolution under parallel execution (printed results are
        // identical by the determinism contract; here we just exercise the
        // flag end to end).
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--threshold",
            "0.5",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--threads",
            "many",
        ]))
        .unwrap_err()
        .contains("--threads"));
    }

    #[test]
    fn resolve_with_umc_and_minhash() {
        let dir = std::env::temp_dir().join("er_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("cc").to_string_lossy().to_string();
        generate(&prefix, "cleanclean", "120");
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--blocking",
            "minhash",
            "--clustering",
            "umc",
        ]))
        .unwrap();
        let err = cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--clustering",
            "bogus",
        ]))
        .unwrap_err();
        assert!(err.contains("clustering"));
    }

    #[test]
    fn resolve_missing_file_errors() {
        let err = cmd_resolve(&s(&["--collection", "/nonexistent/file.txt"])).unwrap_err();
        assert!(err.contains("/nonexistent/file.txt"));
    }

    #[test]
    fn resume_without_checkpoint_dir_is_a_proper_error() {
        let err = cmd_resolve(&s(&["--collection", "x.txt", "--resume"])).unwrap_err();
        assert!(err.contains("--resume requires --checkpoint-dir"), "{err}");
    }

    #[test]
    fn zero_retries_is_a_proper_error() {
        let err = cmd_resolve(&s(&["--collection", "x.txt", "--retries", "0"])).unwrap_err();
        assert!(err.contains("--retries"), "{err}");
    }

    #[test]
    fn unknown_fail_stage_is_a_proper_error() {
        let err =
            cmd_resolve(&s(&["--collection", "x.txt", "--fail-stage", "sorting"])).unwrap_err();
        assert!(err.contains("--fail-stage"), "{err}");
    }

    #[test]
    fn injected_stage_failure_is_recovered_by_retries() {
        let dir = std::env::temp_dir().join("er_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("ft").to_string_lossy().to_string();
        generate(&prefix, "dirty", "120");
        // Default --retries 3 absorbs the single injected panic.
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--fail-stage",
            "blocking",
        ]))
        .unwrap();
        // With one attempt the blocking failure is unrecoverable → Err, which
        // main() turns into a nonzero exit.
        let err = cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--fail-stage",
            "blocking",
            "--retries",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("blocking"), "{err}");
        // A meta-blocking failure degrades instead of failing, even with a
        // single attempt.
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--fail-stage",
            "meta-blocking",
            "--retries",
            "1",
        ]))
        .unwrap();
    }

    #[test]
    fn backend_flag_errors_are_proper_errors() {
        let err = cmd_resolve(&s(&["--collection", "x.txt", "--backend", "hadoop"])).unwrap_err();
        assert!(err.contains("--backend"), "{err}");
        let err = cmd_resolve(&s(&["--collection", "x.txt", "--workers", "4"])).unwrap_err();
        assert!(
            err.contains("--workers only applies to --backend subprocess"),
            "{err}"
        );
        let err = cmd_resolve(&s(&[
            "--collection",
            "x.txt",
            "--backend",
            "subprocess",
            "--workers",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--workers must be at least 1"), "{err}");
        let err = cmd_resolve(&s(&[
            "--collection",
            "x.txt",
            "--backend",
            "subprocess",
            "--workers",
            "two",
        ]))
        .unwrap_err();
        assert!(err.contains("bad --workers"), "{err}");
    }

    #[test]
    fn sorted_neighborhood_rejects_the_block_index_flags() {
        // Every block-producing method honours --ooc and the subprocess
        // backend; sorted neighborhood has no blocks, so it refuses both
        // before reading the collection.
        let sn = ["--collection", "x.txt", "--blocking", "sn"];
        let err = cmd_resolve(&s(&[&sn[..], &["--ooc"]].concat())).unwrap_err();
        assert!(
            err.contains("--ooc does not apply to --blocking sn"),
            "{err}"
        );
        let subprocess = ["--backend", "subprocess"];
        let err = cmd_resolve(&s(&[&sn[..], &subprocess].concat())).unwrap_err();
        assert!(
            err.contains("--backend subprocess does not apply to --blocking sn"),
            "{err}"
        );
        // The in-process default is no refusal: the run gets as far as the
        // missing collection.
        let err = cmd_resolve(&s(&sn)).unwrap_err();
        assert!(err.contains("x.txt"), "{err}");
    }

    #[test]
    fn parse_bytes_accepts_suffixes_and_rejects_junk() {
        assert_eq!(parse_bytes("1048576").unwrap(), 1 << 20);
        assert_eq!(parse_bytes("64k").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("64M").unwrap(), 64 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("m").is_err());
        assert!(parse_bytes("-1").is_err());
        assert!(parse_bytes("1.5m").is_err());
        assert!(parse_bytes("99999999999999999999g").is_err());
        assert!(parse_bytes(&format!("{}g", u64::MAX)).is_err(), "overflow");
    }

    #[test]
    fn bad_resource_limit_flags_are_proper_errors() {
        let err =
            cmd_resolve(&s(&["--collection", "x.txt", "--memory-budget", "lots"])).unwrap_err();
        assert!(err.contains("byte size"), "{err}");
        let err = cmd_resolve(&s(&["--collection", "x.txt", "--stage-timeout", "-3"])).unwrap_err();
        assert!(err.contains("--stage-timeout"), "{err}");
    }

    #[test]
    fn resolve_under_a_tiny_memory_budget_completes() {
        let dir = std::env::temp_dir().join("er_cli_test6");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("gov").to_string_lossy().to_string();
        generate(&prefix, "dirty", "150");
        // A 4 KiB budget forces shedding; the run must still complete with
        // the recall loss reported rather than abort.
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--memory-budget",
            "4k",
        ]))
        .unwrap();
        // Generous limits run like an ungoverned resolve.
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--memory-budget",
            "1g",
            "--stage-timeout",
            "3600",
        ]))
        .unwrap();
    }

    #[test]
    fn ooc_resolve_writes_segments_and_matches_the_in_memory_run() {
        let dir = std::env::temp_dir().join("er_cli_test_ooc");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("ooc").to_string_lossy().to_string();
        let segdir = dir.join("segments").to_string_lossy().to_string();
        let mpath = dir.join("ooc_metrics.json").to_string_lossy().to_string();
        generate(&prefix, "dirty", "150");
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--ooc",
            "--segment-dir",
            &segdir,
            "--metrics-out",
            &mpath,
        ]))
        .unwrap();
        let snapshot =
            er_core::obs::MetricsSnapshot::from_json(&std::fs::read_to_string(&mpath).unwrap())
                .unwrap();
        assert!(
            snapshot.counter("colstore.segments_written").unwrap() > 0,
            "forced ooc spills runs"
        );
        assert_eq!(
            snapshot.gauge("colstore.resident_bytes"),
            Some(0.0),
            "every resident page released by run end"
        );
        // Zero shed: the whole point of the out-of-core path.
        assert_eq!(snapshot.counter("blocking.blocks_shed"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_budget_with_segment_dir_rescues_through_the_cli() {
        let dir = std::env::temp_dir().join("er_cli_test_rescue");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("rescue").to_string_lossy().to_string();
        let segdir = dir.join("segments").to_string_lossy().to_string();
        let mpath = dir.join("metrics.json").to_string_lossy().to_string();
        generate(&prefix, "dirty", "150");
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--memory-budget",
            "4k",
            "--segment-dir",
            &segdir,
            "--metrics-out",
            &mpath,
        ]))
        .unwrap();
        let snapshot =
            er_core::obs::MetricsSnapshot::from_json(&std::fs::read_to_string(&mpath).unwrap())
                .unwrap();
        assert_eq!(snapshot.counter("colstore.spill_rescues"), Some(1));
        assert_eq!(
            snapshot.counter("blocking.comparisons_shed"),
            None,
            "the rescue sheds nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_out_writes_a_parsable_snapshot() {
        let dir = std::env::temp_dir().join("er_cli_test5");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("obs").to_string_lossy().to_string();
        let mpath = dir.join("metrics.json").to_string_lossy().to_string();
        generate(&prefix, "dirty", "150");
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--metrics-out",
            &mpath,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&mpath).unwrap();
        let snapshot = er_core::obs::MetricsSnapshot::from_json(&text).unwrap();
        assert!(snapshot.counter("blocking.blocks_built").unwrap() > 0);
        assert!(
            snapshot.counter("meta_blocking.comparisons_after").unwrap()
                <= snapshot
                    .counter("meta_blocking.comparisons_before")
                    .unwrap()
        );
        assert_eq!(snapshot.counter("recovery.stage_retries"), Some(0));
        for span in [
            "pipeline.run",
            "pipeline.blocking",
            "pipeline.cleaning",
            "pipeline.meta_blocking",
            "pipeline.matching",
            "pipeline.clustering",
        ] {
            assert!(snapshot.span(span).is_some(), "missing span {span}");
        }
        let _ = std::fs::remove_file(&mpath);
    }

    #[test]
    fn streaming_ingest_flags_replay_the_collection() {
        let dir = std::env::temp_dir().join("er_cli_test7");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("stream").to_string_lossy().to_string();
        let qpath = dir.join("quarantine.json").to_string_lossy().to_string();
        generate(&prefix, "dirty", "150");
        // A clean generated collection replayed through a small bounded
        // queue: nothing quarantined, the resolve completes normally.
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--truth",
            &format!("{prefix}.truth.txt"),
            "--ingest-queue-bytes",
            "8k",
            "--quarantine-out",
            &qpath,
        ]))
        .unwrap();
        let ledger = std::fs::read_to_string(&qpath).unwrap();
        assert!(ledger.contains("\"quarantined\": 0"), "{ledger}");
        let accepted: u64 = ledger
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"accepted\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("ledger carries the accepted count");
        assert!(accepted > 150, "every description accepted: {accepted}");
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn streaming_counters_land_in_the_metrics_snapshot() {
        let dir = std::env::temp_dir().join("er_cli_test8");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("stream_obs").to_string_lossy().to_string();
        let mpath = dir.join("metrics.json").to_string_lossy().to_string();
        generate(&prefix, "dirty", "150");
        cmd_resolve(&s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--ingest-queue-bytes",
            "8k",
            "--metrics-out",
            &mpath,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&mpath).unwrap();
        let snapshot = er_core::obs::MetricsSnapshot::from_json(&text).unwrap();
        // Ingest and pipeline share one registry: the ledger identity holds
        // inside the very snapshot the pipeline stages wrote into.
        let seen = snapshot.counter("ingest.records_seen").unwrap();
        assert!(
            seen > 150,
            "every description flowed through ingest: {seen}"
        );
        assert_eq!(
            Some(seen),
            snapshot.counter("ingest.records_accepted"),
            "a clean generated collection quarantines nothing"
        );
        // Counters register on first increment: a clean run never touches
        // the quarantine counter, so "absent" is the correct zero here.
        assert_eq!(snapshot.counter("ingest.records_quarantined"), None);
        assert!(snapshot.counter("blocking.blocks_built").unwrap() > 0);
        let _ = std::fs::remove_file(&mpath);
    }

    #[test]
    fn record_over_the_whole_queue_budget_fails_the_replay() {
        let dir = std::env::temp_dir().join("er_cli_test_oversized");
        std::fs::create_dir_all(&dir).unwrap();
        let cpath = dir.join("oversized.collection.txt");
        let mut c = EntityCollection::new(er_core::collection::ResolutionMode::Dirty);
        let oversized = "x".repeat(4096);
        for value in [
            "alan turing",
            oversized.as_str(),
            "grace hopper",
            "alan kay",
        ] {
            c.push(
                er_core::entity::KbId(0),
                vec![("name".to_string(), value.to_string())],
            );
        }
        let costs: Vec<u64> = c
            .iter()
            .map(|e| raw_record_from_entity(e).bytes())
            .collect();
        // A budget between the small records' cost and the oversized one's.
        let budget = 1024;
        assert!(costs[1] > budget && [0, 2, 3].iter().all(|&i| costs[i] < budget));
        er_core::io::write_collection(&mut std::fs::File::create(&cpath).unwrap(), &c).unwrap();

        let err = cmd_resolve(&s(&[
            "--collection",
            &cpath.to_string_lossy(),
            "--ingest-queue-bytes",
            "1k",
        ]))
        .unwrap_err();
        for part in [
            "record 1 ".to_string(),
            format!("costs {} bytes", costs[1]),
            format!("budget of {budget} bytes"),
        ] {
            assert!(err.contains(&part), "{err:?} lacks {part:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_ingest_queue_bytes_is_a_proper_error() {
        let err = cmd_resolve(&s(&[
            "--collection",
            "x.txt",
            "--ingest-queue-bytes",
            "lots",
        ]))
        .unwrap_err();
        assert!(err.contains("byte size"), "{err}");
    }

    #[test]
    fn scenario_list_and_run_write_scorecard_and_metrics() {
        cmd_scenario(&s(&["list"])).unwrap();
        let dir = std::env::temp_dir().join("er_cli_test9");
        std::fs::create_dir_all(&dir).unwrap();
        let card = dir.join("scorecard.json").to_string_lossy().to_string();
        let mpath = dir
            .join("scenario_metrics.json")
            .to_string_lossy()
            .to_string();
        cmd_scenario(&s(&[
            "run",
            "--scenario",
            "census",
            "--threads",
            "2",
            "--scorecard-out",
            &card,
            "--metrics-out",
            &mpath,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&card).unwrap();
        assert!(text.contains("er-scenario-scorecard-v1"), "{text}");
        assert!(text.contains("\"cells_failed\": 0"), "{text}");
        let snapshot =
            er_core::obs::MetricsSnapshot::from_json(&std::fs::read_to_string(&mpath).unwrap())
                .unwrap();
        assert_eq!(snapshot.counter("scenario.cells_run"), Some(9));
        assert_eq!(snapshot.counter("scenario.cells_failed"), Some(0));
        // The matrix cells ran through the full pipeline, so the snapshot
        // carries the stage spans er-metrics-check asserts on.
        assert!(snapshot.span("pipeline.run").is_some());
        let _ = std::fs::remove_file(&card);
        let _ = std::fs::remove_file(&mpath);
    }

    #[test]
    fn scenario_run_by_family_selects_the_family() {
        let dir = std::env::temp_dir().join("er_cli_test10");
        std::fs::create_dir_all(&dir).unwrap();
        let card = dir.join("rdf.json").to_string_lossy().to_string();
        cmd_scenario(&s(&["run", "--family", "rdf", "--scorecard-out", &card])).unwrap();
        let text = std::fs::read_to_string(&card).unwrap();
        assert!(text.contains("lod-people"), "{text}");
        assert!(!text.contains("census"), "{text}");
        let _ = std::fs::remove_file(&card);
    }

    #[test]
    fn scenario_flag_errors_are_proper_errors() {
        assert!(cmd_scenario(&s(&[])).is_err());
        assert!(cmd_scenario(&s(&["prune"]))
            .unwrap_err()
            .contains("subcommand"));
        assert!(cmd_scenario(&s(&["run", "--scenario", "nope"]))
            .unwrap_err()
            .contains("unknown scenario"));
        assert!(cmd_scenario(&s(&["run", "--family", "tabular"]))
            .unwrap_err()
            .contains("--family"));
        assert!(
            cmd_scenario(&s(&["run", "--scenario", "census", "--family", "csv"]))
                .unwrap_err()
                .contains("mutually exclusive")
        );
        assert!(cmd_scenario(&s(&["run", "--threads", "many"]))
            .unwrap_err()
            .contains("--threads"));
    }

    #[test]
    fn checkpoint_and_resume_through_the_cli() {
        let dir = std::env::temp_dir().join("er_cli_test4");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("ck").to_string_lossy().to_string();
        let ckpt = dir.join("ckpts").to_string_lossy().to_string();
        generate(&prefix, "dirty", "120");
        let base = s(&[
            "--collection",
            &format!("{prefix}.collection.txt"),
            "--checkpoint-dir",
            &ckpt,
        ]);
        cmd_resolve(&base).unwrap();
        assert!(std::path::Path::new(&ckpt).join("matched.ckpt").exists());
        let mut resumed = base;
        resumed.push("--resume".to_string());
        cmd_resolve(&resumed).unwrap();
        let _ = std::fs::remove_dir_all(dir.join("ckpts"));
    }
}
