//! One measured run of one workload in this process: the untraced run that
//! yields the end-to-end metrics, and the traced run that yields the
//! per-layer ones. Closed loop, one client: the next repetition starts when
//! the previous one returned.

use crate::staged;
use crate::stats::summarize;
use crate::trace::{self_seconds_by_name, Tracer};
use crate::workload::{corpus_bytes, fingerprint, resolve, Fnv, Input, Mode, Outcome, Spec};
use er_core::obs::Obs;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_ROUNDS: usize = 5;
/// Timed repetitions a run makes even when `--seconds` is already spent.
const MIN_REPETITIONS: usize = 3;

/// `(name, unit, better, bound)`; mirrored by `BENCHMARK.json` (a unit test
/// keeps the two in step).
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("resolve_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("f1", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`, grouped by layer. Every traced run prints all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    // er-blocking
    ("blocking.build_s", "s", "lower"),
    ("blocking.purge_s", "s", "lower"),
    ("blocking.pairs_s", "s", "lower"),
    ("blocking.blocks", "count", "lower"),
    ("blocking.postings", "count", "lower"),
    ("blocking.blocked_comparisons", "count", "lower"),
    // er-metablocking
    ("metablocking.graph_s", "s", "lower"),
    ("metablocking.prune_s", "s", "lower"),
    ("metablocking.edges", "count", "lower"),
    ("metablocking.edge_sort_bytes", "bytes", "lower"),
    ("metablocking.kept_comparisons", "count", "lower"),
    ("metablocking.kept_ratio", "ratio", "lower"),
    // er-core::matching
    ("matching.decide_s", "s", "lower"),
    ("matching.comparisons", "count", "lower"),
    ("matching.ns_per_comparison", "ns", "lower"),
    ("matching.match_ratio", "ratio", "higher"),
    // er-core::clusters
    ("clustering.cc_s", "s", "lower"),
    ("clustering.clusters", "count", "lower"),
    // er-pipeline
    ("pipeline.driver_s", "s", "lower"),
    // er-mapreduce (subproc.cleaned)
    ("mapreduce.dist_s", "s", "lower"),
    ("mapreduce.map_output_records", "count", "lower"),
    ("mapreduce.reduce_groups", "count", "lower"),
    ("worker.spawned", "count", "lower"),
    ("worker.crashed", "count", "lower"),
    ("worker.restarted", "count", "lower"),
    // er-core::colstore (ooc.dense)
    ("colstore.segments_written", "count", "lower"),
    ("colstore.segment_bytes", "bytes", "lower"),
    ("colstore.runs_merged", "count", "lower"),
    ("colstore.pages_loaded", "count", "lower"),
    ("colstore.pages_evicted", "count", "lower"),
    ("colstore.write_amp", "ratio", "lower"),
    // streaming layers (stream.replay)
    ("ingest.admit_s", "s", "lower"),
    ("ingest.quarantined", "count", "lower"),
    ("incindex.insert_s", "s", "lower"),
    ("incgraph.delta_s", "s", "lower"),
    ("incgraph.refresh_s", "s", "lower"),
    ("resolver.insert_s", "s", "lower"),
    ("resolver.reresolve_s", "s", "lower"),
    ("stream.batch_ms", "ms", "lower"),
    ("stream.batch_max_ms", "ms", "lower"),
    ("stream.batches", "count", "lower"),
    // the trace itself
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.repetitions", "count", "higher"),
];

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a run prints as its last line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`. Values print with all their
    /// digits (Rust's shortest round-trip form, never an exponent).
    pub fn metrics_json(&self) -> String {
        let entries: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// The driver's result line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// Reads back a line [`to_json_line`](RunResult::to_json_line) wrote
    /// (the suite reads its children's results); not a general JSON parser.
    pub fn parse_json_line(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
            let entry = entry.trim_start_matches([',', ' ']);
            let (name, rest) = entry.strip_prefix('"')?.split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            metrics.push(Metric {
                name: name.to_string(),
                value: value.parse().ok()?,
                unit: unit.to_string(),
            });
        }
        Some(RunResult {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }
}

/// Failed operations of one repetition. A wrong or malformed result fails
/// every operation of the repetition; otherwise each shed or skipped batch
/// result, or each quarantined record, is one failed operation.
fn failed_operations(got: &Outcome, expected_fingerprint: u64) -> u64 {
    if got.fingerprint != expected_fingerprint || !got.well_formed {
        got.operations
    } else {
        got.degraded.min(got.operations)
    }
}

/// One repetition with panics (the pipeline's out-of-core and subprocess
/// paths panic on their typed errors) turned into an error message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panicked: {msg}"))
    })
}

/// `VmHWM` of this process in MB (for `subproc.cleaned` that is the
/// coordinator only; worker processes are not included).
fn peak_rss_mb() -> Result<f64, String> {
    crate::suite::proc_kb("/proc/self/status", "VmHWM:")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find_map(|(n, u)| (n == name).then_some(u))
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit_of(name).to_string(),
    }
}

fn corpus_digest(input: &Input) -> u64 {
    let mut h = Fnv::new();
    h.eat(&corpus_bytes(&input.dataset.collection));
    h.0
}

/// The untraced run: [`SETUP_ROUNDS`] set-ups (corpus generation, record
/// conversion, segment directory, one warm-up repetition), then timed
/// repetitions for `seconds`.
pub fn untraced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tmp_root: &Path,
) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let input = Input::prepare(spec, seed, tmp_root).map_err(|e| e.to_string())?;
        let (_, warm) = guarded(|| resolve(spec, &input))?;
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((input, warm));
    }
    let (input, expected) = prepared.expect("at least one set-up round");
    println!(
        "# {}: {} entities -> {} descriptions, {} truth pairs, seed {seed}, corpus digest {:016x}",
        spec.name,
        spec.entities,
        input.dataset.collection.len(),
        input.dataset.truth.len(),
        corpus_digest(&input),
    );

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut resolve_s = Vec::new();
    let started = Instant::now();
    let mut repetitions = 0;
    while repetitions < MIN_REPETITIONS || started.elapsed().as_secs_f64() < seconds {
        repetitions += 1;
        match guarded(|| resolve(spec, &input)) {
            Ok((secs, got)) => {
                attempted += got.operations;
                failed += failed_operations(&got, expected.fingerprint);
                resolve_s.push(secs);
            }
            Err(msg) => {
                eprintln!("{}: repetition {repetitions} failed: {msg}", spec.name);
                attempted += expected.operations;
                failed += expected.operations;
            }
        }
    }
    if resolve_s.is_empty() {
        return Err("every repetition failed".to_string());
    }
    let resolve = summarize(&resolve_s);
    let setup = summarize(&setup_s);
    println!(
        "# resolve_s best {} median {} max {} n {}; setup_s best {} median {} max {} n {}",
        resolve.min,
        resolve.median,
        resolve.max,
        resolve.n,
        setup.min,
        setup.median,
        setup.max,
        setup.n
    );
    Ok(RunResult {
        correct: failed == 0 && expected.f1 > 0.0,
        attempted,
        failed,
        metrics: vec![
            metric("resolve_s", resolve.min),
            metric("peak_rss_mb", peak_rss_mb()?),
            metric("f1", expected.f1),
            metric("setup_s", setup.min),
        ],
    })
}

/// The traced run: after one warm-up, alternates an untraced repetition and
/// a staged traced one for `seconds`, checks that the staged result equals
/// the untraced one and the reference configuration's, and writes
/// `trace.<workload>.json` under `out_dir`.
pub fn traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tmp_root: &Path,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let input = Input::prepare(spec, seed, tmp_root).map_err(|e| e.to_string())?;
    let (_, expected) = guarded(|| resolve(spec, &input))?;
    let mut tracer = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut untraced_s = Vec::new();
    let mut counts = BTreeMap::new();
    let started = Instant::now();
    while untraced_s.len() < MIN_REPETITIONS || started.elapsed().as_secs_f64() < seconds {
        let (secs, plain) = guarded(|| resolve(spec, &input))?;
        untraced_s.push(secs);
        let staged = guarded(|| match spec.mode {
            Mode::Stream => staged::stream(&input, &mut tracer),
            _ => staged::batch(spec, &input, &mut tracer),
        })?;
        for got in [&plain, &staged.outcome] {
            attempted += got.operations;
            failed += failed_operations(got, expected.fingerprint);
        }
        counts = staged.counts;
    }

    // The fastest traced repetition gives every layer time, so the layer
    // times and their total describe one and the same repetition.
    let runs = untraced_s.len() as u32;
    let (traced_best, by_name) = (1..=runs)
        .map(|run| self_seconds_by_name(tracer.spans(), run))
        .map(|by_name| (by_name.values().sum::<f64>(), by_name))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one traced repetition");
    let untraced_best = summarize(&untraced_s).min;
    let mut values: BTreeMap<String, f64> = counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let mut layers_sum = 0.0;
    for (name, secs) in by_name {
        // `resolve` is the root; `stream.batch` only wraps the layer spans
        // of one batch. Their own time is glue, not a layer's.
        if name != "resolve" && name != "stream.batch" {
            layers_sum += secs;
            values.insert(format!("{name}_s"), secs);
        }
    }
    values.insert("pipeline.driver_s".into(), untraced_best - layers_sum);
    values.insert("trace.overhead_s".into(), traced_best - untraced_best);
    values.insert("trace.layer_share".into(), layers_sum / traced_best);
    values.insert("trace.repetitions".into(), f64::from(runs));
    let comparisons = values.get("matching.comparisons").copied().unwrap_or(0.0);
    if comparisons > 0.0 {
        let ns = values["matching.decide_s"] * 1e9 / comparisons;
        values.insert("matching.ns_per_comparison".into(), ns);
    }
    let batch_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "stream.batch")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    if !batch_ms.is_empty() {
        let s = summarize(&batch_ms);
        values.insert("stream.batch_ms".into(), s.median);
        values.insert("stream.batch_max_ms".into(), s.max);
    }

    // The reference configuration (serial, in-process, in-memory) on the
    // same corpus must give the same resolution.
    if spec.mode != Mode::Stream {
        let obs = Obs::enabled();
        let reference = spec
            .reference_pipeline(obs.clone())
            .run(&input.dataset.collection);
        attempted += 1;
        if fingerprint(&reference.matches, &reference.clusters) != expected.fingerprint {
            eprintln!("{}: differs from the reference configuration", spec.name);
            failed += 1;
        }
        if spec.mode == Mode::OutOfCore {
            let in_memory = obs
                .snapshot()
                .counter("metablocking.edge_sort_bytes")
                .unwrap_or(0);
            let amp = values["colstore.segment_bytes"] / in_memory.max(1) as f64;
            values.insert("colstore.write_amp".into(), amp);
        }
    }

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let trace_file = out_dir.join(format!("trace.{}.json", spec.name));
    std::fs::write(&trace_file, tracer.to_json(spec.name)).map_err(|e| e.to_string())?;
    println!(
        "# {}: {} traced repetitions, {} spans -> {}; best untraced {untraced_best} s, best traced {traced_best} s",
        spec.name,
        runs,
        tracer.spans().len(),
        trace_file.display()
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _, _)| metric(name, values.remove(name).unwrap_or(0.0)))
        .collect();
    assert!(
        values.is_empty(),
        "undeclared per-layer metrics: {values:?}"
    );
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![metric("resolve_s", 1.203_487_1), metric("f1", 0.93)],
        };
        let line = r.to_json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"resolve_s\": {\"value\": 1.2034871, \"unit\": \"s\"}, \
             \"f1\": {\"value\": 0.93, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(RunResult::parse_json_line(&line), Some(r));
        assert_eq!(RunResult::parse_json_line("not a result"), None);
    }

    #[test]
    fn failed_operations_counts_per_operation() {
        let ok = Outcome {
            fingerprint: 7,
            f1: 0.9,
            operations: 100,
            degraded: 0,
            well_formed: true,
        };
        assert_eq!(failed_operations(&ok, 7), 0);
        assert_eq!(failed_operations(&ok, 8), 100, "a wrong result fails all");
        let quarantined = Outcome {
            degraded: 3,
            ..ok.clone()
        };
        assert_eq!(failed_operations(&quarantined, 7), 3);
        let shed = Outcome {
            operations: 1,
            degraded: 5000,
            ..ok
        };
        assert_eq!(failed_operations(&shed, 7), 1);
    }

    #[test]
    fn panics_become_errors() {
        let r: Result<(), String> = guarded(|| panic!("boom {}", 1));
        assert_eq!(r, Err("panicked: boom 1".to_string()));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same metrics and workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing {entry}");
        }
        for w in crate::workload::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)));
        }
        let seconds = format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS);
        assert!(json.contains(&seconds), "missing {seconds}");
    }
}
