//! `er-metrics-check` — CI gate over an `er resolve --metrics-out` snapshot.
//!
//! ```text
//! er-metrics-check metrics.json [--expect-fault-free] [--require-ingest]
//!                               [--require-scenarios] [--require-backend]
//!                               [--require-colstore] [--max-cluster-share F]
//! ```
//!
//! Parses the sorted-key JSON written by the CLI back into an
//! [`er_core::obs::MetricsSnapshot`] and asserts the structural invariants a
//! healthy block-based pipeline run must satisfy:
//!
//! - blocking did real work: `blocking.blocks_built` > 0 and the
//!   `blocking.block_size` histogram is non-empty;
//! - the compact layout was exercised: `blocking.interner_symbols` > 0
//!   (token blocking interned a vocabulary — see `docs/data_layout.md`);
//! - meta-blocking is consistent: `meta_blocking.contributions` ≥
//!   `meta_blocking.comparisons_before` ≥ `meta_blocking.comparisons_after`
//!   (the node scan folds at least one block-pair occurrence into every
//!   edge, and pruning never grows the edge set), `meta_blocking.member_visits`
//!   ≥ 2 × `meta_blocking.contributions` (a walked block of `|b|` members
//!   is visited `|b|²` times and holds at most `|b|(|b|−1)/2` pairs in dirty
//!   mode, `n₁n₂ ≤ (n₁+n₂)²/4` in clean–clean), the pruned/before/after
//!   ledger adds up, and the `meta_blocking.pruning_ratio` gauge is strictly
//!   positive;
//! - every Fig. 1 stage span is present under the `pipeline.run` parent:
//!   blocking, cleaning, meta-blocking, matching, clustering;
//! - the run tokenized once: whenever `pipeline.matched_comparisons` > 0,
//!   the `pipeline.profiles` span exists as a child of `pipeline.run` and
//!   `profiles.symbols` and `profiles.vocabulary` are both > 0; and the span
//!   never closed more often than `pipeline.run` — at most one tokenization
//!   per walk (see `docs/data_layout.md`);
//! - with `--expect-fault-free`: `recovery.stage_retries` exists and is 0;
//! - with `--require-ingest` (a run that used the streaming ingest path,
//!   `--ingest-queue-bytes` / `--quarantine-out`): `ingest.records_seen` > 0
//!   and the ledger identity `seen == accepted + quarantined` holds (a
//!   counter absent from the snapshot was never incremented and reads as 0),
//!   and the `ingest.queue_bytes` gauge exists and reads 0 — the arrival
//!   queue was fully drained and released its whole byte budget;
//! - with `--require-scenarios` (a snapshot from `er scenario run
//!   --metrics-out`): `scenario.cells_run` > 0 — the benchmark matrix
//!   actually executed — and `scenario.cells_failed` is 0 (the counter is
//!   pre-registered by the runner, so an absent counter also reads as 0);
//! - with `--require-backend` (a run on the subprocess worker backend,
//!   `er resolve --backend subprocess`): `worker.spawned` > 0, the pool
//!   ledger `spawned == exited + crashed` holds (every spawned worker was
//!   reaped, one way or the other), `worker.restarted` ≤ `worker.crashed`
//!   (restarts only replace crashed workers), and the `worker.running` gauge
//!   exists and reads 0 — the pool was fully drained; and the
//!   `mapreduce.task_latency_micros` histogram holds exactly one sample per
//!   task (`mapreduce.map_tasks + mapreduce.reduce_tasks` > 0) — the
//!   coordinator's attempt ledger timed every task's first success. With
//!   `--expect-fault-free` as well, `worker.crashed` is 0 and `worker.exited
//!   == worker.spawned`: every worker exited when told, none was killed at
//!   the shutdown grace deadline.
//! - with `--require-colstore` (a run that exercised the out-of-core
//!   segment store, `er resolve --ooc` / a spill-to-segment rescue):
//!   `colstore.segments_written` > 0 — sorted runs actually hit disk —
//!   `colstore.runs_merged` ≥ `colstore.segments_written` (every written
//!   run was consumed by a k-way merge; a run merged but never written
//!   would be fabricated data), and the `colstore.resident_bytes` gauge
//!   exists and reads 0. The store maps and caches nothing: the gauge is
//!   the bytes charged to the memory budget by segment reads in flight, so
//!   it is 0 between reads, and anything else is a read that never
//!   released its charge;
//! - with `--max-cluster-share F` (`0 < F ≤ 1`): the last run's largest
//!   cluster holds at most a share `F` of the entities it clustered
//!   (`clustering.largest_cluster` / `clustering.entities`, both gauges) —
//!   a clustering that chained most of the collection into one component
//!   fails instead of passing silently.
//!
//! Every violated invariant is reported (not just the first); any violation
//! exits nonzero so the CI job fails loudly.

use er_core::obs::MetricsSnapshot;
use std::process::ExitCode;

/// The five Fig. 1 stage spans every block-based pipeline run must record.
const STAGE_SPANS: [&str; 5] = [
    "pipeline.blocking",
    "pipeline.cleaning",
    "pipeline.meta_blocking",
    "pipeline.matching",
    "pipeline.clustering",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: er-metrics-check SNAPSHOT.json [--expect-fault-free] \
                         [--require-ingest] [--require-scenarios] [--require-backend] \
                         [--require-colstore] [--max-cluster-share F]";
    let mut path = None;
    let mut expect_fault_free = false;
    let mut require_ingest = false;
    let mut require_scenarios = false;
    let mut require_backend = false;
    let mut require_colstore = false;
    let mut max_cluster_share = None;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--expect-fault-free" => expect_fault_free = true,
            "--require-ingest" => require_ingest = true,
            "--require-scenarios" => require_scenarios = true,
            "--require-backend" => require_backend = true,
            "--require-colstore" => require_colstore = true,
            "--max-cluster-share" => {
                let v = args.next().ok_or("--max-cluster-share needs a value")?;
                match v.parse::<f64>() {
                    Ok(f) if f > 0.0 && f <= 1.0 => max_cluster_share = Some(f),
                    _ => return Err(format!("bad --max-cluster-share {v:?}")),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            other => {
                if path.replace(other).is_some() {
                    return Err("exactly one snapshot path is expected".to_string());
                }
            }
        }
    }
    let path = path.ok_or(USAGE)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snapshot = MetricsSnapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?;

    let mut failures = check(
        &snapshot,
        expect_fault_free,
        require_ingest,
        require_scenarios,
        require_backend,
        require_colstore,
    );
    if let Some(max) = max_cluster_share {
        failures.extend(cluster_share(&snapshot, max));
    }
    if failures.is_empty() {
        println!(
            "ok: {} counters, {} gauges, {} histograms, {} spans — all invariants hold",
            snapshot.counters.len(),
            snapshot.gauges.len(),
            snapshot.histograms.len(),
            snapshot.spans.len()
        );
        Ok(())
    } else {
        for f in &failures {
            eprintln!("invariant violated: {f}");
        }
        Err(format!("{} invariant(s) violated", failures.len()))
    }
}

/// Whether the span's parent chain reaches `pipeline.run` (bounded by the
/// span count so a malformed cyclic snapshot cannot loop forever).
fn descends_from_run(snapshot: &MetricsSnapshot, name: &str) -> bool {
    let mut current = name;
    for _ in 0..=snapshot.spans.len() {
        match snapshot.span(current).and_then(|s| s.parent.as_deref()) {
            Some("pipeline.run") => return true,
            Some(parent) => current = parent,
            None => return false,
        }
    }
    false
}

/// Runs every invariant, returning a message per violation.
fn check(
    snapshot: &MetricsSnapshot,
    expect_fault_free: bool,
    require_ingest: bool,
    require_scenarios: bool,
    require_backend: bool,
    require_colstore: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);

    // Blocking produced blocks and measured their sizes.
    match snapshot.counter("blocking.blocks_built") {
        None => fail("blocking.blocks_built counter is missing".to_string()),
        Some(0) => fail("blocking.blocks_built is 0 — blocking did nothing".to_string()),
        Some(_) => {}
    }
    match snapshot.histograms.get("blocking.block_size") {
        None => fail("blocking.block_size histogram is missing".to_string()),
        Some(h) if h.count == 0 => fail("blocking.block_size histogram is empty".to_string()),
        Some(_) => {}
    }

    // The compact data layout ran: a non-trivial collection interns at
    // least one token symbol (see docs/data_layout.md).
    match snapshot.counter("blocking.interner_symbols") {
        None => fail("blocking.interner_symbols counter is missing".to_string()),
        Some(0) => fail("blocking.interner_symbols is 0 — no vocabulary interned".to_string()),
        Some(_) => {}
    }

    // Every edge the node scan weighs folds at least one block-pair
    // occurrence, pruning never grows the comparison set, and the
    // before/after/pruned ledger is internally consistent.
    match (
        snapshot.counter("meta_blocking.contributions"),
        snapshot.counter("meta_blocking.comparisons_before"),
    ) {
        (None, _) => fail("meta_blocking.contributions counter is missing".to_string()),
        (Some(c), Some(b)) if c < b => fail(format!(
            "meta_blocking.contributions ({c}) is below comparisons_before ({b})"
        )),
        _ => {}
    }
    match (
        snapshot.counter("meta_blocking.member_visits"),
        snapshot.counter("meta_blocking.contributions"),
    ) {
        (None, _) => fail("meta_blocking.member_visits counter is missing".to_string()),
        (Some(v), Some(c)) if v < c.saturating_mul(2) => fail(format!(
            "meta_blocking.member_visits ({v}) is below 2 × contributions ({c})"
        )),
        _ => {}
    }
    let before = snapshot.counter("meta_blocking.comparisons_before");
    let after = snapshot.counter("meta_blocking.comparisons_after");
    let pruned = snapshot.counter("meta_blocking.comparisons_pruned");
    match (before, after, pruned) {
        (Some(b), Some(a), Some(p)) => {
            if a > b {
                fail(format!(
                    "meta_blocking.comparisons_after ({a}) exceeds comparisons_before ({b})"
                ));
            }
            if b.saturating_sub(a) != p {
                fail(format!(
                    "meta_blocking ledger mismatch: before ({b}) - after ({a}) != pruned ({p})"
                ));
            }
        }
        _ => fail(
            "meta_blocking.comparisons_{before,after,pruned} counters are incomplete".to_string(),
        ),
    }
    match snapshot.gauge("meta_blocking.pruning_ratio") {
        None => fail("meta_blocking.pruning_ratio gauge is missing".to_string()),
        Some(r) if r <= 0.0 || r.is_nan() => {
            fail(format!("meta_blocking.pruning_ratio ({r}) is not > 0"));
        }
        Some(r) if r > 1.0 => fail(format!("meta_blocking.pruning_ratio ({r}) exceeds 1")),
        Some(_) => {}
    }

    // Every pipeline stage recorded a span whose parent chain reaches
    // pipeline.run (cleaning nests under blocking, the rest sit directly
    // under the run span).
    if snapshot.span("pipeline.run").is_none() {
        fail("pipeline.run span is missing".to_string());
    }
    for name in STAGE_SPANS {
        match snapshot.span(name) {
            None => fail(format!("{name} span is missing")),
            Some(s) if s.count == 0 => fail(format!("{name} span never closed")),
            Some(_) => {
                if !descends_from_run(snapshot, name) {
                    fail(format!(
                        "{name} span is not nested (directly or transitively) under pipeline.run"
                    ));
                }
            }
        }
    }

    // A matching stage that compared anything did so from the run's token
    // profiles: their build's span sits directly under pipeline.run and both
    // of its size counters are positive. No walk tokenizes twice.
    if snapshot
        .counter("pipeline.matched_comparisons")
        .unwrap_or(0)
        > 0
    {
        match snapshot.span("pipeline.profiles") {
            None => fail("pipeline.profiles span is missing".to_string()),
            Some(s) if s.parent.as_deref() != Some("pipeline.run") => fail(format!(
                "pipeline.profiles span is a child of {:?}, not of pipeline.run",
                s.parent
            )),
            Some(_) => {}
        }
        for name in ["profiles.symbols", "profiles.vocabulary"] {
            if snapshot.counter(name).unwrap_or(0) == 0 {
                fail(format!(
                    "{name} is 0 or missing although comparisons were matched"
                ));
            }
        }
    }
    let count = |name: &str| snapshot.span(name).map_or(0, |s| s.count);
    if count("pipeline.profiles") > count("pipeline.run") {
        fail(format!(
            "pipeline.profiles closed {} times in {} run(s) — a walk tokenized twice",
            count("pipeline.profiles"),
            count("pipeline.run")
        ));
    }

    // A fault-free run must report an explicit zero retry count.
    if expect_fault_free {
        match snapshot.counter("recovery.stage_retries") {
            None => fail("recovery.stage_retries counter is missing".to_string()),
            Some(0) => {}
            Some(n) => fail(format!(
                "recovery.stage_retries is {n} on a run expected to be fault-free"
            )),
        }
    }

    // A run through the streaming ingest path must leave a consistent
    // ledger behind. Counters register on first increment, so an absent
    // accepted/quarantined counter legitimately reads as 0 — but a missing
    // records_seen means ingest never ran at all.
    if require_ingest {
        let seen = snapshot.counter("ingest.records_seen");
        let accepted = snapshot.counter("ingest.records_accepted").unwrap_or(0);
        let quarantined = snapshot.counter("ingest.records_quarantined").unwrap_or(0);
        match seen {
            None => fail("ingest.records_seen counter is missing — ingest never ran".to_string()),
            Some(0) => fail("ingest.records_seen is 0 — ingest saw no records".to_string()),
            Some(s) => {
                if s != accepted + quarantined {
                    fail(format!(
                        "ingest ledger mismatch: seen ({s}) != accepted ({accepted}) + \
                         quarantined ({quarantined})"
                    ));
                }
            }
        }
        match snapshot.gauge("ingest.queue_bytes") {
            None => fail("ingest.queue_bytes gauge is missing — no arrival queue ran".to_string()),
            Some(b) if b != 0.0 => fail(format!(
                "ingest.queue_bytes is {b} — the arrival queue was not drained"
            )),
            Some(_) => {}
        }
    }

    // A snapshot from `er scenario run` must show the matrix actually
    // executed and every locked cell stayed inside its envelope. The runner
    // pre-registers `scenario.cells_failed` at 0, so an absent counter reads
    // as the (healthy) zero while a missing cells_run means nothing ran.
    if require_scenarios {
        match snapshot.counter("scenario.cells_run") {
            None => {
                fail("scenario.cells_run counter is missing — no scenario cells ran".to_string())
            }
            Some(0) => {
                fail("scenario.cells_run is 0 — the scenario matrix ran no cells".to_string())
            }
            Some(_) => {}
        }
        match snapshot.counter("scenario.cells_failed").unwrap_or(0) {
            0 => {}
            n => fail(format!(
                "scenario.cells_failed is {n} — locked quality envelope(s) breached"
            )),
        }
    }

    // A run on the subprocess worker backend must leave a consistent pool
    // ledger: every spawned worker was reaped (cleanly or as a crash),
    // restarts only replaced crashed workers, and the pool drained to zero.
    // `worker.exited`/`worker.crashed`/`worker.restarted` register on first
    // increment, so an absent counter reads as 0.
    if require_backend {
        let exited = snapshot.counter("worker.exited").unwrap_or(0);
        let crashed = snapshot.counter("worker.crashed").unwrap_or(0);
        let restarted = snapshot.counter("worker.restarted").unwrap_or(0);
        match snapshot.counter("worker.spawned") {
            None => fail(
                "worker.spawned counter is missing — the subprocess backend never ran".to_string(),
            ),
            Some(0) => fail("worker.spawned is 0 — no worker process started".to_string()),
            Some(s) => {
                if s != exited + crashed {
                    fail(format!(
                        "worker ledger mismatch: spawned ({s}) != exited ({exited}) + \
                         crashed ({crashed})"
                    ));
                }
            }
        }
        let spawned = snapshot.counter("worker.spawned").unwrap_or(0);
        if expect_fault_free && (crashed > 0 || exited != spawned) {
            fail(format!(
                "worker.crashed is {crashed} and worker.exited ({exited}) != worker.spawned \
                 ({spawned}) on a run expected to be fault-free — a worker crashed or was \
                 killed at the shutdown grace deadline"
            ));
        }
        if restarted > crashed {
            fail(format!(
                "worker.restarted ({restarted}) exceeds worker.crashed ({crashed}) — restarts \
                 must only replace crashed workers"
            ));
        }
        match snapshot.gauge("worker.running") {
            None => fail("worker.running gauge is missing — no worker pool ran".to_string()),
            Some(r) if r != 0.0 => fail(format!(
                "worker.running is {r} — the worker pool was not drained"
            )),
            Some(_) => {}
        }
        let tasks = snapshot.counter("mapreduce.map_tasks").unwrap_or(0)
            + snapshot.counter("mapreduce.reduce_tasks").unwrap_or(0);
        let timed = snapshot
            .histograms
            .get("mapreduce.task_latency_micros")
            .map_or(0, |h| h.count);
        if tasks == 0 || timed != tasks {
            fail(format!(
                "mapreduce.task_latency_micros holds {timed} sample(s) for {tasks} distributed \
                 task(s) — every task's first success must be timed exactly once"
            ));
        }
    }

    // A run through the out-of-core segment store must show sorted runs
    // actually reaching disk, every written run being consumed by a merge,
    // and every segment read's charge released back to the memory budget
    // (the store holds no pages between reads). An absent
    // runs_merged with segments written means the merge never ran.
    if require_colstore {
        let written = snapshot.counter("colstore.segments_written");
        let merged = snapshot.counter("colstore.runs_merged").unwrap_or(0);
        match written {
            None => fail(
                "colstore.segments_written counter is missing — the segment store never ran"
                    .to_string(),
            ),
            Some(0) => {
                fail("colstore.segments_written is 0 — no sorted run reached disk".to_string())
            }
            Some(w) => {
                if merged < w {
                    fail(format!(
                        "colstore.runs_merged ({merged}) is below segments_written ({w}) — \
                         written run(s) were never merged"
                    ));
                }
            }
        }
        match snapshot.gauge("colstore.resident_bytes") {
            None => fail(
                "colstore.resident_bytes gauge is missing — no segment was ever read".to_string(),
            ),
            Some(b) if b != 0.0 => fail(format!(
                "colstore.resident_bytes is {b} — bytes charged by segment reads were not \
                 released back to the memory budget"
            )),
            Some(_) => {}
        }
    }
    failures
}

/// The `--max-cluster-share` gate: a violation when the last run's largest
/// cluster holds more than `max` of the entities it clustered, or when
/// either gauge is missing.
fn cluster_share(snapshot: &MetricsSnapshot, max: f64) -> Option<String> {
    let largest = snapshot.gauge("clustering.largest_cluster");
    let entities = snapshot.gauge("clustering.entities");
    match (largest, entities) {
        (Some(l), Some(n)) if n > 0.0 => (l / n > max).then(|| {
            format!(
                "clustering.largest_cluster ({l}) holds {:.3} of clustering.entities ({n}), \
                 above --max-cluster-share {max}",
                l / n
            )
        }),
        _ => Some(
            "clustering.largest_cluster / clustering.entities gauges are missing or empty"
                .to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::obs::{HistogramSnapshot, SpanSnapshot};

    /// A minimal snapshot that satisfies every invariant.
    fn healthy() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("blocking.blocks_built".into(), 10);
        s.counters.insert("blocking.interner_symbols".into(), 25);
        s.counters.insert("meta_blocking.contributions".into(), 250);
        s.counters.insert("meta_blocking.member_visits".into(), 600);
        s.counters
            .insert("meta_blocking.comparisons_before".into(), 100);
        s.counters
            .insert("meta_blocking.comparisons_after".into(), 40);
        s.counters
            .insert("meta_blocking.comparisons_pruned".into(), 60);
        s.counters.insert("recovery.stage_retries".into(), 0);
        s.counters.insert("pipeline.matched_comparisons".into(), 40);
        s.counters.insert("profiles.symbols".into(), 90);
        s.counters.insert("profiles.vocabulary".into(), 25);
        s.gauges.insert("meta_blocking.pruning_ratio".into(), 0.6);
        s.histograms.insert(
            "blocking.block_size".into(),
            HistogramSnapshot {
                count: 10,
                sum: 30,
                buckets: Vec::new(),
            },
        );
        s.spans.insert(
            "pipeline.run".into(),
            SpanSnapshot {
                count: 1,
                total_micros: 100,
                parent: None,
            },
        );
        for name in STAGE_SPANS {
            s.spans.insert(
                name.into(),
                SpanSnapshot {
                    count: 1,
                    total_micros: 10,
                    parent: Some("pipeline.run".into()),
                },
            );
        }
        s.spans.insert(
            "pipeline.profiles".into(),
            SpanSnapshot {
                count: 1,
                total_micros: 4,
                parent: Some("pipeline.run".into()),
            },
        );
        s
    }

    #[test]
    fn healthy_snapshot_passes() {
        assert!(check(&healthy(), true, false, false, false, false).is_empty());
    }

    #[test]
    fn empty_snapshot_reports_every_missing_piece() {
        let failures = check(
            &MetricsSnapshot::default(),
            true,
            false,
            false,
            false,
            false,
        );
        assert!(failures.len() >= 8, "{failures:?}");
    }

    #[test]
    fn after_exceeding_before_is_caught() {
        let mut s = healthy();
        s.counters
            .insert("meta_blocking.comparisons_after".into(), 1000);
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("exceeds")),
            "{failures:?}"
        );
    }

    #[test]
    fn zero_pruning_ratio_is_caught() {
        let mut s = healthy();
        s.gauges.insert("meta_blocking.pruning_ratio".into(), 0.0);
        s.counters
            .insert("meta_blocking.comparisons_after".into(), 100);
        s.counters
            .insert("meta_blocking.comparisons_pruned".into(), 0);
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("pruning_ratio")),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_stage_span_is_caught() {
        let mut s = healthy();
        s.spans.remove("pipeline.cleaning");
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("pipeline.cleaning")),
            "{failures:?}"
        );
    }

    #[test]
    fn retries_only_checked_when_fault_free_expected() {
        let mut s = healthy();
        s.counters.insert("recovery.stage_retries".into(), 2);
        assert!(check(&s, false, false, false, false, false).is_empty());
        let failures = check(&s, true, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("stage_retries")),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_layout_counter_is_caught() {
        let mut s = healthy();
        s.counters.remove("blocking.interner_symbols");
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("interner_symbols")),
            "{failures:?}"
        );
    }

    #[test]
    fn contributions_missing_or_below_the_edge_count_are_caught() {
        let mut s = healthy();
        s.counters.insert("meta_blocking.contributions".into(), 99);
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("is below")),
            "{failures:?}"
        );
        s.counters.remove("meta_blocking.contributions");
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("contributions counter is missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn member_visits_missing_or_below_twice_the_contributions_are_caught() {
        let mut s = healthy();
        s.counters.insert("meta_blocking.member_visits".into(), 500);
        assert!(check(&s, false, false, false, false, false).is_empty());
        s.counters.insert("meta_blocking.member_visits".into(), 499);
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("below 2 × contributions")),
            "{failures:?}"
        );
        s.counters.remove("meta_blocking.member_visits");
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("member_visits counter is missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn misparented_span_is_caught() {
        let mut s = healthy();
        s.spans.get_mut("pipeline.matching").unwrap().parent = None;
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("not nested")),
            "{failures:?}"
        );
    }

    #[test]
    fn matching_without_its_profile_metrics_is_caught() {
        let mut s = healthy();
        s.spans.get_mut("pipeline.profiles").unwrap().parent = Some("pipeline.matching".into());
        s.counters.insert("profiles.vocabulary".into(), 0);
        s.counters.remove("profiles.symbols");
        let failures = check(&s, false, false, false, false, false);
        for what in [
            "not of pipeline.run",
            "profiles.vocabulary",
            "profiles.symbols",
        ] {
            assert!(failures.iter().any(|f| f.contains(what)), "{failures:?}");
        }
        s.spans.remove("pipeline.profiles");
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("span is missing")),
            "{failures:?}"
        );
        // A run that matched nothing (every comparison skipped at the
        // deadline, or a schedule-only walk) owes none of the three.
        s.counters.insert("pipeline.matched_comparisons".into(), 0);
        assert!(check(&s, false, false, false, false, false).is_empty());
    }

    #[test]
    fn a_second_tokenization_per_run_is_caught() {
        let mut s = healthy();
        s.spans.get_mut("pipeline.profiles").unwrap().count = 2;
        let failures = check(&s, false, false, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("tokenized twice")),
            "{failures:?}"
        );
        s.spans.get_mut("pipeline.run").unwrap().count = 2;
        assert!(check(&s, false, false, false, false, false).is_empty());
    }

    #[test]
    fn transitive_nesting_is_accepted() {
        let mut s = healthy();
        s.spans.get_mut("pipeline.cleaning").unwrap().parent = Some("pipeline.blocking".into());
        assert!(check(&s, true, false, false, false, false).is_empty());
    }

    /// `healthy()` plus the counters a streaming-ingest run records.
    fn healthy_with_ingest() -> MetricsSnapshot {
        let mut s = healthy();
        s.counters.insert("ingest.records_seen".into(), 150);
        s.counters.insert("ingest.records_accepted".into(), 140);
        s.counters.insert("ingest.records_quarantined".into(), 10);
        s.gauges.insert("ingest.queue_bytes".into(), 0.0);
        s
    }

    #[test]
    fn ingest_only_checked_when_required() {
        // Without the flag, a snapshot with no ingest metrics passes; with
        // it, every missing piece is called out.
        assert!(check(&healthy(), true, false, false, false, false).is_empty());
        let failures = check(&healthy(), true, true, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("ingest.records_seen")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("ingest.queue_bytes")),
            "{failures:?}"
        );
        assert!(check(&healthy_with_ingest(), true, true, false, false, false).is_empty());
    }

    #[test]
    fn ingest_ledger_mismatch_is_caught() {
        let mut s = healthy_with_ingest();
        s.counters.insert("ingest.records_accepted".into(), 139);
        let failures = check(&s, false, true, false, false, false);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("ingest ledger mismatch")),
            "{failures:?}"
        );
    }

    #[test]
    fn absent_quarantine_counter_reads_as_zero() {
        // A clean run never increments the quarantine counter, so it is
        // absent from the snapshot — the ledger must still balance.
        let mut s = healthy_with_ingest();
        s.counters.remove("ingest.records_quarantined");
        s.counters.insert("ingest.records_accepted".into(), 150);
        assert!(check(&s, true, true, false, false, false).is_empty());
    }

    #[test]
    fn undrained_queue_is_caught() {
        let mut s = healthy_with_ingest();
        s.gauges.insert("ingest.queue_bytes".into(), 512.0);
        let failures = check(&s, false, true, false, false, false);
        assert!(
            failures.iter().any(|f| f.contains("not drained")),
            "{failures:?}"
        );
    }

    #[test]
    fn scenarios_only_checked_when_required() {
        // Without the flag a snapshot with no scenario counters passes; with
        // it, a missing cells_run is called out. An absent cells_failed reads
        // as 0, so cells_run alone satisfies the requirement.
        let mut s = healthy();
        assert!(check(&s, true, false, false, false, false).is_empty());
        let failures = check(&s, true, false, true, false, false);
        assert!(
            failures.iter().any(|f| f.contains("scenario.cells_run")),
            "{failures:?}"
        );
        s.counters.insert("scenario.cells_run".into(), 45);
        assert!(check(&s, true, false, true, false, false).is_empty());
    }

    #[test]
    fn zero_scenario_cells_run_is_caught() {
        let mut s = healthy();
        s.counters.insert("scenario.cells_run".into(), 0);
        let failures = check(&s, false, false, true, false, false);
        assert!(
            failures.iter().any(|f| f.contains("cells_run")),
            "{failures:?}"
        );
    }

    #[test]
    fn failed_scenario_cells_are_caught() {
        let mut s = healthy();
        s.counters.insert("scenario.cells_run".into(), 45);
        s.counters.insert("scenario.cells_failed".into(), 2);
        let failures = check(&s, false, false, true, false, false);
        assert!(
            failures.iter().any(|f| f.contains("cells_failed")),
            "{failures:?}"
        );
    }

    /// `healthy()` plus the counters a subprocess-backend run records: four
    /// workers spawned, three exited cleanly, one crashed and was restarted
    /// (the restart is one of the four spawns), pool drained, six distributed
    /// tasks each timed once.
    fn healthy_with_backend() -> MetricsSnapshot {
        let mut s = healthy();
        s.counters.insert("worker.spawned".into(), 4);
        s.counters.insert("worker.exited".into(), 3);
        s.counters.insert("worker.crashed".into(), 1);
        s.counters.insert("worker.restarted".into(), 1);
        s.gauges.insert("worker.running".into(), 0.0);
        s.counters.insert("mapreduce.map_tasks".into(), 4);
        s.counters.insert("mapreduce.reduce_tasks".into(), 2);
        s.histograms.insert(
            "mapreduce.task_latency_micros".into(),
            HistogramSnapshot {
                count: 6,
                sum: 600,
                buckets: Vec::new(),
            },
        );
        s
    }

    #[test]
    fn untimed_or_double_timed_tasks_are_caught() {
        for count in [0, 5, 7] {
            let mut s = healthy_with_backend();
            if count == 0 {
                s.histograms.remove("mapreduce.task_latency_micros");
            } else if let Some(h) = s.histograms.get_mut("mapreduce.task_latency_micros") {
                h.count = count;
            }
            let failures = check(&s, false, false, false, true, false);
            assert!(
                failures.iter().any(|f| f.contains("task_latency_micros")),
                "count={count}: {failures:?}"
            );
        }
    }

    #[test]
    fn backend_only_checked_when_required() {
        // Without the flag a snapshot with no worker metrics passes; with it,
        // every missing piece is called out.
        assert!(check(&healthy(), true, false, false, false, false).is_empty());
        let failures = check(&healthy(), true, false, false, true, false);
        assert!(
            failures.iter().any(|f| f.contains("worker.spawned")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("worker.running")),
            "{failures:?}"
        );
        assert!(check(&healthy_with_backend(), false, false, false, true, false).is_empty());
    }

    #[test]
    fn a_crashed_or_killed_worker_fails_a_fault_free_backend_run() {
        // The fixture's one crash is fine unless the run was to be fault-free.
        let s = healthy_with_backend();
        let failures = check(&s, true, false, false, true, false);
        assert!(
            failures.iter().any(|f| f.contains("worker.crashed is 1")),
            "{failures:?}"
        );
        // A pool killed at the shutdown grace deadline: both workers crashed.
        let mut s = healthy_with_backend();
        s.counters.insert("worker.spawned".into(), 2);
        s.counters.insert("worker.exited".into(), 0);
        s.counters.insert("worker.crashed".into(), 2);
        s.counters.remove("worker.restarted");
        assert!(check(&s, false, false, false, true, false).is_empty());
        let failures = check(&s, true, false, false, true, false);
        assert!(
            failures.iter().any(|f| f.contains("fault-free")),
            "{failures:?}"
        );
    }

    #[test]
    fn worker_ledger_mismatch_is_caught() {
        let mut s = healthy_with_backend();
        s.counters.insert("worker.exited".into(), 2);
        let failures = check(&s, false, false, false, true, false);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("worker ledger mismatch")),
            "{failures:?}"
        );
    }

    #[test]
    fn crash_free_backend_run_reads_absent_counters_as_zero() {
        // A crash-free run never increments exited-by-crash counters; only
        // worker.exited carries the whole ledger.
        let mut s = healthy_with_backend();
        s.counters.remove("worker.crashed");
        s.counters.remove("worker.restarted");
        s.counters.insert("worker.exited".into(), 4);
        assert!(check(&s, true, false, false, true, false).is_empty());
    }

    #[test]
    fn undrained_worker_pool_is_caught() {
        let mut s = healthy_with_backend();
        s.gauges.insert("worker.running".into(), 2.0);
        let failures = check(&s, false, false, false, true, false);
        assert!(
            failures.iter().any(|f| f.contains("not drained")),
            "{failures:?}"
        );
    }

    #[test]
    fn restarts_exceeding_crashes_are_caught() {
        let mut s = healthy_with_backend();
        s.counters.insert("worker.restarted".into(), 3);
        let failures = check(&s, false, false, false, true, false);
        assert!(
            failures.iter().any(|f| f.contains("worker.restarted")),
            "{failures:?}"
        );
    }

    #[test]
    fn zero_spawned_workers_is_caught() {
        let mut s = healthy_with_backend();
        s.counters.insert("worker.spawned".into(), 0);
        s.counters.remove("worker.exited");
        s.counters.remove("worker.crashed");
        s.counters.remove("worker.restarted");
        let failures = check(&s, false, false, false, true, false);
        assert!(
            failures.iter().any(|f| f.contains("worker.spawned is 0")),
            "{failures:?}"
        );
    }

    /// `healthy()` plus the counters an out-of-core run records: six sorted
    /// runs written across the blocking and graph stages, all six consumed
    /// by k-way merges, every read's charge released back to the budget.
    fn healthy_with_colstore() -> MetricsSnapshot {
        let mut s = healthy();
        s.counters.insert("colstore.segments_written".into(), 6);
        s.counters.insert("colstore.runs_merged".into(), 6);
        s.counters.insert("colstore.segment_bytes".into(), 8192);
        s.gauges.insert("colstore.resident_bytes".into(), 0.0);
        s
    }

    #[test]
    fn colstore_only_checked_when_required() {
        // Without the flag a snapshot with no colstore metrics passes; with
        // it, every missing piece is called out.
        assert!(check(&healthy(), true, false, false, false, false).is_empty());
        let failures = check(&healthy(), true, false, false, false, true);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("colstore.segments_written")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.contains("colstore.resident_bytes")),
            "{failures:?}"
        );
        assert!(check(&healthy_with_colstore(), true, false, false, false, true).is_empty());
    }

    #[test]
    fn zero_segments_written_is_caught() {
        let mut s = healthy_with_colstore();
        s.counters.insert("colstore.segments_written".into(), 0);
        let failures = check(&s, false, false, false, false, true);
        assert!(
            failures.iter().any(|f| f.contains("segments_written is 0")),
            "{failures:?}"
        );
    }

    #[test]
    fn unmerged_written_runs_are_caught() {
        // Six runs hit disk but only four were consumed by a merge — two
        // sorted runs never contributed to any output.
        let mut s = healthy_with_colstore();
        s.counters.insert("colstore.runs_merged".into(), 4);
        let failures = check(&s, false, false, false, false, true);
        assert!(
            failures.iter().any(|f| f.contains("never merged")),
            "{failures:?}"
        );
    }

    #[test]
    fn absent_runs_merged_counter_is_caught() {
        // Counters register on first increment: an absent runs_merged reads
        // as 0, which can never cover the written runs.
        let mut s = healthy_with_colstore();
        s.counters.remove("colstore.runs_merged");
        let failures = check(&s, false, false, false, false, true);
        assert!(
            failures.iter().any(|f| f.contains("runs_merged")),
            "{failures:?}"
        );
    }

    #[test]
    fn undrained_page_cache_is_caught() {
        let mut s = healthy_with_colstore();
        s.gauges.insert("colstore.resident_bytes".into(), 512.0);
        let failures = check(&s, false, false, false, false, true);
        assert!(
            failures.iter().any(|f| f.contains("not released")),
            "{failures:?}"
        );
    }

    #[test]
    fn rescue_merging_more_runs_than_segments_passes() {
        // A spill rescue re-reads each run's geometry before the merge, so
        // runs_merged strictly above segments_written is legitimate.
        let mut s = healthy_with_colstore();
        s.counters.insert("colstore.runs_merged".into(), 9);
        assert!(check(&s, true, false, false, false, true).is_empty());
    }

    #[test]
    fn cluster_share_gate_passes_and_fails_at_its_bound() {
        let mut s = healthy();
        assert!(cluster_share(&s, 0.5).is_some(), "gauges missing");
        s.gauges.insert("clustering.largest_cluster".into(), 30.0);
        s.gauges.insert("clustering.entities".into(), 100.0);
        assert_eq!(cluster_share(&s, 0.3), None, "a share at the bound passes");
        assert_eq!(cluster_share(&s, 1.0), None);
        let failure = cluster_share(&s, 0.29).unwrap();
        assert!(failure.contains("0.300"), "{failure}");
        s.gauges.insert("clustering.entities".into(), 0.0);
        assert!(cluster_share(&s, 1.0).is_some(), "no entities clustered");
    }
}
