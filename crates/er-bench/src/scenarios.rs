//! The scenario matrix: real-world benchmark families × the blocking zoo,
//! with per-cell quality locks.
//!
//! Every other number in this repo is measured on `er-datagen` synthetics;
//! the paper's argument is about *Web* heterogeneity, where blocking-quality
//! rankings flip between clean census-style tables and noisy LOD-style
//! descriptions. This module pins that behaviour: a [`REGISTRY`] of small
//! committed fixture datasets (loaded through `er_datagen::loaders`, so
//! malformed fixture rows land in the typed quarantine), a matrix runner
//! that executes blocking method × weighting scheme for every scenario
//! through `er-pipeline`, and a table of locked PC/PQ/RR [`Envelope`]s any
//! cell must stay inside — CI fails on the first drift.
//!
//! Scorecards ([`scorecard_json`]) are deterministic byte-for-byte at every
//! thread count: the pipeline kernels are bit-identical under parallelism
//! and floats are rendered at fixed precision. Re-lock after an intentional
//! quality change with `ER_PRINT_SCENARIOS=1 er scenario run` (see
//! `docs/scenarios.md`).

use crate::dirty_preset;
use er_core::collection::ResolutionMode;
use er_core::entity::KbId;
use er_core::metrics::BlockingQuality;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_datagen::loaders::{DatasetBuilder, DelimitedSchema, LoadedScenario};
use er_datagen::DirtyDataset;
use er_metablocking::{PruningScheme, WeightingScheme};
use er_pipeline::{
    BlockingStage, CleaningStage, MatchingStage, MetaBlockingStage, Pipeline, RecoveryOptions,
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Scenario family — the coarse workload axis the CI matrix fans out over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioFamily {
    /// Delimited (CSV/TSV) census/restaurant/cora-style tables.
    Csv,
    /// N-Triples LOD-style descriptions with heterogeneous vocabularies.
    Rdf,
    /// Seeded `er-datagen` synthetic baseline.
    Synthetic,
}

impl ScenarioFamily {
    /// Stable lowercase code (CLI `--family` values).
    pub fn code(&self) -> &'static str {
        match self {
            ScenarioFamily::Csv => "csv",
            ScenarioFamily::Rdf => "rdf",
            ScenarioFamily::Synthetic => "synthetic",
        }
    }

    /// Parses a `--family` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "csv" => Some(ScenarioFamily::Csv),
            "rdf" => Some(ScenarioFamily::Rdf),
            "synthetic" => Some(ScenarioFamily::Synthetic),
            _ => None,
        }
    }
}

/// One registered scenario: a named fixture workload with gold matches.
pub struct Scenario {
    /// Unique scenario name (CLI `--scenario` values).
    pub name: &'static str,
    /// Workload family.
    pub family: ScenarioFamily,
    /// One-line description for `er scenario list`.
    pub description: &'static str,
    loader: fn() -> LoadedScenario,
}

impl Scenario {
    /// Loads the scenario's collection, gold truth and quarantine ledger.
    /// Loading is deterministic: the same fixture bytes produce the same
    /// collection every time.
    pub fn load(&self) -> LoadedScenario {
        (self.loader)()
    }
}

fn load_census() -> LoadedScenario {
    let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
    b.add_delimited(
        include_str!("../../../tests/fixtures/scenarios/census/records.csv"),
        &DelimitedSchema::csv("id"),
        KbId(0),
    )
    .expect("census fixture");
    b.finish(include_str!(
        "../../../tests/fixtures/scenarios/census/gold.csv"
    ))
    .expect("census gold")
}

fn load_restaurant() -> LoadedScenario {
    let mut b = DatasetBuilder::new(ResolutionMode::CleanClean);
    let schema = DelimitedSchema::tsv("id");
    b.add_delimited(
        include_str!("../../../tests/fixtures/scenarios/restaurant/fodors.tsv"),
        &schema,
        KbId(0),
    )
    .expect("fodors fixture");
    b.add_delimited(
        include_str!("../../../tests/fixtures/scenarios/restaurant/zagat.tsv"),
        &schema,
        KbId(1),
    )
    .expect("zagat fixture");
    b.finish(include_str!(
        "../../../tests/fixtures/scenarios/restaurant/gold.csv"
    ))
    .expect("restaurant gold")
}

fn load_cora() -> LoadedScenario {
    let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
    b.add_delimited(
        include_str!("../../../tests/fixtures/scenarios/cora/records.csv"),
        &DelimitedSchema::csv("id"),
        KbId(0),
    )
    .expect("cora fixture");
    b.finish(include_str!(
        "../../../tests/fixtures/scenarios/cora/gold.csv"
    ))
    .expect("cora gold")
}

fn load_lod_people() -> LoadedScenario {
    let mut b = DatasetBuilder::new(ResolutionMode::Dirty);
    b.add_ntriples(
        include_str!("../../../tests/fixtures/scenarios/lod-people/people.nt"),
        KbId(0),
    );
    b.finish(include_str!(
        "../../../tests/fixtures/scenarios/lod-people/gold.csv"
    ))
    .expect("lod-people gold")
}

fn load_synthetic_dirty() -> LoadedScenario {
    let ds = DirtyDataset::generate(&dirty_preset(400));
    LoadedScenario {
        collection: ds.collection,
        truth: ds.truth,
        quarantine: Default::default(),
        gold_skipped: 0,
    }
}

/// Every registered scenario. Covers ≥ 2 CSV-style, 1 RDF-style and 1
/// synthetic family — the floor `er scenario run` guarantees.
pub const REGISTRY: &[Scenario] = &[
    Scenario {
        name: "census",
        family: ScenarioFamily::Csv,
        description: "dirty person records with typo duplicates (plus 2 malformed rows)",
        loader: load_census,
    },
    Scenario {
        name: "restaurant",
        family: ScenarioFamily::Csv,
        description: "clean-clean TSV linkage (fodors vs zagat style, quoted fields)",
        loader: load_restaurant,
    },
    Scenario {
        name: "cora",
        family: ScenarioFamily::Csv,
        description: "dirty citation records with formatting variants",
        loader: load_cora,
    },
    Scenario {
        name: "lod-people",
        family: ScenarioFamily::Rdf,
        description: "N-Triples person descriptions across two predicate vocabularies",
        loader: load_lod_people,
    },
    Scenario {
        name: "synthetic-dirty",
        family: ScenarioFamily::Synthetic,
        description: "seeded er-datagen dirty baseline (400 entities)",
        loader: load_synthetic_dirty,
    },
];

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

/// Blocking methods the matrix exercises, by stable code.
pub const BLOCKING_METHODS: &[&str] = &["token", "attrcluster", "minhash"];

/// Meta-blocking weighting schemes the matrix exercises, by stable code.
/// Pruning is fixed at WNP (the recall-preserving default of E3).
pub const WEIGHTING_SCHEMES: &[&str] = &["arcs", "ecbs", "cbs"];

fn blocking_stage(code: &str) -> BlockingStage {
    match code {
        "token" => BlockingStage::Token,
        "attrcluster" => BlockingStage::AttributeClustering,
        "minhash" => BlockingStage::MinHash(6, 2),
        other => panic!("unknown blocking method {other:?}"),
    }
}

fn weighting_scheme(code: &str) -> WeightingScheme {
    match code {
        "arcs" => WeightingScheme::Arcs,
        "ecbs" => WeightingScheme::Ecbs,
        "cbs" => WeightingScheme::Cbs,
        other => panic!("unknown weighting scheme {other:?}"),
    }
}

/// Jaccard threshold of the matrix's fixed matching stage.
const MATCH_THRESHOLD: f64 = 0.3;

/// One executed matrix cell: candidate-level blocking quality plus
/// match-level quality, and the lock verdict.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: &'static str,
    /// Blocking method code.
    pub blocking: &'static str,
    /// Weighting scheme code.
    pub weighting: &'static str,
    /// Distinct scheduled comparisons (exact-locked).
    pub comparisons: u64,
    /// Pair completeness of the scheduled candidates.
    pub pc: f64,
    /// Pairs quality of the scheduled candidates.
    pub pq: f64,
    /// Reduction ratio of the scheduled candidates.
    pub rr: f64,
    /// Match precision after the fixed Jaccard matcher + closure.
    pub precision: f64,
    /// Match recall.
    pub recall: f64,
    /// Match F1.
    pub f1: f64,
    /// Accepted match pairs.
    pub matches: u64,
    /// Whether a lock row exists for this cell.
    pub locked: bool,
    /// `Some(reason)` when the cell left its locked envelope.
    pub breach: Option<String>,
}

/// Runs the full matrix for the given scenarios at the given thread count.
/// Each cell increments `scenario.cells_run` (and `scenario.cells_failed` on
/// a lock breach) on `obs`; pipeline stages record their usual spans and
/// counters there too.
pub fn run_matrix(scenarios: &[&Scenario], threads: usize, obs: &Obs) -> Vec<CellResult> {
    // Pre-register the failure counter so a clean run snapshots an explicit 0.
    obs.counter("scenario.cells_failed").add(0);
    let par = Parallelism::threads(threads);
    let mut out = Vec::new();
    for scenario in scenarios {
        let loaded = scenario.load();
        for &blocking in BLOCKING_METHODS {
            for &weighting in WEIGHTING_SCHEMES {
                let pipeline = Pipeline::builder()
                    .blocking(blocking_stage(blocking))
                    .cleaning(CleaningStage::None)
                    .meta_blocking(MetaBlockingStage {
                        weighting: weighting_scheme(weighting),
                        pruning: PruningScheme::Wnp,
                    })
                    .matching(MatchingStage::jaccard(MATCH_THRESHOLD))
                    .parallelism(par)
                    .observability(obs.clone())
                    .build();
                // One walk per cell: the fault-tolerant entry point hands
                // back the schedule next to the resolution.
                let outcome = pipeline
                    .run_with_recovery(&loaded.collection, &RecoveryOptions::default())
                    .unwrap_or_else(|e| panic!("{}/{blocking}/{weighting}: {e}", scenario.name));
                let candidates = outcome
                    .scheduled
                    .expect("a run that resumes from no checkpoint carries its schedule");
                let bq = BlockingQuality::measure(
                    &candidates,
                    &loaded.truth,
                    loaded.collection.total_possible_comparisons(),
                );
                let resolution = outcome.resolution;
                let mq = resolution.evaluate(loaded.collection.len(), &loaded.truth);
                let mut cell = CellResult {
                    scenario: scenario.name,
                    blocking,
                    weighting,
                    comparisons: bq.comparisons,
                    pc: bq.pc(),
                    pq: bq.pq(),
                    rr: bq.rr(),
                    precision: mq.precision(),
                    recall: mq.recall(),
                    f1: mq.f1(),
                    matches: resolution.matches.len() as u64,
                    locked: false,
                    breach: None,
                };
                if let Some(envelope) = envelope_for(scenario.name, blocking, weighting) {
                    cell.locked = true;
                    cell.breach = envelope.check(&cell);
                }
                obs.counter("scenario.cells_run").incr();
                if cell.breach.is_some() {
                    obs.counter("scenario.cells_failed").incr();
                }
                out.push(cell);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Quality locks
// ---------------------------------------------------------------------------

/// A locked quality envelope for one (scenario, blocking, weighting) cell:
/// the comparison count is exact, the rates carry a small float tolerance.
#[derive(Clone, Copy, Debug)]
pub struct Envelope {
    /// Scenario name.
    pub scenario: &'static str,
    /// Blocking method code.
    pub blocking: &'static str,
    /// Weighting scheme code.
    pub weighting: &'static str,
    /// Exact distinct scheduled comparisons.
    pub comparisons: u64,
    /// Locked pair completeness.
    pub pc: f64,
    /// Locked pairs quality.
    pub pq: f64,
    /// Locked reduction ratio.
    pub rr: f64,
}

/// Absolute tolerance on PC and RR (coarse rates).
pub const RATE_TOLERANCE: f64 = 5e-4;
/// Absolute tolerance on PQ (can be very small, locked tighter).
pub const PQ_TOLERANCE: f64 = 5e-5;

impl Envelope {
    fn check(&self, cell: &CellResult) -> Option<String> {
        if cell.comparisons != self.comparisons {
            return Some(format!(
                "comparisons {} != locked {}",
                cell.comparisons, self.comparisons
            ));
        }
        let drift = |name: &str, got: f64, want: f64, tol: f64| {
            ((got - want).abs() > tol).then(|| format!("{name} {got:.6} outside {want:.6}±{tol}"))
        };
        drift("pc", cell.pc, self.pc, RATE_TOLERANCE)
            .or_else(|| drift("pq", cell.pq, self.pq, PQ_TOLERANCE))
            .or_else(|| drift("rr", cell.rr, self.rr, RATE_TOLERANCE))
    }
}

const fn lock(
    scenario: &'static str,
    blocking: &'static str,
    weighting: &'static str,
    comparisons: u64,
    pc: f64,
    pq: f64,
    rr: f64,
) -> Envelope {
    Envelope {
        scenario,
        blocking,
        weighting,
        comparisons,
        pc,
        pq,
        rr,
    }
}

/// The locked envelopes, one row per matrix cell. Measured once on the
/// committed fixtures; re-lock with `ER_PRINT_SCENARIOS=1 er scenario run`
/// after an intentional quality change (the knob prints this table ready to
/// paste).
pub const ENVELOPES: &[Envelope] = &[
    lock("census", "token", "arcs", 38, 1.000000, 0.315789, 0.918280),
    lock("census", "token", "ecbs", 33, 1.000000, 0.363636, 0.929032),
    lock("census", "token", "cbs", 74, 1.000000, 0.162162, 0.840860),
    lock(
        "census",
        "attrcluster",
        "arcs",
        38,
        1.000000,
        0.315789,
        0.918280,
    ),
    lock(
        "census",
        "attrcluster",
        "ecbs",
        33,
        1.000000,
        0.363636,
        0.929032,
    ),
    lock(
        "census",
        "attrcluster",
        "cbs",
        74,
        1.000000,
        0.162162,
        0.840860,
    ),
    lock(
        "census", "minhash", "arcs", 18, 0.750000, 0.500000, 0.961290,
    ),
    lock(
        "census", "minhash", "ecbs", 17, 0.750000, 0.529412, 0.963441,
    ),
    lock("census", "minhash", "cbs", 18, 0.750000, 0.500000, 0.961290),
    lock(
        "restaurant",
        "token",
        "arcs",
        17,
        1.000000,
        0.588235,
        0.881944,
    ),
    lock(
        "restaurant",
        "token",
        "ecbs",
        26,
        1.000000,
        0.384615,
        0.819444,
    ),
    lock(
        "restaurant",
        "token",
        "cbs",
        28,
        1.000000,
        0.357143,
        0.805556,
    ),
    lock(
        "restaurant",
        "attrcluster",
        "arcs",
        17,
        1.000000,
        0.588235,
        0.881944,
    ),
    lock(
        "restaurant",
        "attrcluster",
        "ecbs",
        26,
        1.000000,
        0.384615,
        0.819444,
    ),
    lock(
        "restaurant",
        "attrcluster",
        "cbs",
        28,
        1.000000,
        0.357143,
        0.805556,
    ),
    lock(
        "restaurant",
        "minhash",
        "arcs",
        14,
        1.000000,
        0.714286,
        0.902778,
    ),
    lock(
        "restaurant",
        "minhash",
        "ecbs",
        14,
        1.000000,
        0.714286,
        0.902778,
    ),
    lock(
        "restaurant",
        "minhash",
        "cbs",
        14,
        1.000000,
        0.714286,
        0.902778,
    ),
    lock("cora", "token", "arcs", 34, 1.000000, 0.205882, 0.716667),
    lock("cora", "token", "ecbs", 42, 1.000000, 0.166667, 0.650000),
    lock("cora", "token", "cbs", 54, 1.000000, 0.129630, 0.550000),
    lock(
        "cora",
        "attrcluster",
        "arcs",
        34,
        1.000000,
        0.205882,
        0.716667,
    ),
    lock(
        "cora",
        "attrcluster",
        "ecbs",
        42,
        1.000000,
        0.166667,
        0.650000,
    ),
    lock(
        "cora",
        "attrcluster",
        "cbs",
        54,
        1.000000,
        0.129630,
        0.550000,
    ),
    lock("cora", "minhash", "arcs", 5, 0.714286, 1.000000, 0.958333),
    lock("cora", "minhash", "ecbs", 5, 0.714286, 1.000000, 0.958333),
    lock("cora", "minhash", "cbs", 5, 0.714286, 1.000000, 0.958333),
    lock(
        "lod-people",
        "token",
        "arcs",
        12,
        1.000000,
        0.416667,
        0.868132,
    ),
    lock(
        "lod-people",
        "token",
        "ecbs",
        14,
        1.000000,
        0.357143,
        0.846154,
    ),
    lock(
        "lod-people",
        "token",
        "cbs",
        14,
        1.000000,
        0.357143,
        0.846154,
    ),
    lock(
        "lod-people",
        "attrcluster",
        "arcs",
        12,
        1.000000,
        0.416667,
        0.868132,
    ),
    lock(
        "lod-people",
        "attrcluster",
        "ecbs",
        14,
        1.000000,
        0.357143,
        0.846154,
    ),
    lock(
        "lod-people",
        "attrcluster",
        "cbs",
        14,
        1.000000,
        0.357143,
        0.846154,
    ),
    lock(
        "lod-people",
        "minhash",
        "arcs",
        6,
        0.800000,
        0.666667,
        0.934066,
    ),
    lock(
        "lod-people",
        "minhash",
        "ecbs",
        6,
        0.800000,
        0.666667,
        0.934066,
    ),
    lock(
        "lod-people",
        "minhash",
        "cbs",
        6,
        0.800000,
        0.666667,
        0.934066,
    ),
    lock(
        "synthetic-dirty",
        "token",
        "arcs",
        5097,
        0.904615,
        0.057681,
        0.975382,
    ),
    lock(
        "synthetic-dirty",
        "token",
        "ecbs",
        18390,
        0.926154,
        0.016368,
        0.911179,
    ),
    lock(
        "synthetic-dirty",
        "token",
        "cbs",
        9810,
        0.886154,
        0.029358,
        0.952619,
    ),
    lock(
        "synthetic-dirty",
        "attrcluster",
        "arcs",
        5097,
        0.904615,
        0.057681,
        0.975382,
    ),
    lock(
        "synthetic-dirty",
        "attrcluster",
        "ecbs",
        18390,
        0.926154,
        0.016368,
        0.911179,
    ),
    lock(
        "synthetic-dirty",
        "attrcluster",
        "cbs",
        9810,
        0.886154,
        0.029358,
        0.952619,
    ),
    lock(
        "synthetic-dirty",
        "minhash",
        "arcs",
        712,
        0.415385,
        0.189607,
        0.996561,
    ),
    lock(
        "synthetic-dirty",
        "minhash",
        "ecbs",
        1245,
        0.393846,
        0.102811,
        0.993987,
    ),
    lock(
        "synthetic-dirty",
        "minhash",
        "cbs",
        1725,
        0.430769,
        0.081159,
        0.991669,
    ),
];

/// The lock row for a cell, if one exists.
pub fn envelope_for(scenario: &str, blocking: &str, weighting: &str) -> Option<&'static Envelope> {
    ENVELOPES
        .iter()
        .find(|e| e.scenario == scenario && e.blocking == blocking && e.weighting == weighting)
}

/// Prints the measured cells as paste-ready [`ENVELOPES`] rows when the
/// `ER_PRINT_SCENARIOS` environment variable is set (the re-lock knob).
pub fn maybe_print_relock(results: &[CellResult]) {
    if std::env::var("ER_PRINT_SCENARIOS").is_err() {
        return;
    }
    println!("// ER_PRINT_SCENARIOS relock table:");
    for c in results {
        println!(
            "    lock(\"{}\", \"{}\", \"{}\", {}, {:.6}, {:.6}, {:.6}),",
            c.scenario, c.blocking, c.weighting, c.comparisons, c.pc, c.pq, c.rr
        );
    }
}

// ---------------------------------------------------------------------------
// Scorecards
// ---------------------------------------------------------------------------

/// Renders the matrix results as a deterministic JSON scorecard
/// (`er-scenario-scorecard-v1`). Fixed-precision floats and no
/// timestamps/thread counts: the bytes are identical for identical quality,
/// at every thread count.
pub fn scorecard_json(results: &[CellResult]) -> String {
    let failed = results.iter().filter(|c| c.breach.is_some()).count();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"er-scenario-scorecard-v1\",\n");
    out.push_str(&format!("  \"cells_run\": {},\n", results.len()));
    out.push_str(&format!("  \"cells_failed\": {failed},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in results.iter().enumerate() {
        let breach = match &c.breach {
            Some(b) => er_core::obs::json_string(b),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"blocking\": \"{}\", \"weighting\": \"{}\", \
             \"comparisons\": {}, \"pc\": {:.4}, \"pq\": {:.4}, \"rr\": {:.4}, \
             \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4}, \"matches\": {}, \
             \"locked\": {}, \"breach\": {}}}{}\n",
            c.scenario,
            c.blocking,
            c.weighting,
            c.comparisons,
            c.pc,
            c.pq,
            c.rr,
            c.precision,
            c.recall,
            c.f1,
            c.matches,
            c.locked,
            breach,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_required_families() {
        let csv = REGISTRY
            .iter()
            .filter(|s| s.family == ScenarioFamily::Csv)
            .count();
        let rdf = REGISTRY
            .iter()
            .filter(|s| s.family == ScenarioFamily::Rdf)
            .count();
        let synthetic = REGISTRY
            .iter()
            .filter(|s| s.family == ScenarioFamily::Synthetic)
            .count();
        assert!(csv >= 2, "need ≥2 CSV-style scenarios");
        assert!(rdf >= 1, "need ≥1 RDF-style scenario");
        assert!(synthetic >= 1, "need ≥1 synthetic baseline");
        assert!(BLOCKING_METHODS.len() >= 3);
    }

    #[test]
    fn every_scenario_loads_with_gold() {
        for s in REGISTRY {
            let loaded = s.load();
            assert!(!loaded.collection.is_empty(), "{}", s.name);
            assert!(!loaded.truth.is_empty(), "{} has gold", s.name);
            assert_eq!(loaded.gold_skipped, 0, "{} gold ids all load", s.name);
        }
    }

    #[test]
    fn census_quarantine_is_pinned() {
        let loaded = find("census").unwrap().load();
        // The fixture deliberately carries one wrong-field-count row and one
        // duplicate id — the loader must quarantine exactly those two.
        assert_eq!(loaded.quarantine.quarantined(), 2);
        let counts = loaded.quarantine.counts_by_code();
        assert_eq!(counts["schema-mismatch"], 1);
        assert_eq!(counts["duplicate-id"], 1);
        assert_eq!(loaded.collection.len(), 31);
    }

    #[test]
    fn matrix_runs_every_cell_and_counts_them() {
        let obs = Obs::enabled();
        let scenarios: Vec<&Scenario> = REGISTRY
            .iter()
            .filter(|s| s.name == "census" || s.name == "dual")
            .collect();
        let results = run_matrix(&scenarios, 1, &obs);
        assert_eq!(
            results.len(),
            BLOCKING_METHODS.len() * WEIGHTING_SCHEMES.len()
        );
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("scenario.cells_run"),
            Some(results.len() as u64)
        );
        assert_eq!(snap.counter("scenario.cells_failed"), Some(0));
    }

    #[test]
    fn scorecards_are_byte_identical_across_threads() {
        let scenarios: Vec<&Scenario> = vec![find("census").unwrap()];
        let a = scorecard_json(&run_matrix(&scenarios, 1, &Obs::disabled()));
        let b = scorecard_json(&run_matrix(&scenarios, 4, &Obs::disabled()));
        assert_eq!(a, b);
        assert!(a.contains("er-scenario-scorecard-v1"));
    }
}
