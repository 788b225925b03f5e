//! Scenario-matrix quality locks (see `er_bench::scenarios` and
//! docs/scenarios.md).
//!
//! The committed benchmark fixtures pin the blocking-quality rankings the
//! paper argues flip between clean tabular and heterogeneous Web data. These
//! tests hold three lines:
//!
//! - every (scenario, blocking, weighting) cell has a locked PC/PQ/RR
//!   [`Envelope`](er_bench::scenarios::Envelope) and stays inside it — an
//!   algorithmic change that silently shifts quality on any family fails
//!   here, with the drifting metric named (re-lock intentionally via
//!   `ER_PRINT_SCENARIOS=1 er scenario run`, see docs/scenarios.md);
//! - the matrix is bit-deterministic: loading is reproducible and the JSON
//!   scorecard bytes are identical at 1 and 4 threads;
//! - the delimited and N-Triples loaders agree: the dual-encoded fixture
//!   yields entity-for-entity identical collections through either format.

use er_bench::scenarios::{
    find, run_matrix, scorecard_json, Scenario, BLOCKING_METHODS, ENVELOPES, REGISTRY,
    WEIGHTING_SCHEMES,
};
use er_core::collection::ResolutionMode;
use er_core::entity::KbId;
use er_core::obs::Obs;
use er_datagen::loaders::{DatasetBuilder, DelimitedSchema};

#[test]
fn every_matrix_cell_is_locked_and_inside_its_envelope() {
    // One lock row per cell — no scenario ships without its envelope.
    assert_eq!(
        ENVELOPES.len(),
        REGISTRY.len() * BLOCKING_METHODS.len() * WEIGHTING_SCHEMES.len(),
        "every (scenario, blocking, weighting) cell must carry a lock row"
    );
    let scenarios: Vec<&Scenario> = REGISTRY.iter().collect();
    let results = run_matrix(&scenarios, 1, &Obs::disabled());
    assert_eq!(results.len(), ENVELOPES.len());
    for cell in &results {
        assert!(
            cell.locked,
            "{}/{}/{} has no lock row",
            cell.scenario, cell.blocking, cell.weighting
        );
        assert!(
            cell.breach.is_none(),
            "{}/{}/{} left its locked envelope: {}",
            cell.scenario,
            cell.blocking,
            cell.weighting,
            cell.breach.as_deref().unwrap_or_default()
        );
    }
}

#[test]
fn scorecards_are_byte_identical_across_thread_counts() {
    // The full registry, not a single scenario: the determinism contract
    // must hold for every loader and every kernel the matrix touches.
    let scenarios: Vec<&Scenario> = REGISTRY.iter().collect();
    let serial = scorecard_json(&run_matrix(&scenarios, 1, &Obs::disabled()));
    let parallel = scorecard_json(&run_matrix(&scenarios, 4, &Obs::disabled()));
    assert_eq!(
        serial, parallel,
        "scorecard bytes must not depend on the thread count"
    );
}

#[test]
fn scenario_loading_is_deterministic() {
    for scenario in REGISTRY {
        let a = scenario.load();
        let b = scenario.load();
        assert_eq!(a.collection.len(), b.collection.len(), "{}", scenario.name);
        assert_eq!(a.truth.len(), b.truth.len(), "{}", scenario.name);
        for (x, y) in a.collection.iter().zip(b.collection.iter()) {
            assert_eq!(x.uri(), y.uri(), "{}", scenario.name);
            assert_eq!(x.attributes(), y.attributes(), "{}", scenario.name);
        }
    }
}

#[test]
fn csv_and_ntriples_loaders_agree_on_the_dual_fixture() {
    // The same five records committed in both encodings: column order in
    // the CSV matches triple order in the N-Triples file, so the loaders
    // must produce identical collections — same uris, same attributes, in
    // the same order — and bind the same gold clusters.
    let gold = include_str!("../fixtures/scenarios/dual/gold.csv");

    let mut csv = DatasetBuilder::new(ResolutionMode::Dirty);
    csv.add_delimited(
        include_str!("../fixtures/scenarios/dual/dual.csv"),
        &DelimitedSchema::csv("id"),
        KbId(0),
    )
    .expect("dual CSV fixture loads");
    let csv = csv.finish(gold).expect("dual gold binds to the CSV load");

    let mut nt = DatasetBuilder::new(ResolutionMode::Dirty);
    nt.add_ntriples(include_str!("../fixtures/scenarios/dual/dual.nt"), KbId(0));
    let nt = nt.finish(gold).expect("dual gold binds to the NT load");

    assert_eq!(csv.quarantine.quarantined(), 0);
    assert_eq!(nt.quarantine.quarantined(), 0);
    assert_eq!(csv.collection.len(), nt.collection.len());
    for (c, n) in csv.collection.iter().zip(nt.collection.iter()) {
        assert_eq!(c.uri(), n.uri());
        assert_eq!(c.attributes(), n.attributes(), "for {:?}", c.uri());
    }
    assert_eq!(csv.truth.len(), nt.truth.len());
    for pair in csv.truth.iter() {
        assert!(nt.truth.contains(pair), "gold pair {pair:?} in both loads");
    }
}

#[test]
fn census_fixture_pins_the_quarantine_path() {
    // The census fixture deliberately ships one wrong-field-count row and
    // one duplicate id; the loader must quarantine exactly those two while
    // admitting the other 31 records.
    let loaded = find("census").expect("census is registered").load();
    assert_eq!(loaded.collection.len(), 31);
    assert_eq!(loaded.quarantine.quarantined(), 2);
    let counts = loaded.quarantine.counts_by_code();
    assert_eq!(counts.get("schema-mismatch"), Some(&1));
    assert_eq!(counts.get("duplicate-id"), Some(&1));
    assert_eq!(loaded.gold_skipped, 0, "every gold id survives the load");
}
