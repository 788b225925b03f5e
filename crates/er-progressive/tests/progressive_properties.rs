//! Dataset-level properties of progressive ER: every informed scheduler
//! beats the random baseline early, curves are monotone, and budgets bind.

use er_blocking::sorted_neighborhood::SortKey;
use er_blocking::TokenBlocking;
use er_core::collection::EntityCollection;
use er_core::entity::{Entity, EntityId};
use er_core::ground_truth::GroundTruth;
use er_core::matching::{Decision, Matcher, OracleMatcher};
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::similarity::SetMeasure;
use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
use er_iterative::framework::{IterativeResolver, PairQueue};
use er_progressive::budget::{random_schedule, Budget};
use er_progressive::hints::{
    ordered_blocks_schedule, score_pairs, sorted_pair_list, PartitionHierarchy,
};
use er_progressive::psnm::ProgressiveSnm;
use er_progressive::scheduler::{SchedulerConfig, WindowScheduler};
use er_progressive::stopping::{DiminishingReturns, Either};
use er_progressive::{run, ProgressiveOutcome, StoppingRule};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// A static schedule under a budget, unobserved.
fn run_static(
    collection: &EntityCollection,
    oracle: &OracleMatcher<'_>,
    schedule: impl IntoIterator<Item = Pair>,
    budget: Budget,
    truth: &GroundTruth,
) -> ProgressiveOutcome {
    let schedule = schedule.into_iter();
    run(
        collection,
        oracle,
        schedule,
        budget,
        truth,
        &Obs::disabled(),
    )
}

fn dataset() -> DirtyDataset {
    DirtyDataset::generate(&DirtyConfig::sized(300, NoiseModel::light(), 23))
}

/// Shared setup: token-blocking candidates and their cheap scores.
fn candidates(ds: &DirtyDataset) -> Vec<Pair> {
    TokenBlocking::new()
        .build(&ds.collection)
        .distinct_pairs(&ds.collection)
}

#[test]
fn sorted_list_hint_beats_random_schedule() {
    let ds = dataset();
    let cands = candidates(&ds);
    let oracle = OracleMatcher::new(&ds.truth);
    let scored = score_pairs(&ds.collection, &cands, SetMeasure::Jaccard);
    let hinted = sorted_pair_list(&scored);
    let random = random_schedule(&cands, 99);
    let budget = Budget::Comparisons((cands.len() / 10) as u64);
    let h = run_static(&ds.collection, &oracle, hinted, budget, &ds.truth);
    let r = run_static(&ds.collection, &oracle, random, budget, &ds.truth);
    assert!(
        h.curve.final_recall() > 2.0 * r.curve.final_recall(),
        "hint {} vs random {}: informed scheduling must dominate at 10% budget",
        h.curve.final_recall(),
        r.curve.final_recall()
    );
}

#[test]
fn hierarchy_hint_resolves_tight_levels_first() {
    let ds = dataset();
    let cands = candidates(&ds);
    let oracle = OracleMatcher::new(&ds.truth);
    let scored = score_pairs(&ds.collection, &cands, SetMeasure::Jaccard);
    let h = PartitionHierarchy::build(&scored, &[0.8, 0.5, 0.2]);
    let out = run_static(
        &ds.collection,
        &oracle,
        h.schedule(),
        Budget::Unlimited,
        &ds.truth,
    );
    // Front-loading: the first 25% of the schedule must recover more than
    // 25% of the finally-reached recall (a uniform ordering would be equal).
    let early = out.curve.recall_at(out.comparisons / 4);
    let late = out.curve.final_recall();
    assert!(
        early > 0.25 * late,
        "early {early} vs final {late}: not front-loaded"
    );
    // Pairs below the loosest threshold are pruned entirely.
    assert!(out.comparisons <= cands.len() as u64);
}

#[test]
fn ordered_blocks_hint_is_complete_and_front_loaded() {
    let ds = dataset();
    let blocks = TokenBlocking::new().build(&ds.collection);
    let oracle = OracleMatcher::new(&ds.truth);
    let schedule = ordered_blocks_schedule(&ds.collection, &blocks);
    let all = blocks.distinct_pairs(&ds.collection);
    assert_eq!(schedule.len(), all.len(), "hint reorders, never drops");
    let out = run_static(
        &ds.collection,
        &oracle,
        schedule,
        Budget::Unlimited,
        &ds.truth,
    );
    let rand = run_static(
        &ds.collection,
        &oracle,
        random_schedule(&all, 7),
        Budget::Unlimited,
        &ds.truth,
    );
    assert_eq!(out.curve.final_recall(), rand.curve.final_recall());
    assert!(
        out.curve.auc(out.comparisons) > rand.curve.auc(rand.comparisons),
        "small-blocks-first must front-load recall"
    );
}

#[test]
fn psnm_beats_random_on_auc() {
    let ds = dataset();
    let oracle = OracleMatcher::new(&ds.truth);
    let psnm = ProgressiveSnm::new(SortKey::FlattenedValue, 12, false);
    let out = run(
        &ds.collection,
        &oracle,
        psnm.schedule(&ds.collection),
        Budget::Unlimited,
        &ds.truth,
        &Obs::disabled(),
    );
    let horizon = out.comparisons;
    let all: Vec<Pair> = ds.collection.all_pairs();
    let rand = run_static(
        &ds.collection,
        &oracle,
        random_schedule(&all, 3).into_iter().take(horizon as usize),
        Budget::Unlimited,
        &ds.truth,
    );
    assert!(
        out.curve.auc(horizon) > 2.0 * rand.curve.auc(horizon),
        "PSNM auc {} vs random {}",
        out.curve.auc(horizon),
        rand.curve.auc(horizon)
    );
}

#[test]
fn window_scheduler_respects_budget_and_is_monotone() {
    let ds = dataset();
    let cands = candidates(&ds);
    let oracle = OracleMatcher::new(&ds.truth);
    let scored = score_pairs(&ds.collection, &cands, SetMeasure::Jaccard);
    let sched = WindowScheduler::new(
        &ds.collection,
        &scored,
        &[],
        SchedulerConfig {
            window_size: 25,
            influence_boost: 0.2,
        },
    );
    let budget = (cands.len() / 5) as u64;
    let out = run(
        &ds.collection,
        &oracle,
        sched,
        Budget::Comparisons(budget),
        &ds.truth,
        &Obs::disabled(),
    );
    assert_eq!(out.comparisons, budget.min(cands.len() as u64));
    let mut prev = 0.0;
    for k in 1..=out.comparisons {
        let r = out.curve.recall_at(k);
        assert!(r + 1e-12 >= prev);
        prev = r;
    }
}

#[test]
fn larger_budgets_never_reduce_recall() {
    let ds = dataset();
    let cands = candidates(&ds);
    let oracle = OracleMatcher::new(&ds.truth);
    let scored = score_pairs(&ds.collection, &cands, SetMeasure::Jaccard);
    let schedule = sorted_pair_list(&scored);
    let mut last = 0.0;
    for pct in [5, 10, 25, 50, 100] {
        let b = (cands.len() * pct / 100) as u64;
        let out = run_static(
            &ds.collection,
            &oracle,
            schedule.clone(),
            Budget::Comparisons(b),
            &ds.truth,
        );
        let r = out.curve.final_recall();
        assert!(
            r + 1e-12 >= last,
            "recall fell from {last} to {r} at {pct}%"
        );
        last = r;
    }
}

// ---------------------------------------------------------------------------
// The method × stop matrix: every scheduler runs under the one loop, so every
// stopping rule binds every method the same way.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Method {
    Random,
    SortedList,
    Hierarchy,
    OrderedBlocks,
    Psnm,
    PsnmLookahead,
    Window,
    WindowRelations,
    /// §III: a `PairQueue` seeded with the high-scored candidates, whose hook
    /// enqueues every candidate sharing an entity with a match.
    QueueDiscovering,
}

const METHODS: [Method; 9] = [
    Method::Random,
    Method::SortedList,
    Method::Hierarchy,
    Method::OrderedBlocks,
    Method::Psnm,
    Method::PsnmLookahead,
    Method::Window,
    Method::WindowRelations,
    Method::QueueDiscovering,
];

/// The oracle, logging every pair it is asked to compare.
struct Recording<'a> {
    oracle: OracleMatcher<'a>,
    compared: RefCell<Vec<Pair>>,
}

impl Matcher for Recording<'_> {
    fn compare(&self, a: &Entity, b: &Entity) -> Decision {
        self.compared.borrow_mut().push(Pair::new(a.id(), b.id()));
        self.oracle.compare(a, b)
    }
}

struct Fixture {
    ds: DirtyDataset,
    blocks: er_blocking::block::BlockCollection,
    cands: Vec<Pair>,
    scored: Vec<(Pair, f64)>,
    relations: Vec<(EntityId, EntityId)>,
    by_entity: BTreeMap<EntityId, Vec<(Pair, f64)>>,
}

impl Fixture {
    fn new(entities: usize) -> Self {
        let ds = DirtyDataset::generate(&DirtyConfig::sized(entities, NoiseModel::light(), 23));
        let blocks = TokenBlocking::new().build(&ds.collection);
        let cands = blocks.distinct_pairs(&ds.collection);
        let scored = score_pairs(&ds.collection, &cands, SetMeasure::Jaccard);
        let relations = (0..ds.collection.len() as u32 - 1)
            .step_by(3)
            .map(|i| (EntityId(i), EntityId(i + 1)))
            .collect();
        let mut by_entity: BTreeMap<EntityId, Vec<(Pair, f64)>> = BTreeMap::new();
        for &(p, s) in &scored {
            by_entity.entry(p.first()).or_default().push((p, s));
            by_entity.entry(p.second()).or_default().push((p, s));
        }
        Fixture {
            ds,
            blocks,
            cands,
            scored,
            relations,
            by_entity,
        }
    }

    /// Runs one method under one stopping rule; returns the outcome and the
    /// pairs compared, in order.
    fn run(
        &self,
        method: Method,
        stop: impl StoppingRule,
        obs: &Obs,
    ) -> (ProgressiveOutcome, Vec<Pair>) {
        let (c, truth) = (&self.ds.collection, &self.ds.truth);
        let m = Recording {
            oracle: OracleMatcher::new(truth),
            compared: RefCell::new(Vec::new()),
        };
        let window = SchedulerConfig {
            window_size: 100,
            influence_boost: 0.2,
        };
        let psnm = |lookahead| ProgressiveSnm::new(SortKey::FlattenedValue, 12, lookahead);
        let out = match method {
            Method::Random => {
                let schedule = random_schedule(&self.cands, 99).into_iter();
                run(c, &m, schedule, stop, truth, obs)
            }
            Method::SortedList => {
                let schedule = sorted_pair_list(&self.scored).into_iter();
                run(c, &m, schedule, stop, truth, obs)
            }
            Method::Hierarchy => {
                let h = PartitionHierarchy::build(&self.scored, &[0.8, 0.5, 0.2]);
                run(c, &m, h.schedule().into_iter(), stop, truth, obs)
            }
            Method::OrderedBlocks => {
                let schedule = ordered_blocks_schedule(c, &self.blocks).into_iter();
                run(c, &m, schedule, stop, truth, obs)
            }
            Method::Psnm => run(c, &m, psnm(false).schedule(c), stop, truth, obs),
            Method::PsnmLookahead => run(c, &m, psnm(true).schedule(c), stop, truth, obs),
            Method::Window => {
                let sched = WindowScheduler::new(c, &self.scored, &[], window);
                run(c, &m, sched, stop, truth, obs)
            }
            Method::WindowRelations => {
                let sched = WindowScheduler::new(c, &self.scored, &self.relations, window);
                run(c, &m, sched, stop, truth, obs)
            }
            Method::QueueDiscovering => {
                let seeds = self.scored.iter().copied().filter(|&(_, s)| s >= 0.5);
                let discover = |pair: Pair, is_match: bool, queue: &mut PairQueue| {
                    if is_match {
                        for e in [pair.first(), pair.second()] {
                            for &(p, s) in &self.by_entity[&e] {
                                queue.push(p, s);
                            }
                        }
                    }
                };
                let resolver = IterativeResolver::new(c, &m, seeds);
                let (out, stats) = resolver.run(discover, stop, truth, obs);
                assert_eq!(stats.comparisons, out.comparisons);
                assert_eq!(stats.matches, out.matches.len() as u64);
                out
            }
        };
        (out, m.compared.into_inner())
    }
}

/// What a run under some stop must equal: the first `k` decisions of the
/// same method's unlimited run, nothing compared twice.
fn assert_prefix(
    what: &str,
    fx: &Fixture,
    (out, compared): &(ProgressiveOutcome, Vec<Pair>),
    (full, full_compared): &(ProgressiveOutcome, Vec<Pair>),
    k: u64,
) {
    let k = k.min(full.comparisons);
    assert_eq!(out.comparisons, k, "{what}: comparisons");
    assert_eq!(compared[..], full_compared[..k as usize], "{what}: order");
    let distinct: BTreeSet<Pair> = compared.iter().copied().collect();
    assert_eq!(distinct.len(), compared.len(), "{what}: a pair ran twice");
    let matches: Vec<Pair> = compared
        .iter()
        .copied()
        .filter(|&p| fx.ds.truth.contains(p))
        .collect();
    assert_eq!(out.matches, matches, "{what}: matches");
    assert_eq!(out.curve.comparisons(), k, "{what}: curve length");
    for i in 0..=k {
        let (got, want) = (out.curve.recall_at(i), full.curve.recall_at(i));
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: recall at {i}");
    }
}

#[test]
fn every_stop_binds_every_method_as_a_prefix_of_its_unlimited_run() {
    let fx = Fixture::new(100);
    let off = Obs::disabled();
    let window = 150;
    for method in METHODS {
        let full = fx.run(method, Budget::Unlimited, &off);
        assert_prefix(
            &format!("{method:?} unlimited"),
            &fx,
            &full,
            &full,
            u64::MAX,
        );
        let k = full.0.comparisons / 3;
        assert!(k > 1, "{method:?}: fixture too small for a binding budget");
        for b in [0, 1, k] {
            let what = format!("{method:?} Comparisons({b})");
            assert_prefix(
                &what,
                &fx,
                &fx.run(method, Budget::Comparisons(b), &off),
                &full,
                b,
            );
        }
        let expired = fx.run(method, Budget::Deadline(Instant::now()), &off);
        assert_prefix(
            &format!("{method:?} expired deadline"),
            &fx,
            &expired,
            &full,
            0,
        );
        let generous = Budget::timeout(std::time::Duration::from_secs(3600));
        let what = format!("{method:?} generous deadline");
        assert_prefix(&what, &fx, &fx.run(method, generous, &off), &full, u64::MAX);

        // Diminishing returns fires after the first `window` consecutive
        // misses of the unlimited decision sequence, on every method.
        let hits: Vec<bool> = full.1.iter().map(|&p| fx.ds.truth.contains(p)).collect();
        let dry = (window..=hits.len())
            .find(|&t| !hits[t - window..t].contains(&true))
            .unwrap_or(hits.len()) as u64;
        let rule = || DiminishingReturns::new(window, 1);
        let what = format!("{method:?} DiminishingReturns");
        assert_prefix(&what, &fx, &fx.run(method, rule(), &off), &full, dry);
        for b in [dry / 2, dry + 10] {
            let what = format!("{method:?} Either(Comparisons({b}), DiminishingReturns)");
            let either = Either(Budget::Comparisons(b), rule());
            assert_prefix(&what, &fx, &fx.run(method, either, &off), &full, b.min(dry));
        }
    }
}

#[test]
fn every_method_records_the_progressive_metrics() {
    let fx = Fixture::new(100);
    for method in METHODS {
        let obs = Obs::enabled();
        let (out, _) = fx.run(method, Budget::Comparisons(40), &obs);
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("progressive.comparisons_consumed"),
            Some(out.comparisons),
            "{method:?}"
        );
        assert_eq!(
            snap.counter("progressive.matches_emitted"),
            Some(out.matches.len() as u64),
            "{method:?}"
        );
        assert_eq!(
            snap.gauge("progressive.budget_comparisons"),
            Some(40.0),
            "{method:?}"
        );
    }
}

/// `(comparisons, matches, auc(total) bits)` per method at a tenth of the
/// candidates and unlimited, measured at the commit before the loops were
/// merged (the queue had neither budget nor curve there: its unlimited
/// comparisons and matches are the lock).
#[test]
fn outcomes_are_locked_to_the_per_method_loops() {
    let fx = Fixture::new(300);
    let total = fx.cands.len() as u64;
    assert_eq!(total, 34_921);
    type Lock = (u64, usize, u64);
    let locks: [(Method, Lock, Lock); 8] = [
        (
            Method::Random,
            (3492, 28, 0x3fbe16b5fec87812),
            (34921, 222, 0x3fdfa324bb92acc0),
        ),
        (
            Method::SortedList,
            (3492, 218, 0x3fef0899e5afb651),
            (34921, 222, 0x3fef84ea0dfc3d42),
        ),
        (
            Method::Hierarchy,
            (327, 211, 0x3fee08f7fffdced1),
            (327, 211, 0x3fee08f7fffdced1),
        ),
        (
            Method::OrderedBlocks,
            (3492, 222, 0x3fef8c68d6db3ef1),
            (34921, 222, 0x3fef8c68d6db3ef1),
        ),
        (
            Method::Psnm,
            (3492, 193, 0x3feb439e9e025368),
            (5610, 193, 0x3feb439e9e025368),
        ),
        (
            Method::PsnmLookahead,
            (3492, 193, 0x3feb44cfb6c24f4e),
            (5610, 193, 0x3feb44cfb6c24f4e),
        ),
        (
            Method::Window,
            (3492, 134, 0x3fe2ea507943b019),
            (34921, 222, 0x3fea39a06a9a5ab1),
        ),
        (
            Method::WindowRelations,
            (3492, 122, 0x3fe14767424b76e4),
            (34921, 222, 0x3fe927b42b7c83c0),
        ),
    ];
    let off = Obs::disabled();
    let key =
        |o: &ProgressiveOutcome| (o.comparisons, o.matches.len(), o.curve.auc(total).to_bits());
    for (method, tenth, unlimited) in locks {
        let (out, _) = fx.run(method, Budget::Comparisons(total / 10), &off);
        assert_eq!(key(&out), tenth, "{method:?} at a tenth");
        let (out, _) = fx.run(method, Budget::Unlimited, &off);
        assert_eq!(key(&out), unlimited, "{method:?} unlimited");
    }
    let (out, _) = fx.run(Method::QueueDiscovering, Budget::Unlimited, &off);
    assert_eq!((out.comparisons, out.matches.len()), (26_208, 176));
}
