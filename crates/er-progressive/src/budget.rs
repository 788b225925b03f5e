//! Budgets and the one scheduling → matching → update loop.

use crate::stopping::StoppingRule;
use er_core::collection::EntityCollection;
use er_core::ground_truth::GroundTruth;
use er_core::matching::Matcher;
use er_core::metrics::ProgressiveCurve;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::splitmix64;
use std::collections::BTreeSet;
use std::time::Instant;

/// A comparison budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Execute at most this many comparisons.
    Comparisons(u64),
    /// Execute until the wall-clock deadline passes, then stop with partial
    /// results. The outcome's `comparisons` and recall curve report exactly
    /// how far the run got — progressive ER's graceful-degradation contract.
    Deadline(Instant),
    /// Execute the whole schedule.
    Unlimited,
}

impl Budget {
    /// A deadline budget expiring after `timeout` from now.
    pub fn timeout(timeout: std::time::Duration) -> Budget {
        Budget::Deadline(Instant::now() + timeout)
    }
}

impl StoppingRule for Budget {
    /// Whether `executed` comparisons exhaust the budget. Deadline budgets
    /// consult the wall clock instead of the comparison count.
    fn exhausted(&self, executed: u64) -> bool {
        match self {
            Budget::Comparisons(b) => executed >= *b,
            Budget::Deadline(d) => Instant::now() >= *d,
            Budget::Unlimited => false,
        }
    }

    fn comparison_budget(&self) -> Option<u64> {
        match self {
            Budget::Comparisons(b) => Some(*b),
            Budget::Deadline(_) | Budget::Unlimited => None,
        }
    }
}

/// Everything a progressive run produces.
#[derive(Clone, Debug)]
pub struct ProgressiveOutcome {
    /// Recall after each executed comparison.
    pub curve: ProgressiveCurve,
    /// The match pairs found, in discovery order.
    pub matches: Vec<Pair>,
    /// Comparisons actually executed.
    pub comparisons: u64,
}

/// The scheduling phase of Fig. 1's loop: which pair to compare next, and —
/// the update phase — what the decision on it changes about what follows.
/// Every iterator over pairs is a static scheduler (a sorted pair list, a
/// partition hierarchy, ordered blocks, a random order).
pub trait Scheduler {
    /// The next pair to compare; `None` once the schedule has drained.
    fn next_pair(&mut self) -> Option<Pair>;

    /// Told the decision on the pair [`next_pair`](Self::next_pair) last
    /// yielded, once it has been compared.
    fn update(&mut self, _pair: Pair, _is_match: bool) {}
}

impl<I: Iterator<Item = Pair>> Scheduler for I {
    fn next_pair(&mut self) -> Option<Pair> {
        self.next()
    }
}

/// The scheduling → matching → update loop, the only place a scheduled
/// comparison is executed: until `stop` fires or `scheduler` drains, take the
/// next pair, compare it once (a pair the scheduler repeats costs no budget
/// and feeds nothing back), record recall against `truth`, and tell the
/// stopping rule and the scheduler the decision.
///
/// With an enabled `obs` every run records comparisons consumed
/// (`progressive.comparisons_consumed`), matches emitted
/// (`progressive.matches_emitted`), the comparison budget as a gauge
/// (`progressive.budget_comparisons`, when the rule has one) and the
/// position of every emitted match in the `progressive.match_position` log2
/// histogram — the "matches over time" shape a scheduler is judged by.
pub fn run<M, S, R>(
    collection: &EntityCollection,
    matcher: &M,
    mut scheduler: S,
    mut stop: R,
    truth: &GroundTruth,
    obs: &Obs,
) -> ProgressiveOutcome
where
    M: Matcher,
    S: Scheduler,
    R: StoppingRule,
{
    let match_position = obs.histogram("progressive.match_position");
    let mut curve = ProgressiveCurve::new(truth.len() as u64);
    let mut seen: BTreeSet<Pair> = BTreeSet::new();
    let mut matches = Vec::new();
    let mut executed = 0u64;
    while !stop.exhausted(executed) {
        let Some(pair) = scheduler.next_pair() else {
            break;
        };
        if !seen.insert(pair) {
            continue;
        }
        executed += 1;
        let is_match = er_core::matching::compare_pair(collection, matcher, pair).is_match;
        if is_match {
            matches.push(pair);
            match_position.record(executed);
        }
        curve.record(is_match && truth.contains(pair));
        stop.observe(is_match);
        scheduler.update(pair, is_match);
    }
    if obs.is_enabled() {
        obs.counter("progressive.comparisons_consumed")
            .add(executed);
        obs.counter("progressive.matches_emitted")
            .add(matches.len() as u64);
        if let Some(b) = stop.comparison_budget() {
            obs.gauge("progressive.budget_comparisons").set(b as f64);
        }
    }
    ProgressiveOutcome {
        curve,
        matches,
        comparisons: executed,
    }
}

/// A deterministic pseudo-random schedule over the given pairs — the
/// baseline every progressive method is compared against in the literature.
/// Uses a SplitMix64 keyed shuffle so results are reproducible.
pub fn random_schedule(pairs: &[Pair], seed: u64) -> Vec<Pair> {
    let mut keyed: Vec<(u64, Pair)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &p)| (splitmix64(seed.wrapping_add(i as u64)), p))
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::matching::OracleMatcher;

    fn run_static(
        c: &EntityCollection,
        oracle: &OracleMatcher<'_>,
        schedule: Vec<Pair>,
        budget: Budget,
        truth: &GroundTruth,
    ) -> ProgressiveOutcome {
        run(
            c,
            oracle,
            schedule.into_iter(),
            budget,
            truth,
            &Obs::disabled(),
        )
    }

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    fn setup() -> (EntityCollection, GroundTruth) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for i in 0..6 {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", format!("e{i}")));
        }
        let truth = GroundTruth::from_clusters(vec![vec![id(0), id(1)], vec![id(2), id(3)]]);
        (c, truth)
    }

    #[test]
    fn budget_limits_execution() {
        let (c, truth) = setup();
        let oracle = OracleMatcher::new(&truth);
        let schedule = c.all_pairs();
        let out = run_static(&c, &oracle, schedule, Budget::Comparisons(4), &truth);
        assert_eq!(out.comparisons, 4);
        assert_eq!(out.curve.comparisons(), 4);
    }

    #[test]
    fn unlimited_budget_runs_everything() {
        let (c, truth) = setup();
        let oracle = OracleMatcher::new(&truth);
        let out = run_static(&c, &oracle, c.all_pairs(), Budget::Unlimited, &truth);
        assert_eq!(out.comparisons, 15);
        assert_eq!(out.curve.final_recall(), 1.0);
        assert_eq!(out.matches.len(), 2);
    }

    #[test]
    fn duplicate_schedule_entries_cost_nothing() {
        let (c, truth) = setup();
        let oracle = OracleMatcher::new(&truth);
        let p = Pair::new(id(0), id(1));
        let out = run_static(&c, &oracle, vec![p, p, p], Budget::Unlimited, &truth);
        assert_eq!(out.comparisons, 1);
        assert_eq!(out.matches, vec![p]);
    }

    #[test]
    fn good_schedule_beats_bad_schedule_on_auc() {
        let (c, truth) = setup();
        let oracle = OracleMatcher::new(&truth);
        let good = vec![
            Pair::new(id(0), id(1)),
            Pair::new(id(2), id(3)),
            Pair::new(id(4), id(5)),
        ];
        let bad = vec![
            Pair::new(id(4), id(5)),
            Pair::new(id(2), id(3)),
            Pair::new(id(0), id(1)),
        ];
        let g = run_static(&c, &oracle, good, Budget::Unlimited, &truth);
        let b = run_static(&c, &oracle, bad, Budget::Unlimited, &truth);
        assert!(g.curve.auc(3) > b.curve.auc(3));
        assert_eq!(g.curve.final_recall(), b.curve.final_recall());
    }

    #[test]
    fn random_schedule_is_deterministic_permutation() {
        let (c, _) = setup();
        let pairs = c.all_pairs();
        let a = random_schedule(&pairs, 42);
        let b = random_schedule(&pairs, 42);
        assert_eq!(a, b);
        let c2 = random_schedule(&pairs, 43);
        assert_ne!(a, c2, "different seed, different order");
        let mut sorted = a;
        sorted.sort();
        assert_eq!(sorted, pairs, "same multiset of pairs");
    }

    #[test]
    fn budget_exhausted_logic() {
        assert!(Budget::Comparisons(0).exhausted(0));
        assert!(!Budget::Comparisons(5).exhausted(4));
        assert!(Budget::Comparisons(5).exhausted(5));
        assert!(!Budget::Unlimited.exhausted(u64::MAX));
    }

    #[test]
    fn expired_deadline_yields_partial_results_not_a_panic() {
        let (c, truth) = setup();
        let oracle = OracleMatcher::new(&truth);
        let expired = Budget::Deadline(Instant::now());
        let out = run_static(&c, &oracle, c.all_pairs(), expired, &truth);
        assert_eq!(out.comparisons, 0, "no budget, no comparisons");
        assert_eq!(out.curve.final_recall(), 0.0);
    }

    #[test]
    fn generous_deadline_behaves_like_unlimited() {
        let (c, truth) = setup();
        let oracle = OracleMatcher::new(&truth);
        let generous = Budget::timeout(std::time::Duration::from_secs(3600));
        let out = run_static(&c, &oracle, c.all_pairs(), generous, &truth);
        assert_eq!(out.comparisons, 15);
        assert_eq!(out.curve.final_recall(), 1.0);
    }
}
