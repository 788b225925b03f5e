//! Progressive sorted neighborhood (Papenbrock, Heise & Naumann \[23\]).
//!
//! Classic sorted neighborhood compares everything within a window before
//! moving on. The progressive variant reorders that work: *all* rank-distance
//! 1 pairs first, then rank-distance 2, and so on — records adjacent in the
//! sort order are the likeliest matches, so recall rises steeply at the start
//! of the run.
//!
//! The **local lookahead** extension targets the dense-match regions the sort
//! tends to create: when `(i, j)` matches, the pairs `(i+1, j)` and
//! `(i, j+1)` are compared immediately (they have a high chance of matching
//! too), jumping the queue — the method's update phase.
//!
//! \[23\]'s *progressive blocking* is not implemented: its small-blocks-first
//! order is [`crate::hints::ordered_blocks_schedule`], and nothing here
//! re-ranks blocks by the matches they yield.

use crate::budget::Scheduler;
use er_blocking::sorted_neighborhood::{SortKey, SortedNeighborhood};
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::pair::Pair;
use std::collections::VecDeque;

/// Progressive sorted neighborhood with optional local lookahead.
#[derive(Clone, Debug)]
pub struct ProgressiveSnm {
    key: SortKey,
    /// Maximum rank distance explored (the classic method's window size).
    max_distance: usize,
    /// Enables the (i+1, j)/(i, j+1) lookahead of \[23\].
    lookahead: bool,
}

impl ProgressiveSnm {
    /// Creates the method.
    ///
    /// # Panics
    /// Panics if `max_distance == 0`.
    pub fn new(key: SortKey, max_distance: usize, lookahead: bool) -> Self {
        assert!(max_distance >= 1, "need at least rank distance 1");
        ProgressiveSnm {
            key,
            max_distance,
            lookahead,
        }
    }

    /// Sorts `collection` and returns the rank-distance sweep over it, the
    /// scheduler to hand to [`crate::run`].
    pub fn schedule<'a>(&self, collection: &'a EntityCollection) -> PsnmSchedule<'a> {
        // The window is irrelevant here; only the sort order is used.
        let order = SortedNeighborhood::new(self.key.clone(), 2).sorted_ids(collection);
        PsnmSchedule {
            collection,
            max_distance: self.max_distance.min(order.len().saturating_sub(1)),
            order,
            lookahead: self.lookahead,
            distance: 1,
            i: 0,
            jumped: VecDeque::new(),
            last: (0, 0),
        }
    }
}

/// The state of one PSNM run: where the sweep stands and which lookahead
/// positions jump the queue.
pub struct PsnmSchedule<'a> {
    collection: &'a EntityCollection,
    order: Vec<EntityId>,
    max_distance: usize,
    lookahead: bool,
    /// The sweep's next position pair is `(i, i + distance)`.
    distance: usize,
    i: usize,
    /// Lookahead position pairs, yielded before the sweep continues.
    jumped: VecDeque<(usize, usize)>,
    /// Positions of the pair last yielded.
    last: (usize, usize),
}

impl Scheduler for PsnmSchedule<'_> {
    fn next_pair(&mut self) -> Option<Pair> {
        let n = self.order.len();
        loop {
            let (i, j) = match self.jumped.pop_front() {
                Some(position) => position,
                None => {
                    if self.i + self.distance >= n {
                        self.distance += 1;
                        self.i = 0;
                    }
                    if self.distance > self.max_distance {
                        return None;
                    }
                    let i = self.i;
                    self.i += 1;
                    (i, i + self.distance)
                }
            };
            if i >= n || j >= n || i == j {
                continue;
            }
            if let Some(pair) = self
                .collection
                .comparable_pair(self.order[i], self.order[j])
            {
                self.last = (i, j);
                return Some(pair);
            }
        }
    }

    fn update(&mut self, _pair: Pair, is_match: bool) {
        if is_match && self.lookahead {
            // The (i+1, j) and (i, j+1) neighbors of a match have a high
            // chance of matching too [23].
            let (i, j) = self.last;
            self.jumped.push_back((i + 1, j));
            self.jumped.push_back((i, j + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{run, Budget, ProgressiveOutcome};
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, KbId};
    use er_core::ground_truth::GroundTruth;
    use er_core::matching::OracleMatcher;
    use er_core::obs::Obs;

    fn run_psnm(
        psnm: ProgressiveSnm,
        c: &EntityCollection,
        budget: Budget,
        truth: &GroundTruth,
    ) -> ProgressiveOutcome {
        let oracle = OracleMatcher::new(truth);
        run(
            c,
            &oracle,
            psnm.schedule(c),
            budget,
            truth,
            &Obs::disabled(),
        )
    }

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    /// Six records; sort key is the single attribute, so sorted order is
    /// alphabetical: a0 a1 a2 b0 b1 z0. Truth: (a0,a1), (a1,a2), (a0,a2) — a
    /// dense match region at the front — plus (b0,b1).
    fn setup() -> (EntityCollection, GroundTruth) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for v in ["a0", "a1", "a2", "b0", "b1", "z0"] {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", v));
        }
        let truth = GroundTruth::from_clusters(vec![vec![id(0), id(1), id(2)], vec![id(3), id(4)]]);
        (c, truth)
    }

    fn key() -> SortKey {
        SortKey::Attribute("n".into())
    }

    #[test]
    fn distance_one_pairs_come_first() {
        let (c, truth) = setup();
        let psnm = ProgressiveSnm::new(key(), 5, false);
        let out = run_psnm(psnm, &c, Budget::Comparisons(5), &truth);
        assert_eq!(out.comparisons, 5, "all rank-distance-1 pairs");
        // Those five include (a0,a1), (a1,a2) and (b0,b1): recall = 3/4.
        assert!((out.curve.final_recall() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn full_run_reaches_total_recall() {
        let (c, truth) = setup();
        let psnm = ProgressiveSnm::new(key(), 5, false);
        let out = run_psnm(psnm, &c, Budget::Unlimited, &truth);
        assert_eq!(out.curve.final_recall(), 1.0);
        assert_eq!(out.comparisons, 15);
    }

    #[test]
    fn lookahead_pulls_dense_region_pairs_forward() {
        let (c, truth) = setup();
        let plain = run_psnm(
            ProgressiveSnm::new(key(), 5, false),
            &c,
            Budget::Unlimited,
            &truth,
        );
        let look = run_psnm(
            ProgressiveSnm::new(key(), 5, true),
            &c,
            Budget::Unlimited,
            &truth,
        );
        assert_eq!(plain.curve.final_recall(), 1.0);
        assert_eq!(look.curve.final_recall(), 1.0);
        // (a0,a2) sits at rank distance 2; lookahead reaches it immediately
        // after (a0,a1)/(a1,a2) match, so recall in the *early* budgets is
        // at least as good and strictly better somewhere. (Past the dense
        // region the lookahead's speculative misses can lag briefly — [23]
        // claims early dominance, not uniform dominance.)
        let mut strictly_better = false;
        for k in 1..=4u64 {
            let (lr, pr) = (look.curve.recall_at(k), plain.curve.recall_at(k));
            assert!(
                lr + 1e-12 >= pr,
                "lookahead fell behind at early budget {k}"
            );
            if lr > pr + 1e-12 {
                strictly_better = true;
            }
        }
        assert!(
            strictly_better,
            "lookahead should win somewhere on dense data"
        );
    }

    #[test]
    fn budget_zero_executes_nothing() {
        let (c, truth) = setup();
        let psnm = ProgressiveSnm::new(key(), 3, true);
        let out = run_psnm(psnm, &c, Budget::Comparisons(0), &truth);
        assert_eq!(out.comparisons, 0);
        assert!(out.matches.is_empty());
    }
}
