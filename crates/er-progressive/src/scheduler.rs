//! The cost-window, influence-propagating scheduler of Altowim, Kalashnikov
//! & Mehrotra (PVLDB 2014 \[1\]).
//!
//! Candidate pairs form an **influence graph**: resolving one pair influences
//! another when they share an entity (direct influence) or when their
//! entities are related (relational influence). The total budget is divided
//! into **windows** of equal cost; for each window the scheduler picks the
//! pending pairs with the highest expected benefit — initial match likelihood
//! plus a boost for every influencing pair already resolved as a match. After
//! a window executes, the **update phase** propagates the new matches, so the
//! next window's choices reflect them.

use crate::budget::Scheduler;
use crate::hints::best_first;
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::pair::Pair;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the window scheduler.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Comparisons per window.
    pub window_size: u64,
    /// Benefit boost contributed by each resolved influencing match.
    pub influence_boost: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            window_size: 50,
            influence_boost: 0.3,
        }
    }
}

/// The window scheduler over scored candidate pairs and an optional
/// description-level relationship graph; hand it to [`crate::run`].
pub struct WindowScheduler {
    config: SchedulerConfig,
    /// Current benefit (match likelihood estimate plus boosts) per pair not
    /// yet put in a window.
    pending: BTreeMap<Pair, f64>,
    /// Relationship edges between descriptions (for relational influence).
    related: Vec<BTreeSet<u32>>,
    /// What is left of the current window, best first.
    window: std::vec::IntoIter<Pair>,
    /// The current window's matches, propagated when it runs dry.
    new_matches: Vec<Pair>,
}

impl WindowScheduler {
    /// Creates the scheduler from scored candidates. `relations` lists
    /// undirected related-description edges (may be empty: influence then
    /// flows only through shared entities).
    pub fn new(
        collection: &EntityCollection,
        scored_candidates: &[(Pair, f64)],
        relations: &[(EntityId, EntityId)],
        config: SchedulerConfig,
    ) -> Self {
        assert!(
            config.window_size >= 1,
            "window must hold at least one comparison"
        );
        let mut related = vec![BTreeSet::new(); collection.len()];
        for &(a, b) in relations {
            if a != b {
                related[a.index()].insert(b.0);
                related[b.index()].insert(a.0);
            }
        }
        WindowScheduler {
            config,
            pending: scored_candidates.iter().copied().collect(),
            related,
            window: Vec::new().into_iter(),
            new_matches: Vec::new(),
        }
    }

    /// Whether resolving `done` influences `pending`: they share an entity,
    /// or an entity of `done` is related to an entity of `pending`.
    fn influences(related: &[BTreeSet<u32>], done: Pair, pending: Pair) -> bool {
        [done.first(), done.second()].into_iter().any(|d| {
            pending.contains(d)
                || [pending.first(), pending.second()]
                    .into_iter()
                    .any(|p| related[d.index()].contains(&p.0))
        })
    }
}

impl Scheduler for WindowScheduler {
    fn next_pair(&mut self) -> Option<Pair> {
        if let Some(pair) = self.window.next() {
            return Some(pair);
        }
        // Update phase: propagate the finished window's matches.
        for done in self.new_matches.drain(..) {
            for (pair, score) in self.pending.iter_mut() {
                if Self::influences(&self.related, done, *pair) {
                    *score += self.config.influence_boost;
                }
            }
        }
        // Scheduling phase: the next window is the best of what is pending.
        let mut ranked: Vec<(Pair, f64)> = self.pending.iter().map(|(p, s)| (*p, *s)).collect();
        ranked.sort_by(best_first);
        ranked.truncate(self.config.window_size as usize);
        let window: Vec<Pair> = ranked.into_iter().map(|(p, _)| p).collect();
        for pair in &window {
            self.pending.remove(pair);
        }
        self.window = window.into_iter();
        self.window.next()
    }

    fn update(&mut self, pair: Pair, is_match: bool) {
        if is_match {
            self.new_matches.push(pair);
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

    fn run_window(
        c: &EntityCollection,
        sched: WindowScheduler,
        budget: Budget,
        truth: &GroundTruth,
    ) -> ProgressiveOutcome {
        let oracle = OracleMatcher::new(truth);
        run(c, &oracle, sched, budget, truth, &Obs::disabled())
    }

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    /// Truth clusters {0,1,2} and {4,5}; pair (0,2) starts with a low score
    /// but is influenced by (0,1) and (1,2). Distractor pairs carry middling
    /// scores.
    fn setup() -> (EntityCollection, GroundTruth, Vec<(Pair, f64)>) {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for i in 0..8 {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", format!("e{i}")));
        }
        let truth = GroundTruth::from_clusters(vec![vec![id(0), id(1), id(2)], vec![id(4), id(5)]]);
        let scored = vec![
            (Pair::new(id(0), id(1)), 0.9),
            (Pair::new(id(1), id(2)), 0.8),
            (Pair::new(id(0), id(2)), 0.1), // boosted by the two above
            (Pair::new(id(4), id(5)), 0.7),
            (Pair::new(id(6), id(7)), 0.5), // non-match distractor
            (Pair::new(id(3), id(6)), 0.4), // non-match distractor
        ];
        (c, truth, scored)
    }

    #[test]
    fn windows_execute_best_first() {
        let (c, truth, scored) = setup();
        let sched = WindowScheduler::new(
            &c,
            &scored,
            &[],
            SchedulerConfig {
                window_size: 2,
                influence_boost: 0.3,
            },
        );
        let out = run_window(&c, sched, Budget::Comparisons(2), &truth);
        assert_eq!(out.comparisons, 2);
        assert_eq!(
            out.matches,
            vec![Pair::new(id(0), id(1)), Pair::new(id(1), id(2))],
            "highest scored pairs first"
        );
    }

    #[test]
    fn influence_promotes_low_scored_true_pair() {
        let (c, truth, scored) = setup();
        let sched = WindowScheduler::new(
            &c,
            &scored,
            &[],
            SchedulerConfig {
                window_size: 2,
                influence_boost: 0.5,
            },
        );
        // Window 1: (0,1), (1,2) → both match → (0,2) boosted twice:
        // 0.1 + 1.0 = 1.1. Window 2 then executes (0,2) and (4,5): all four
        // truth pairs in four comparisons, with zero wasted on distractors.
        let out = run_window(&c, sched, Budget::Comparisons(4), &truth);
        assert!(out.matches.contains(&Pair::new(id(0), id(2))));
        assert!(out.matches.contains(&Pair::new(id(4), id(5))));
        assert_eq!(
            out.curve.final_recall(),
            1.0,
            "all truth pairs in 4 comparisons"
        );
    }

    #[test]
    fn without_influence_the_low_pair_waits() {
        let (c, truth, scored) = setup();
        let sched = WindowScheduler::new(
            &c,
            &scored,
            &[],
            SchedulerConfig {
                window_size: 2,
                influence_boost: 0.0,
            },
        );
        let out = run_window(&c, sched, Budget::Comparisons(4), &truth);
        assert!(
            !out.matches.contains(&Pair::new(id(0), id(2))),
            "with no boost, distractors outrank the low-scored true pair"
        );
    }

    #[test]
    fn relational_influence_crosses_entity_boundaries() {
        let (c, truth, mut scored) = setup();
        // Pair (4,5) influences (6,7)… only when 4–6 are declared related.
        scored.push((Pair::new(id(3), id(7)), 0.45));
        let relations = vec![(id(4), id(6))];
        let sched = WindowScheduler::new(
            &c,
            &scored,
            &relations,
            SchedulerConfig {
                window_size: 1,
                influence_boost: 0.3,
            },
        );
        let out = run_window(&c, sched, Budget::Comparisons(3), &truth);
        // Window order: (0,1) 0.9 → match (influences (1,2),(0,2)).
        // (1,2) boosted to 1.1 → match. Third: (0,2) at 0.1+0.6=0.7 ties
        // (4,5) 0.7 — pair order breaks the tie toward (0,2).
        assert_eq!(out.comparisons, 3);
        assert!(out.matches.contains(&Pair::new(id(0), id(2))));
    }

    #[test]
    fn unlimited_budget_drains_all_candidates() {
        let (c, truth, scored) = setup();
        let sched = WindowScheduler::new(&c, &scored, &[], SchedulerConfig::default());
        let out = run_window(&c, sched, Budget::Unlimited, &truth);
        assert_eq!(out.comparisons, scored.len() as u64);
        // All scheduled truth pairs found; (0,2)… is in candidates: recall
        // 3/4 (the (4,5) pair is the 4th truth pair and is scheduled too).
        assert_eq!(out.curve.final_recall(), 1.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let (c, _, scored) = setup();
        let _ = WindowScheduler::new(
            &c,
            &scored,
            &[],
            SchedulerConfig {
                window_size: 0,
                influence_boost: 0.1,
            },
        );
    }
}
