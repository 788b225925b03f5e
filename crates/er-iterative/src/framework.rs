//! The generic iterative-ER skeleton (Herschel et al. \[16\]).
//!
//! An ER process is *iterative* when the handling of one pair can change
//! which pairs are considered next. The skeleton is always the same —
//!
//! 1. **initialization**: seed a queue with candidate pairs (from blocking,
//!    from exhaustive similarity, or hand-picked by an expert), optionally
//!    prioritized;
//! 2. **iteration**: pop the best pair, compare it, and let an *update hook*
//!    react to the decision by enqueueing new pairs or re-prioritizing
//!    existing ones;
//! 3. terminate when the queue is empty or a stopping rule fires — the
//!    bridge to progressive ER, §IV.
//!
//! That is Fig. 1's scheduling → matching → update loop with the queue as
//! the scheduler and the hook as its update phase, so the iteration is
//! [`er_progressive::run`]: budgets, stopping rules, the recall curve and the
//! `progressive.*` metrics apply to it as to every progressive method.
//!
//! Merging-based and relationship-based methods differ only in their update
//! hooks, which is exactly how the tutorial contrasts them.

use er_core::collection::EntityCollection;
use er_core::ground_truth::GroundTruth;
use er_core::matching::Matcher;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_progressive::hints::best_first;
use er_progressive::{ProgressiveOutcome, Scheduler, StoppingRule};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// A prioritized queue of candidate pairs that never yields the same pair
/// twice (re-inserting an already-seen pair is a no-op, matching the
/// framework's "do not re-compare" rule; revision of past decisions is
/// modeled by the update hook instead).
#[derive(Clone, Debug, Default)]
pub struct PairQueue {
    heap: BinaryHeap<Queued>,
    seen: BTreeSet<Pair>,
}

impl PairQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a pair with a priority (higher pops first, ties by ascending
    /// pair). Returns `false` if the pair was already enqueued at some point.
    pub fn push(&mut self, pair: Pair, priority: f64) -> bool {
        if !self.seen.insert(pair) {
            return false;
        }
        self.heap.push(Queued((pair, priority)));
        true
    }

    /// Pops the highest-priority pair.
    pub fn pop(&mut self) -> Option<(Pair, f64)> {
        self.heap.pop().map(|Queued(entry)| entry)
    }

    /// Pairs currently waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the pair has ever been enqueued.
    pub fn was_seen(&self, pair: Pair) -> bool {
        self.seen.contains(&pair)
    }
}

/// A waiting pair, ordered so the max-heap pops [`best_first`].
#[derive(Clone, Copy, Debug)]
struct Queued((Pair, f64));

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        best_first(&other.0, &self.0)
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Queued {}

/// Statistics of an iterative run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterationStats {
    /// Pairs compared.
    pub comparisons: u64,
    /// Pairs declared matches.
    pub matches: u64,
    /// Pairs enqueued by update hooks after initialization.
    pub discovered: u64,
}

impl IterationStats {
    /// Mirrors these counters into an observability registry under the
    /// `iterative.*` names (cumulative across runs). No-op on a disabled
    /// handle.
    pub fn record_obs(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("iterative.comparisons").add(self.comparisons);
        obs.counter("iterative.matches").add(self.matches);
        obs.counter("iterative.discovered").add(self.discovered);
    }
}

/// The iterative resolver: owns the queue the loop schedules from.
pub struct IterativeResolver<'a, M> {
    collection: &'a EntityCollection,
    matcher: &'a M,
    queue: PairQueue,
    initial_seen: usize,
}

impl<'a, M: Matcher> IterativeResolver<'a, M> {
    /// Initialization phase: seeds the queue from `(pair, priority)` pairs.
    pub fn new<I>(collection: &'a EntityCollection, matcher: &'a M, seeds: I) -> Self
    where
        I: IntoIterator<Item = (Pair, f64)>,
    {
        let mut queue = PairQueue::new();
        for (p, prio) in seeds {
            queue.push(p, prio);
        }
        let initial_seen = queue.seen.len();
        IterativeResolver {
            collection,
            matcher,
            queue,
            initial_seen,
        }
    }

    /// Iterative phase: pops pairs until the queue drains or `stop` fires,
    /// invoking `on_decision(pair, is_match, queue)` after every comparison
    /// so the strategy can enqueue newly relevant pairs. Returns the run's
    /// outcome (matches in discovery order, recall curve against `truth` —
    /// pass an empty one when there is none) and its statistics.
    pub fn run<F, R>(
        mut self,
        on_decision: F,
        stop: R,
        truth: &GroundTruth,
        obs: &Obs,
    ) -> (ProgressiveOutcome, IterationStats)
    where
        F: FnMut(Pair, bool, &mut PairQueue),
        R: StoppingRule,
    {
        let schedule = QueueSchedule {
            queue: &mut self.queue,
            on_decision,
        };
        let out = er_progressive::run(self.collection, self.matcher, schedule, stop, truth, obs);
        let stats = IterationStats {
            comparisons: out.comparisons,
            matches: out.matches.len() as u64,
            discovered: (self.queue.seen.len() - self.initial_seen) as u64,
        };
        (out, stats)
    }
}

/// The §III scheduler: the queue yields, the hook updates.
struct QueueSchedule<'q, F> {
    queue: &'q mut PairQueue,
    on_decision: F,
}

impl<F: FnMut(Pair, bool, &mut PairQueue)> Scheduler for QueueSchedule<'_, F> {
    fn next_pair(&mut self) -> Option<Pair> {
        self.queue.pop().map(|(pair, _)| pair)
    }

    fn update(&mut self, pair: Pair, is_match: bool) {
        (self.on_decision)(pair, is_match, self.queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::matching::ThresholdMatcher;
    use er_core::similarity::SetMeasure;
    use er_progressive::Budget;

    fn no_truth() -> GroundTruth {
        GroundTruth::from_pairs([])
    }

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    #[test]
    fn queue_orders_by_priority_then_pair() {
        let mut q = PairQueue::new();
        q.push(Pair::new(id(0), id(1)), 0.5);
        q.push(Pair::new(id(2), id(3)), 0.9);
        q.push(Pair::new(id(4), id(5)), 0.9);
        assert_eq!(q.len(), 3);
        // Equal priorities: smaller pair first (deterministic).
        assert_eq!(q.pop().unwrap().0, Pair::new(id(2), id(3)));
        assert_eq!(q.pop().unwrap().0, Pair::new(id(4), id(5)));
        assert_eq!(q.pop().unwrap().0, Pair::new(id(0), id(1)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn queue_rejects_duplicates_forever() {
        let mut q = PairQueue::new();
        let p = Pair::new(id(0), id(1));
        assert!(q.push(p, 1.0));
        assert!(!q.push(p, 2.0));
        q.pop();
        assert!(!q.push(p, 3.0), "popped pairs cannot return");
        assert!(q.was_seen(p));
    }

    #[test]
    fn resolver_drains_queue_and_counts() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "alpha beta"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "alpha beta"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "gamma delta"));
        let m = ThresholdMatcher::new(SetMeasure::Jaccard, 0.8);
        let seeds = c.all_pairs().into_iter().map(|p| (p, 1.0));
        let resolver = IterativeResolver::new(&c, &m, seeds);
        let (out, stats) = resolver.run(
            |_, _, _| {},
            Budget::Unlimited,
            &no_truth(),
            &Obs::disabled(),
        );
        assert_eq!(out.matches, vec![Pair::new(id(0), id(1))]);
        assert_eq!(stats.comparisons, 3);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.discovered, 0);
    }

    #[test]
    fn update_hook_discovers_new_pairs() {
        // Seed only (0,1); the hook enqueues (1,2) after any decision, and
        // (0,2) after that — a miniature relationship-based iteration.
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..3 {
            c.push_entity(KbId(0), EntityBuilder::new().attr("n", "same tokens"));
        }
        let m = ThresholdMatcher::new(SetMeasure::Jaccard, 0.5);
        let resolver = IterativeResolver::new(&c, &m, vec![(Pair::new(id(0), id(1)), 1.0)]);
        let discover = |pair: Pair, is_match: bool, q: &mut PairQueue| {
            if is_match {
                for next in [Pair::new(id(1), id(2)), Pair::new(id(0), id(2))] {
                    if next != pair {
                        q.push(next, 0.5);
                    }
                }
            }
        };
        let (out, stats) = resolver.run(discover, Budget::Unlimited, &no_truth(), &Obs::disabled());
        assert_eq!(out.matches.len(), 3, "iteration reaches the whole cluster");
        assert_eq!(stats.comparisons, 3);
        assert_eq!(stats.discovered, 2);

        // The same iteration under a budget, against ground truth, observed:
        // what the module doc calls the bridge to progressive ER.
        let truth = GroundTruth::from_clusters(vec![vec![id(0), id(1), id(2)]]);
        let obs = Obs::enabled();
        let resolver = IterativeResolver::new(&c, &m, vec![(Pair::new(id(0), id(1)), 1.0)]);
        let (out, stats) = resolver.run(discover, Budget::Comparisons(2), &truth, &obs);
        assert_eq!(stats.comparisons, 2);
        assert_eq!(stats.discovered, 2, "discovered but not all compared");
        assert!((out.curve.final_recall() - 2.0 / 3.0).abs() < 1e-12);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("progressive.comparisons_consumed"), Some(2));
        assert_eq!(snap.counter("progressive.matches_emitted"), Some(2));
    }
}
