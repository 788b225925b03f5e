//! Pay-as-you-go hints (Whang, Marmaros & Garcia-Molina \[26\]).
//!
//! A *hint* is a pre-computed structure that tells the resolver which
//! comparisons look most promising. The paper proposes three, all
//! implemented here as schedule generators:
//!
//! * **Sorted list of record pairs** — candidates ordered by descending
//!   match likelihood (here: any pair score, e.g. a meta-blocking weight or
//!   a cheap similarity).
//! * **Hierarchy of record partitions** — partitions of decreasing
//!   similarity threshold; traversing bottom-up resolves highly similar
//!   records first.
//! * **Ordered list of blocks** — blocks sorted by expected match density
//!   (ascending cardinality: small blocks are the most discriminative), with
//!   within-block pairs emitted block by block.

use er_blocking::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::matching::ThresholdMatcher;
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::profiles::TokenProfiles;
use er_core::similarity::SetMeasure;
use er_core::tokenize::Tokenizer;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// The one order every scheduler ranks scored pairs by: descending score,
/// ties by ascending pair, so schedules are deterministic. `total_cmp` makes
/// it total; scores are similarities and boosts, never NaN or −0.0.
pub fn best_first(a: &(Pair, f64), b: &(Pair, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Hint 1: candidate pairs sorted [`best_first`].
pub fn sorted_pair_list(scored: &[(Pair, f64)]) -> Vec<Pair> {
    let mut v: Vec<(Pair, f64)> = scored.to_vec();
    v.sort_by(best_first);
    v.into_iter().map(|(p, _)| p).collect()
}

/// Scores candidate pairs with a cheap token-set measure — the standard way
/// to materialize the sorted-list hint when no meta-blocking weights exist.
/// The scores are the matching kernel's: one tokenization of the collection,
/// then [`score_pairs_on`] its profiles.
pub fn score_pairs(
    collection: &EntityCollection,
    candidates: &[Pair],
    measure: SetMeasure,
) -> Vec<(Pair, f64)> {
    let tokenizer = Tokenizer::default();
    let profiles = TokenProfiles::build(collection, &tokenizer, Parallelism::serial());
    score_pairs_on(&profiles, candidates, measure)
}

/// [`score_pairs`] on the collection's default-tokenizer profiles, already
/// built — a pipeline run scores its schedule from the profiles that
/// blocked it.
pub fn score_pairs_on(
    profiles: &TokenProfiles,
    candidates: &[Pair],
    measure: SetMeasure,
) -> Vec<(Pair, f64)> {
    let scorer = ThresholdMatcher::new(measure, 0.0).prepare_on(profiles);
    candidates
        .iter()
        .map(|&p| (p, scorer.decide(p).score))
        .collect()
}

/// Hint 2: a hierarchy of partitions. Level `ℓ` groups records whose
/// pairwise score reaches `thresholds[ℓ]` (thresholds strictly descending).
/// The schedule walks the hierarchy bottom-up: pairs first co-partitioned at
/// the tightest threshold are compared first.
#[derive(Clone, Debug)]
pub struct PartitionHierarchy {
    /// `levels[ℓ]` = pairs first appearing at threshold `thresholds[ℓ]`.
    levels: Vec<Vec<Pair>>,
    thresholds: Vec<f64>,
}

impl PartitionHierarchy {
    /// Builds the hierarchy from scored candidate pairs.
    ///
    /// # Panics
    /// Panics if `thresholds` is empty or not strictly descending.
    pub fn build(scored: &[(Pair, f64)], thresholds: &[f64]) -> Self {
        assert!(!thresholds.is_empty(), "need at least one threshold");
        assert!(
            thresholds.windows(2).all(|w| w[0] > w[1]),
            "thresholds must be strictly descending"
        );
        let mut levels: Vec<Vec<Pair>> = vec![Vec::new(); thresholds.len()];
        for &(p, s) in scored {
            if let Some(level) = thresholds.iter().position(|&t| s >= t) {
                levels[level].push(p);
            }
            // Pairs below the loosest threshold are not scheduled at all —
            // the hierarchy is also a pruning device.
        }
        for l in &mut levels {
            l.sort();
        }
        PartitionHierarchy {
            levels,
            thresholds: thresholds.to_vec(),
        }
    }

    /// The thresholds of the hierarchy, tightest first.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Pairs introduced at a level (0 = tightest).
    pub fn level(&self, l: usize) -> &[Pair] {
        &self.levels[l]
    }

    /// The bottom-up schedule over all levels.
    pub fn schedule(&self) -> Vec<Pair> {
        self.levels.iter().flatten().copied().collect()
    }
}

/// Hint 3: blocks ordered by expected match density — ascending comparison
/// cardinality (small blocks first), ties by key — with within-block pairs
/// emitted block by block, deduplicated across blocks.
pub fn ordered_blocks_schedule(
    collection: &EntityCollection,
    blocks: &BlockCollection,
) -> Vec<Pair> {
    let mut order: Vec<(u64, &er_blocking::block::Block)> = blocks
        .blocks()
        .iter()
        .map(|b| (b.comparisons(collection), b))
        .collect();
    order.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.key().cmp(b.1.key())));
    let mut seen: BTreeSet<Pair> = BTreeSet::new();
    let mut out = Vec::new();
    for (_, b) in order {
        for p in b.pairs(collection) {
            if seen.insert(p) {
                out.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::block::Block;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityBuilder, EntityId, KbId};
    use er_core::ground_truth::GroundTruth;
    use er_core::matching::OracleMatcher;
    use er_core::obs::Obs;

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    #[test]
    fn sorted_pair_list_orders_descending() {
        let scored = vec![
            (Pair::new(id(0), id(1)), 0.2),
            (Pair::new(id(2), id(3)), 0.9),
            (Pair::new(id(4), id(5)), 0.5),
        ];
        let schedule = sorted_pair_list(&scored);
        assert_eq!(
            schedule,
            vec![
                Pair::new(id(2), id(3)),
                Pair::new(id(4), id(5)),
                Pair::new(id(0), id(1)),
            ]
        );
    }

    #[test]
    fn score_pairs_uses_token_similarity() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "alpha beta"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "alpha beta"));
        c.push_entity(KbId(0), EntityBuilder::new().attr("n", "gamma delta"));
        let scored = score_pairs(
            &c,
            &[Pair::new(id(0), id(1)), Pair::new(id(0), id(2))],
            SetMeasure::Jaccard,
        );
        assert!(scored[0].1 > scored[1].1);
        assert_eq!(scored[0].1, 1.0);
        assert_eq!(scored[1].1, 0.0);
    }

    #[test]
    fn hierarchy_levels_partition_by_threshold() {
        let scored = vec![
            (Pair::new(id(0), id(1)), 0.95),
            (Pair::new(id(2), id(3)), 0.7),
            (Pair::new(id(4), id(5)), 0.4),
            (Pair::new(id(6), id(7)), 0.05),
        ];
        let h = PartitionHierarchy::build(&scored, &[0.9, 0.6, 0.3]);
        assert_eq!(h.level(0), &[Pair::new(id(0), id(1))]);
        assert_eq!(h.level(1), &[Pair::new(id(2), id(3))]);
        assert_eq!(h.level(2), &[Pair::new(id(4), id(5))]);
        // 0.05 falls below the loosest threshold: pruned.
        assert_eq!(h.schedule().len(), 3);
        assert_eq!(h.schedule()[0], Pair::new(id(0), id(1)));
    }

    #[test]
    #[should_panic(expected = "descending")]
    fn hierarchy_rejects_unsorted_thresholds() {
        let _ = PartitionHierarchy::build(&[], &[0.5, 0.9]);
    }

    #[test]
    fn ordered_blocks_emits_small_blocks_first() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..5 {
            c.push(KbId(0), vec![]);
        }
        let blocks = BlockCollection::new(vec![
            Block::new("big", vec![id(0), id(1), id(2), id(3)]),
            Block::new("small", vec![id(3), id(4)]),
        ]);
        let schedule = ordered_blocks_schedule(&c, &blocks);
        assert_eq!(schedule[0], Pair::new(id(3), id(4)), "small block first");
        assert_eq!(schedule.len(), 7, "6 big-block pairs + 1 small, deduped");
    }

    #[test]
    fn ordered_blocks_deduplicates_across_blocks() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..3 {
            c.push(KbId(0), vec![]);
        }
        let blocks = BlockCollection::new(vec![
            Block::new("a", vec![id(0), id(1)]),
            Block::new("b", vec![id(0), id(1), id(2)]),
        ]);
        let schedule = ordered_blocks_schedule(&c, &blocks);
        assert_eq!(schedule.len(), 3);
        assert_eq!(
            schedule
                .iter()
                .filter(|p| **p == Pair::new(id(0), id(1)))
                .count(),
            1
        );
    }

    #[test]
    fn ordered_blocks_schedule_respects_budget() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..6 {
            c.push(KbId(0), vec![]);
        }
        let truth = GroundTruth::from_pairs([Pair::new(id(0), id(1))]);
        let blocks = BlockCollection::new(vec![Block::new("all", (0..6).map(id).collect())]);
        let out = crate::run(
            &c,
            &OracleMatcher::new(&truth),
            ordered_blocks_schedule(&c, &blocks).into_iter(),
            crate::Budget::Comparisons(4),
            &truth,
            &Obs::disabled(),
        );
        assert_eq!(out.comparisons, 4);
    }
}
