//! BlockSplit-style load balancing for skewed blocks (Kolb et al., the
//! Dedoop line of work \[18\]).
//!
//! With Zipf-skewed tokens, a handful of blocks carry most comparisons; naive
//! block-per-task scheduling leaves all but one worker idle. BlockSplit cuts
//! an oversized block's members into segments and emits one *task* per
//! segment pair — `Self(i)` for within-segment comparisons and
//! `Cross(i, j)` for between-segment ones — so every task stays under a
//! comparison budget and the union of tasks covers exactly the block's pairs.
//!
//! No execution path schedules by these tasks: E4 reports the per-worker
//! loads they would give as its hardware-independent simulated speedup.

use er_blocking::block::Block;
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::pair::Pair;

/// A unit of comparison work derived from one block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Task {
    /// All pairs within one member segment.
    SelfSegment(Vec<EntityId>),
    /// All cross pairs between two segments.
    CrossSegment(Vec<EntityId>, Vec<EntityId>),
}

impl Task {
    /// Number of (mode-agnostic) pair slots in the task.
    pub fn comparisons(&self) -> u64 {
        match self {
            Task::SelfSegment(s) => {
                let n = s.len() as u64;
                n * n.saturating_sub(1) / 2
            }
            Task::CrossSegment(a, b) => a.len() as u64 * b.len() as u64,
        }
    }

    /// Enumerates the admissible pairs of the task.
    pub fn pairs(&self, collection: &EntityCollection) -> Vec<Pair> {
        match self {
            Task::SelfSegment(s) => {
                let mut out = Vec::new();
                for i in 0..s.len() {
                    for j in (i + 1)..s.len() {
                        if let Some(p) = collection.comparable_pair(s[i], s[j]) {
                            out.push(p);
                        }
                    }
                }
                out
            }
            Task::CrossSegment(a, b) => {
                let mut out = Vec::new();
                for &x in a {
                    for &y in b {
                        if let Some(p) = collection.comparable_pair(x, y) {
                            out.push(p);
                        }
                    }
                }
                out
            }
        }
    }
}

/// Splits one block into tasks of at most `max_comparisons` pair slots each
/// (small blocks become a single `SelfSegment` task).
pub fn split_block(block: &Block, max_comparisons: u64) -> Vec<Task> {
    assert!(max_comparisons >= 1);
    let members = block.entities();
    let n = members.len() as u64;
    if n * n.saturating_sub(1) / 2 <= max_comparisons {
        return vec![Task::SelfSegment(members.to_vec())];
    }
    // Segment size s: a self task has s(s−1)/2 pairs, a cross task s² pairs;
    // bound the larger (s²) by the budget.
    let seg = (max_comparisons as f64).sqrt().floor().max(1.0) as usize;
    let segments: Vec<Vec<EntityId>> = members.chunks(seg).map(|c| c.to_vec()).collect();
    let k = segments.len();
    let mut tasks = Vec::with_capacity(k * (k + 1) / 2);
    for i in 0..k {
        tasks.push(Task::SelfSegment(segments[i].clone()));
        for j in (i + 1)..k {
            tasks.push(Task::CrossSegment(segments[i].clone(), segments[j].clone()));
        }
    }
    tasks
}

/// Splits every block of a collection and greedily packs the tasks onto
/// `workers` queues (longest-processing-time-first), returning the per-worker
/// comparison loads — the quantity whose spread the load-balancing
/// experiments report.
pub fn balanced_loads(blocks: &[Block], max_comparisons: u64, workers: usize) -> Vec<u64> {
    assert!(workers >= 1);
    let mut tasks: Vec<u64> = blocks
        .iter()
        .flat_map(|b| split_block(b, max_comparisons))
        .map(|t| t.comparisons())
        .collect();
    tasks.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; workers];
    for t in tasks {
        let min = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| **l)
            .map(|(i, _)| i)
            .expect("workers >= 1");
        loads[min] += t;
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::KbId;
    use std::collections::BTreeSet;

    fn collection(n: usize) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..n {
            c.push(KbId(0), vec![]);
        }
        c
    }

    fn block(n: u32) -> Block {
        Block::new("b", (0..n).map(EntityId).collect())
    }

    #[test]
    fn small_block_is_one_task() {
        let tasks = split_block(&block(4), 10);
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].comparisons(), 6);
    }

    #[test]
    fn split_tasks_cover_exactly_the_block_pairs() {
        let c = collection(20);
        let b = block(20);
        let tasks = split_block(&b, 10);
        assert!(tasks.len() > 1);
        let mut seen: BTreeSet<Pair> = BTreeSet::new();
        let mut total = 0usize;
        for t in &tasks {
            assert!(
                t.comparisons() <= 10,
                "task over budget: {}",
                t.comparisons()
            );
            let pairs = t.pairs(&c);
            total += pairs.len();
            seen.extend(pairs);
        }
        let expected: BTreeSet<Pair> = b.pairs(&c).collect();
        assert_eq!(seen, expected, "coverage");
        assert_eq!(total, expected.len(), "no pair issued twice");
    }

    #[test]
    fn split_respects_budget_even_for_huge_blocks() {
        let tasks = split_block(&block(500), 100);
        for t in &tasks {
            assert!(t.comparisons() <= 100);
        }
        let total: u64 = tasks.iter().map(|t| t.comparisons()).sum();
        assert_eq!(total, 500 * 499 / 2);
    }

    #[test]
    fn balanced_loads_spread_work() {
        // One giant block; without splitting one worker would get everything.
        let blocks = vec![block(100)];
        let loads = balanced_loads(&blocks, 200, 4);
        let total: u64 = loads.iter().sum();
        assert_eq!(total, 100 * 99 / 2);
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(
            max - min <= 200,
            "spread must be within one task size: {loads:?}"
        );
    }

    #[test]
    fn unsplit_giant_block_is_unbalanced() {
        // The contrast case the experiment prints: budget ≥ block size keeps
        // the block whole and one worker carries it all.
        let blocks = vec![block(100), block(3), block(3)];
        let loads = balanced_loads(&blocks, u64::MAX, 4);
        let max = *loads.iter().max().unwrap();
        assert_eq!(max, 100 * 99 / 2);
        assert_eq!(loads.iter().filter(|&&l| l == 0).count(), 1);
    }
}
