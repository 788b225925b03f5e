//! Memory-governed admission of a blocking collection.
//!
//! The token inverted index *is* the blocking collection: every block holds a
//! key string plus its posting list of entity ids, so charging the blocks
//! against a byte budget charges the index itself. On a skewed, web-scale
//! collection one stop-word key can concentrate most of the index in a
//! single oversized block — exactly the blocks block purging (§II) drops
//! first, because their enormous comparison cardinality carries almost no
//! matching evidence per pair.
//!
//! [`charge_or_shed`] makes that degradation *budget-driven*: it reserves
//! the collection's estimated footprint against a [`MemoryBudget`] and, when
//! the reservation fails, sheds blocks **largest-comparisons-first**
//! (deterministic tie-break on block order) until the remainder fits. The
//! recall loss is explicit, never silent: shed block and comparison counts
//! are returned, mirrored as `blocking.blocks_shed` /
//! `blocking.comparisons_shed` counters, and announced as a structured
//! warning event.

use crate::block::{Block, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::obs::{Event, Obs};
use er_core::resource::MemoryBudget;

/// Estimated resident footprint of one block: fixed struct overhead, the
/// key's heap payload, a 4-byte entity id per posting entry, **plus the
/// block's share of the interner** that backs the compact build, charged as
/// `2 * key + 68` bytes — omitting it undercounts admission cost on
/// token-heavy corpora where the dictionary rivals the posting lists.
///
/// That share is conservative: the
/// [`Interner`](er_core::intern::Interner) keeps each key once, in its
/// arena, plus a 4-byte span end and two to four 8-byte table slots (past
/// its first 16 slots the table is between a quarter and half full) — at
/// most `key + 36` bytes. The formula stays as it is, byte for byte, because shed
/// decisions, and the locks that pin them, depend on it.
pub fn block_bytes(block: &Block) -> u64 {
    let key = block.key().len() as u64;
    48 + key + 4 * block.entities().len() as u64 + (2 * key + 68)
}

/// A blocking collection admitted under a memory budget.
#[derive(Clone, Debug)]
pub struct GovernedBlocks {
    /// The admitted blocks (all of them when the budget held).
    pub blocks: BlockCollection,
    /// Bytes actually reserved against the budget for the admitted blocks.
    pub reserved_bytes: u64,
    /// Blocks shed to fit the budget (0 on the fault-free path).
    pub shed_blocks: u64,
    /// Aggregate comparisons carried by the shed blocks — the explicit,
    /// reported recall-loss currency.
    pub shed_comparisons: u64,
}

impl GovernedBlocks {
    /// Whether admission had to shed anything.
    pub fn degraded(&self) -> bool {
        self.shed_blocks > 0
    }
}

/// Charges `blocks` against `budget`, shedding oversized blocks
/// largest-comparisons-first until the remainder fits.
///
/// On a disabled budget this is a no-op wrapper (nothing reserved, nothing
/// shed). Shedding is deterministic: blocks are dropped in descending
/// comparison cardinality, ties broken by position in the collection, and
/// the survivors keep their original order — so a governed run is a pure
/// function of (collection, blocks, limit), independent of thread count.
pub fn charge_or_shed(
    blocks: BlockCollection,
    collection: &EntityCollection,
    budget: &MemoryBudget,
    obs: &Obs,
) -> GovernedBlocks {
    if !budget.is_enabled() {
        return GovernedBlocks {
            blocks,
            reserved_bytes: 0,
            shed_blocks: 0,
            shed_comparisons: 0,
        };
    }
    let sizes: Vec<u64> = blocks.blocks().iter().map(block_bytes).collect();
    let mut total: u64 = sizes.iter().sum();
    if budget.try_reserve("blocking", total).is_ok() {
        return GovernedBlocks {
            blocks,
            reserved_bytes: total,
            shed_blocks: 0,
            shed_comparisons: 0,
        };
    }
    // Budget breach: shed largest-first. Sort once by (comparisons desc,
    // index asc); then peel from the front until the remainder reserves.
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    let cardinalities: Vec<u64> = blocks
        .blocks()
        .iter()
        .map(|b| b.comparisons(collection))
        .collect();
    order.sort_by(|&a, &b| cardinalities[b].cmp(&cardinalities[a]).then(a.cmp(&b)));
    let mut dropped = vec![false; blocks.len()];
    let mut shed_blocks = 0u64;
    let mut shed_comparisons = 0u64;
    let mut reserved = 0u64;
    let mut peel = order.into_iter();
    loop {
        if budget.try_reserve("blocking", total).is_ok() {
            reserved = total;
            break;
        }
        match peel.next() {
            Some(i) => {
                dropped[i] = true;
                shed_blocks += 1;
                shed_comparisons += cardinalities[i];
                total -= sizes[i];
            }
            // Even an empty collection failed to reserve: the budget is
            // already exhausted by other stages; admit nothing.
            None => break,
        }
    }
    let kept: Vec<Block> = blocks
        .into_blocks()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !dropped[*i])
        .map(|(_, b)| b)
        .collect();
    obs.counter("blocking.blocks_shed").add(shed_blocks);
    obs.counter("blocking.comparisons_shed")
        .add(shed_comparisons);
    obs.emit(Event::Warning {
        stage: "blocking".to_string(),
        reason: format!(
            "memory budget breach: shed {shed_blocks} oversized block(s) \
             carrying {shed_comparisons} comparison(s) to fit {} byte(s)",
            budget.limit().unwrap_or(0)
        ),
    });
    GovernedBlocks {
        blocks: BlockCollection::new(kept),
        reserved_bytes: reserved,
        shed_blocks,
        shed_comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::collection::ResolutionMode;
    use er_core::entity::{EntityId, KbId};
    use er_core::obs::CaptureSink;

    fn id(n: u32) -> EntityId {
        EntityId(n)
    }

    fn dirty_collection(n: usize) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..n {
            c.push(KbId(0), vec![]);
        }
        c
    }

    /// One giant stop-word block plus two small discriminative ones.
    fn skewed_blocks() -> BlockCollection {
        BlockCollection::new(vec![
            Block::new("the", (0..40).map(id).collect()),
            Block::new("rare1", vec![id(0), id(1)]),
            Block::new("rare2", vec![id(2), id(3)]),
        ])
    }

    #[test]
    fn disabled_budget_is_a_no_op() {
        let c = dirty_collection(40);
        let blocks = skewed_blocks();
        let g = charge_or_shed(
            blocks.clone(),
            &c,
            &MemoryBudget::unlimited(),
            &Obs::disabled(),
        );
        assert_eq!(g.blocks, blocks);
        assert_eq!(g.reserved_bytes, 0);
        assert!(!g.degraded());
    }

    #[test]
    fn fitting_budget_reserves_without_shedding() {
        let c = dirty_collection(40);
        let blocks = skewed_blocks();
        let budget = MemoryBudget::bytes(1 << 20);
        let g = charge_or_shed(blocks.clone(), &c, &budget, &Obs::disabled());
        assert_eq!(g.blocks, blocks);
        assert!(g.reserved_bytes > 0);
        assert_eq!(budget.used(), g.reserved_bytes);
        assert!(!g.degraded());
    }

    #[test]
    fn breach_sheds_largest_blocks_first_and_reports() {
        let c = dirty_collection(40);
        let blocks = skewed_blocks();
        // Big enough for the two small blocks, too small for the giant one.
        let budget = MemoryBudget::bytes(300);
        let obs = Obs::enabled();
        let sink = std::sync::Arc::new(CaptureSink::new());
        obs.set_sink(sink.clone());
        let g = charge_or_shed(blocks, &c, &budget, &obs);
        assert_eq!(g.shed_blocks, 1, "only the stop-word block is shed");
        assert_eq!(g.shed_comparisons, 40 * 39 / 2);
        assert_eq!(g.blocks.len(), 2);
        assert!(g.blocks.by_key("the").is_none());
        assert!(g.blocks.by_key("rare1").is_some());
        assert_eq!(budget.used(), g.reserved_bytes);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("blocking.blocks_shed"), Some(1));
        assert_eq!(snap.counter("blocking.comparisons_shed"), Some(780));
        assert!(sink
            .events()
            .iter()
            .any(|e| e.to_string().contains("memory budget breach")));
    }

    #[test]
    fn exhausted_budget_admits_nothing_but_never_panics() {
        let c = dirty_collection(40);
        let budget = MemoryBudget::bytes(1);
        let g = charge_or_shed(skewed_blocks(), &c, &budget, &Obs::disabled());
        assert_eq!(g.blocks.len(), 0);
        assert_eq!(g.shed_blocks, 3);
        assert!(g.reserved_bytes <= 1);
    }

    #[test]
    fn shedding_is_deterministic_under_ties() {
        let c = dirty_collection(10);
        let blocks = BlockCollection::new(vec![
            Block::new("a", vec![id(0), id(1)]),
            Block::new("b", vec![id(2), id(3)]),
            Block::new("c", vec![id(4), id(5)]),
        ]);
        let sized: u64 = blocks.blocks().iter().map(block_bytes).sum();
        // Room for exactly two of the three equal-cardinality blocks: the
        // first in block order ("a") is shed.
        let budget = MemoryBudget::bytes(sized - 1);
        let g = charge_or_shed(blocks, &c, &budget, &Obs::disabled());
        assert_eq!(g.shed_blocks, 1);
        assert!(g.blocks.by_key("a").is_none());
        assert!(g.blocks.by_key("b").is_some() && g.blocks.by_key("c").is_some());
    }
}
