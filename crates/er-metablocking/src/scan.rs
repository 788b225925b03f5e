//! Node-centric meta-blocking: weigh and prune neighbourhood by
//! neighbourhood, straight from the entity→blocks index.
//!
//! The blocking graph is never materialised. For each entity the scan walks
//! the blocks that contain it, accumulates every co-occurring neighbour's
//! `common_blocks` and ARCS in a dense per-entity scratch array (reset
//! through a touched-list), weighs the neighbourhood, and judges it on the
//! spot. Memory is O(entities + postings + largest neighbourhood + kept
//! pairs); nodes are independent, so the parallel path hands contiguous node
//! ranges to workers and only concatenates what they return.
//!
//! **Bit-identical to [`BlockingGraph::par_build`] +
//! [`PruningScheme::par_prune`]** for every pruning × weighting pair, at
//! every thread count. Integer statistics are order-free; two `f64` folds are
//! not, and the scan pins both (see `docs/data_layout.md`):
//!
//! * a pair's **ARCS** is folded as the graph folds it — contributions in
//!   block order inside each `CHUNK_BLOCKS = 32` chunk, then the chunk
//!   partials left to right (`Slot`);
//! * a neighbourhood's **mean**, and the global WEP mean, are summed over
//!   neighbours in ascending id order — the order of the pair-sorted edge
//!   list (`NodeRule::survivors`).
//!
//! [`BlockingGraph::par_build`]: crate::graph::BlockingGraph::par_build

use crate::graph::{EdgeInfo, CHUNK_BLOCKS};
use crate::pruning::{balanced_ranges, csr_offsets, merge_survivors, NodeRule, PruningScheme};
use crate::weights::{NodeStats, WeightingScheme};
use er_blocking::block::{Block, BlockCollection};
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::EntityId;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::{par_map, Parallelism};
use std::ops::Range;

/// The outcome of [`node_scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pruned {
    /// The retained comparisons, in canonical pair order.
    pub kept: Vec<Pair>,
    /// Distinct blocked comparisons the scheme chose from — the number of
    /// edges the blocking graph of the same blocks would hold.
    pub blocked_comparisons: u64,
}

/// Meta-blocking in one call: restructures `blocks` into the comparisons
/// that `pruning` retains under `weighting`, without building the graph.
///
/// Records into `obs` (no-op when disabled) the edges weighted
/// (`meta_blocking.edges_weighted`), the comparisons before and after
/// pruning and their difference (`meta_blocking.comparisons_{before,after,
/// pruned}`), the `meta_blocking.pruning_ratio` gauge (pruned / before), the
/// block-pair occurrences folded into edges (`meta_blocking.contributions` =
/// `Σ ‖b‖`) and the `meta_blocking.max_neighbourhood` gauge (the largest
/// node degree, which sizes the scan's per-node work lists).
pub fn node_scan(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    pruning: PruningScheme,
    par: Parallelism,
    obs: &Obs,
) -> Pruned {
    let mut index = Index::build(collection, blocks, weighting);
    let ranges = index.node_ranges(par.effective());
    match weighting {
        WeightingScheme::Ecbs => {
            let total = blocks.len() as f64;
            index.discounts = (0..collection.len())
                .map(|u| WeightingScheme::node_discount(total, index.block_count(u)))
                .collect();
        }
        WeightingScheme::Ejs => {
            // The degree pre-pass: EJS discounts by node degree and edge
            // count, which only a full walk knows.
            let degrees = par_map(par, &ranges, |nodes| {
                let mut degrees = Vec::with_capacity(nodes.len());
                index.walk(nodes.clone(), |_, neighbours, _| {
                    degrees.push(neighbours.len() as u32)
                });
                degrees
            })
            .concat();
            let edges = degrees.iter().map(|&d| d as usize).sum::<usize>() / 2;
            let total = edges.max(1) as f64;
            index.discounts = degrees
                .iter()
                .map(|&d| WeightingScheme::node_discount(total, d))
                .collect();
        }
        _ => {}
    }
    let assignments = blocks.assignments();
    let (kept, tally) = match NodeRule::of(pruning, assignments, collection.len()) {
        Some(rule) => index.prune_nodes(rule, pruning.is_reciprocal(), &ranges, par),
        None => index.prune_edges(pruning, assignments, &ranges, par),
    };
    if obs.is_enabled() {
        let before = tally.blocked;
        let after = kept.len() as u64;
        let pruned = before.saturating_sub(after);
        obs.counter("meta_blocking.edges_weighted").add(before);
        obs.counter("meta_blocking.comparisons_before").add(before);
        obs.counter("meta_blocking.comparisons_after").add(after);
        obs.counter("meta_blocking.comparisons_pruned").add(pruned);
        obs.counter("meta_blocking.contributions")
            .add(index.contributions);
        obs.gauge("meta_blocking.pruning_ratio")
            .set(if before == 0 {
                0.0
            } else {
                pruned as f64 / before as f64
            });
        obs.gauge("meta_blocking.max_neighbourhood")
            .set(tally.max_neighbourhood as f64);
    }
    Pruned {
        kept,
        blocked_comparisons: tally.blocked,
    }
}

/// Per-neighbour accumulator of the node being scanned.
///
/// `total` / `partial` / `chunk_of` replay the graph build's two-level ARCS
/// fold: `partial` sums the contributions of the blocks of chunk `chunk_of`
/// in block order, and moving on to a later chunk adds it to `total` — the
/// left-to-right merge of chunk partials. `total` starts at `0.0`, and
/// `0.0 + x == x` bitwise for the strictly positive contributions, so a
/// pair's ARCS is `total + partial` whether it spans one chunk or many.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Shared blocks so far; `0` marks a slot no block has touched.
    common: u32,
    chunk_of: u32,
    total: f64,
    partial: f64,
}

/// What one walk over a node range counted.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Neighbours `v > u`, over all nodes `u`: each edge once.
    blocked: u64,
    max_neighbourhood: usize,
}

impl Tally {
    fn merge(self, other: Tally) -> Tally {
        Tally {
            blocked: self.blocked + other.blocked,
            max_neighbourhood: self.max_neighbourhood.max(other.max_neighbourhood),
        }
    }
}

/// The edge-centric criterion, resolved against the global weight list:
/// keep an edge above `threshold`, and the first `ties` (in pair order) at it.
#[derive(Clone, Copy)]
struct EdgeRule {
    threshold: f64,
    ties: usize,
}

/// Everything the walk reads: the blocks, their CSR transpose, and the
/// node-level inputs of the weighting scheme.
struct Index<'a> {
    blocks: &'a [Block],
    /// CSR entity → ids of the blocks containing it, ascending (the walk
    /// must meet a pair's blocks in the graph's fold order).
    offsets: Vec<usize>,
    block_ids: Vec<u32>,
    /// `1/‖b‖` per block; `0.0` marks a block without an admissible pair.
    inv_card: Vec<f64>,
    /// `Σ ‖b‖`: block-pair occurrences, i.e. raw edge contributions.
    contributions: u64,
    /// Clean–clean only: each entity's KB (pairs inside one KB are not
    /// admissible). Empty in dirty mode, where only `u == v` is excluded.
    kbs: Vec<u16>,
    weighting: WeightingScheme,
    /// Per-node ECBS / EJS discount; `1.0` (unread) for the other schemes.
    discounts: Vec<f64>,
}

impl<'a> Index<'a> {
    fn build(
        collection: &EntityCollection,
        blocks: &'a BlockCollection,
        weighting: WeightingScheme,
    ) -> Self {
        let n = collection.len();
        let blocks = blocks.blocks();
        let members = blocks.iter().flat_map(|b| b.entities());
        let offsets = csr_offsets(n, members.map(|e| e.index()));
        let mut cursor = offsets.clone();
        let mut block_ids = vec![0u32; offsets[n]];
        let mut contributions = 0u64;
        let mut inv_card = Vec::with_capacity(blocks.len());
        for (bi, b) in blocks.iter().enumerate() {
            for e in b.entities() {
                let at = &mut cursor[e.index()];
                block_ids[*at] = bi as u32;
                *at += 1;
            }
            let card = b.comparisons(collection);
            contributions += card;
            inv_card.push(if card == 0 { 0.0 } else { 1.0 / card as f64 });
        }
        let kbs = match collection.mode() {
            ResolutionMode::Dirty => Vec::new(),
            ResolutionMode::CleanClean => collection.iter().map(|e| e.kb().0).collect(),
        };
        Index {
            blocks,
            offsets,
            block_ids,
            inv_card,
            contributions,
            kbs,
            weighting,
            discounts: vec![1.0; n],
        }
    }

    /// Number of blocks containing entity `u`.
    fn block_count(&self, u: usize) -> u32 {
        (self.offsets[u + 1] - self.offsets[u]) as u32
    }

    /// Contiguous node ranges of near-equal walk cost (a node costs the
    /// total size of its blocks), one per worker.
    fn node_ranges(&self, parts: usize) -> Vec<Range<usize>> {
        let mut cumulative = Vec::with_capacity(self.offsets.len());
        let mut cost = 0usize;
        cumulative.push(cost);
        for row in self.offsets.windows(2) {
            cost += self.block_ids[row[0]..row[1]]
                .iter()
                .map(|&bi| self.blocks[bi as usize].len())
                .sum::<usize>();
            cumulative.push(cost);
        }
        balanced_ranges(&cumulative, parts)
    }

    /// Visits every node of `nodes` with its neighbours (ascending ids) and
    /// the scratch slots holding their accumulated co-occurrence statistics.
    fn walk(&self, nodes: Range<usize>, mut visit: impl FnMut(usize, &[u32], &[Slot])) -> Tally {
        let mut slots = vec![Slot::default(); self.offsets.len() - 1];
        let mut touched: Vec<u32> = Vec::new();
        let mut tally = Tally::default();
        for u in nodes {
            let kb_u = self.kbs.get(u);
            for &bi in &self.block_ids[self.offsets[u]..self.offsets[u + 1]] {
                let w = self.inv_card[bi as usize];
                if w == 0.0 {
                    continue;
                }
                let chunk = bi / CHUNK_BLOCKS as u32;
                for &EntityId(v) in self.blocks[bi as usize].entities() {
                    let admissible = match kb_u {
                        None => v as usize != u,
                        Some(kb) => self.kbs[v as usize] != *kb,
                    };
                    if !admissible {
                        continue;
                    }
                    let slot = &mut slots[v as usize];
                    if slot.common == 0 {
                        touched.push(v);
                        *slot = Slot {
                            common: 1,
                            chunk_of: chunk,
                            total: 0.0,
                            partial: w,
                        };
                        continue;
                    }
                    slot.common += 1;
                    if slot.chunk_of == chunk {
                        slot.partial += w;
                    } else {
                        slot.total += slot.partial;
                        slot.partial = w;
                        slot.chunk_of = chunk;
                    }
                }
            }
            touched.sort_unstable();
            tally.blocked += (touched.len() - above(u, &touched)) as u64;
            tally.max_neighbourhood = tally.max_neighbourhood.max(touched.len());
            visit(u, &touched, &slots);
            for &v in &touched {
                slots[v as usize].common = 0;
            }
            touched.clear();
        }
        tally
    }

    /// [`walk`](Self::walk) with every neighbour's edge weight, parallel to
    /// the neighbour list.
    fn walk_weighted(
        &self,
        nodes: Range<usize>,
        mut visit: impl FnMut(usize, &[u32], &[f64]),
    ) -> Tally {
        let mut weights: Vec<f64> = Vec::new();
        self.walk(nodes, |u, neighbours, slots| {
            weights.clear();
            weights.extend(neighbours.iter().map(|&v| {
                let slot = slots[v as usize];
                let info = EdgeInfo {
                    common_blocks: slot.common,
                    arcs: slot.total + slot.partial,
                };
                let stats = |e: usize| NodeStats {
                    blocks: self.block_count(e),
                    discount: self.discounts[e],
                };
                let v = v as usize;
                self.weighting
                    .edge_weight(info, || (stats(u.min(v)), stats(u.max(v))))
            }));
            visit(u, neighbours, &weights);
        })
    }

    /// WNP / CNP and their reciprocal variants: one walk, each node pushing
    /// the pairs that survive in its own neighbourhood, then the flat merge.
    fn prune_nodes(
        &self,
        rule: NodeRule,
        reciprocal: bool,
        ranges: &[Range<usize>],
        par: Parallelism,
    ) -> (Vec<Pair>, Tally) {
        let parts = par_map(par, ranges, |nodes| {
            let mut survivors: Vec<Pair> = Vec::new();
            let mut order = Vec::new();
            let tally = self.walk_weighted(nodes.clone(), |u, neighbours, weights| {
                rule.survivors(weights, &mut order, |i| {
                    survivors.push(pair(u, neighbours[i]))
                });
            });
            (survivors, tally)
        });
        let tally = parts.iter().fold(Tally::default(), |t, p| t.merge(p.1));
        let survivors: Vec<Pair> = parts.into_iter().flat_map(|p| p.0).collect();
        (merge_survivors(survivors, reciprocal), tally)
    }

    /// WEP / CEP: the criterion is global, so a first walk lists the weights
    /// in edge (= pair) order — one `f64` per edge, nothing else — and a
    /// second walk re-derives each edge and keeps it or not.
    fn prune_edges(
        &self,
        pruning: PruningScheme,
        assignments: u64,
        ranges: &[Range<usize>],
        par: Parallelism,
    ) -> (Vec<Pair>, Tally) {
        let parts = par_map(par, ranges, |nodes| {
            let mut listed: Vec<f64> = Vec::new();
            let tally = self.walk_weighted(nodes.clone(), |u, neighbours, weights| {
                listed.extend_from_slice(&weights[above(u, neighbours)..]);
            });
            (listed, tally)
        });
        let tally = parts.iter().fold(Tally::default(), |t, p| t.merge(p.1));
        let n_edges = tally.blocked as usize;
        if n_edges == 0 {
            return (Vec::new(), tally);
        }
        let all = || parts.iter().flat_map(|p| p.0.iter());
        let budget = PruningScheme::edge_budget(assignments);
        let rules: Vec<(Range<usize>, EdgeRule)> = if pruning == PruningScheme::Cep {
            // The budget keeps the `budget` heaviest edges, ties towards the
            // smaller pair: everything above the budget-th weight, plus as
            // many edges *at* it, in pair order, as the budget still holds.
            let (threshold, mut ties) = if n_edges <= budget {
                (f64::NEG_INFINITY, 0)
            } else {
                let mut sorted: Vec<f64> = all().copied().collect();
                let (_, &mut at, _) =
                    sorted.select_nth_unstable_by(budget - 1, |a, b| b.total_cmp(a));
                (at, budget - all().filter(|&&w| w > at).count())
            };
            ranges
                .iter()
                .zip(&parts)
                .map(|(nodes, (listed, _))| {
                    let here = listed.iter().filter(|&&w| w == threshold).count().min(ties);
                    ties -= here;
                    let rule = EdgeRule {
                        threshold,
                        ties: here,
                    };
                    (nodes.clone(), rule)
                })
                .collect()
        } else {
            // WEP: the mean over all edges, summed serially in edge order.
            let rule = EdgeRule {
                threshold: all().sum::<f64>() / n_edges as f64,
                ties: usize::MAX,
            };
            ranges.iter().map(|nodes| (nodes.clone(), rule)).collect()
        };
        drop(parts);
        let kept = par_map(par, &rules, |(nodes, rule)| {
            let mut kept: Vec<Pair> = Vec::new();
            let mut ties = rule.ties;
            self.walk_weighted(nodes.clone(), |u, neighbours, weights| {
                for i in above(u, neighbours)..neighbours.len() {
                    let tie = weights[i] == rule.threshold && ties > 0;
                    if tie {
                        ties -= 1;
                    }
                    if tie || weights[i] > rule.threshold {
                        kept.push(pair(u, neighbours[i]));
                    }
                }
            });
            kept
        })
        .concat();
        (kept, tally)
    }
}

/// Position of the first neighbour above `u` in an ascending neighbour list:
/// the edges `(u, v > u)` are the ones node `u` owns in pair order.
fn above(u: usize, neighbours: &[u32]) -> usize {
    neighbours.partition_point(|&v| (v as usize) < u)
}

fn pair(u: usize, v: u32) -> Pair {
    Pair::new(EntityId(u as u32), EntityId(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BlockingGraph;
    use er_core::entity::KbId;

    /// 60 entities in 150 overlapping blocks of varying cardinality: pairs
    /// recur in several blocks of one chunk *and* across chunks, so a fold
    /// that ignores either level of the graph's ARCS grouping lands on
    /// different bits.
    fn chunk_spanning(mode: ResolutionMode) -> (EntityCollection, BlockCollection) {
        let mut c = EntityCollection::new(mode);
        for e in 0..60u16 {
            c.push(KbId(e % 2), vec![]);
        }
        let blocks = (0..150u32).map(|b| {
            let members = (0..60u32).filter(|e| (e + b) % (2 + b % 5) == 0);
            Block::new(format!("k{b}"), members.map(EntityId).collect())
        });
        (c, blocks.collect())
    }

    #[test]
    fn scanned_weights_match_the_graphs_bit_for_bit() {
        for mode in [ResolutionMode::Dirty, ResolutionMode::CleanClean] {
            let (c, blocks) = chunk_spanning(mode);
            let graph = BlockingGraph::build_reference(&c, &blocks);
            assert!(graph.n_edges() > 100, "needs a non-trivial graph");
            for weighting in WeightingScheme::ALL {
                // WEP's first walk lists every edge weight in pair order;
                // read them back through the same walk.
                let mut index = Index::build(&c, &blocks, weighting);
                let discount = |total: usize, count: u32| {
                    WeightingScheme::node_discount(total.max(1) as f64, count)
                };
                index.discounts = (0..c.len())
                    .map(|u| match weighting {
                        WeightingScheme::Ejs => {
                            discount(graph.n_edges(), graph.degree(EntityId(u as u32)))
                        }
                        _ => discount(blocks.len(), index.block_count(u)),
                    })
                    .collect();
                let mut scanned: Vec<(Pair, u64)> = Vec::new();
                index.walk_weighted(0..c.len(), |u, neighbours, weights| {
                    for i in above(u, neighbours)..neighbours.len() {
                        scanned.push((pair(u, neighbours[i]), weights[i].to_bits()));
                    }
                });
                let expected: Vec<(Pair, u64)> = weighting
                    .weigh_all(&graph)
                    .into_iter()
                    .map(|(p, w)| (p, w.to_bits()))
                    .collect();
                assert_eq!(scanned, expected, "{mode:?} {}", weighting.name());
            }
        }
    }

    #[test]
    fn node_ranges_cover_every_node_once_at_any_worker_count() {
        let (c, blocks) = chunk_spanning(ResolutionMode::Dirty);
        let index = Index::build(&c, &blocks, WeightingScheme::Cbs);
        for parts in [1, 2, 3, 7, 64, 1000] {
            let ranges = index.node_ranges(parts);
            assert!(ranges.len() <= parts);
            let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(covered, (0..c.len()).collect::<Vec<_>>(), "parts={parts}");
        }
    }
}
