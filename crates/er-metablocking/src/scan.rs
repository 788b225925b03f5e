//! Node-centric meta-blocking: weigh and prune neighbourhood by
//! neighbourhood, straight from the entity→blocks index.
//!
//! The blocking graph is never materialised. For each entity the scan walks
//! the blocks that contain it and accumulates every co-occurring
//! neighbour's `common_blocks` and ARCS in two dense per-entity arrays
//! (`u32` and `f64`, 12 B per entity per worker). A block's members ascend,
//! so they are marked a word at a time in a two-level bitmap whose
//! read-back lists the neighbourhood in ascending id order without a sort
//! (`Touched`). That read-back is also where each neighbour is weighed (or
//! turned into whatever the caller emits) and its slots are zeroed; the
//! neighbourhood is then judged on the spot. Survivors are pushed in pair
//! order, or in an order one counting sort turns into it, so a linear merge
//! replaces a survivor sort. Memory is O(entities + postings + largest
//! neighbourhood + kept pairs); nodes are independent, so the parallel path
//! hands contiguous node ranges to workers and only concatenates what they
//! return.
//!
//! One walk serves every caller: the node-centric and edge-centric
//! prunings, EJS's degree pre-pass, and, keeping every edge
//! (`graph_edges`), what fills [`BlockingGraph::par_build`]. So the scan
//! and the graph + [`PruningScheme::par_prune`] are **bit-identical** for
//! every pruning × weighting pair, at every thread count. Integer
//! statistics are order-free; two `f64` folds are not, and both are fixed
//! (see `docs/data_layout.md`):
//!
//! * a pair's **ARCS** is the plain block-order sum `0.0 + w₁ + w₂ + …` of
//!   `1/‖b‖` over its shared blocks in ascending block id — the order the
//!   walk meets them in. A pair's sum is folded entirely inside one node's
//!   walk, so no split of the nodes can regroup it;
//! * a neighbourhood's **mean**, and the global WEP mean, are summed over
//!   neighbours in ascending id order — the order of the pair-sorted edge
//!   list (`NodeRule::survivors`). The scan folds a neighbourhood's sum as
//!   its drain emits the weights, in that order.
//!
//! [`BlockingGraph::par_build`]: crate::graph::BlockingGraph::par_build

use crate::graph::EdgeInfo;
use crate::pruning::{balanced_ranges, csr_offsets, NodeRule, PruningScheme};
use crate::weights::{NodeStats, WeightingScheme};
use er_blocking::block::{Block, BlockCollection};
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::EntityId;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::parallel::{par_map, Parallelism};
use std::cell::Cell;
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
/// `Σ ‖b‖`), the block members one walk visits
/// (`meta_blocking.member_visits` = `Σ |b|²` over the blocks with an
/// admissible pair) and the `meta_blocking.max_neighbourhood` gauge (the
/// largest node degree, which sizes the scan's per-node work lists), and
/// times its three phases as spans: `meta_blocking.index` (the
/// entity→blocks index, node ranges and discounts), `meta_blocking.walk`
/// (the walks) and `meta_blocking.merge` (putting the survivors in pair
/// order).
pub fn node_scan(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    pruning: PruningScheme,
    par: Parallelism,
    obs: &Obs,
) -> Pruned {
    let span = obs.span("meta_blocking.index");
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
                index.walk(
                    nodes.clone(),
                    |_, _, _| (),
                    |_, neighbours, _| degrees.push(neighbours.len() as u32),
                );
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
    span.finish();
    let assignments = blocks.assignments();
    let (kept, tally) = match NodeRule::of(pruning, assignments, collection.len()) {
        Some(rule) => index.prune_nodes(rule, pruning.is_reciprocal(), &ranges, par, obs),
        None => index.prune_edges(pruning, assignments, &ranges, par, obs),
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
        obs.counter("meta_blocking.member_visits")
            .add(index.member_visits);
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

/// The walk keeping every edge: the edges `(u, v > u)` of every node `u`
/// with their [`EdgeInfo`], in pair order — what fills
/// [`BlockingGraph::par_build`]. Node ranges are walked through `par_map`
/// and concatenated in order; a pair's ARCS is folded inside one node's
/// walk, so the output is the same at every thread count.
///
/// [`BlockingGraph::par_build`]: crate::graph::BlockingGraph::par_build
pub(crate) fn graph_edges(
    collection: &EntityCollection,
    blocks: &BlockCollection,
    par: Parallelism,
) -> Vec<(Pair, EdgeInfo)> {
    let index = Index::build(collection, blocks, WeightingScheme::Arcs);
    par_map(par, &index.node_ranges(par.effective()), |nodes| {
        let mut edges = Vec::new();
        index.walk(
            nodes.clone(),
            |_, _, info| info,
            |u, neighbours, infos| {
                let from = above(u, neighbours);
                let owned = neighbours[from..].iter().zip(&infos[from..]);
                edges.extend(owned.map(|(&v, &info)| (pair(u, v), info)));
            },
        );
        edges
    })
    .concat()
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
    /// CSR entity → ids of the blocks containing it, ascending: the walk
    /// meets a pair's blocks in block order, the order ARCS is summed in.
    offsets: Vec<usize>,
    block_ids: Vec<u32>,
    /// `1/‖b‖` per block; `0.0` marks a block without an admissible pair.
    inv_card: Vec<f64>,
    /// `Σ ‖b‖`: block-pair occurrences, i.e. raw edge contributions.
    contributions: u64,
    /// `Σ |b|²` over the blocks with an admissible pair: each member of
    /// such a block walks all of its members.
    member_visits: u64,
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
        let (mut contributions, mut member_visits) = (0u64, 0u64);
        let mut inv_card = Vec::with_capacity(blocks.len());
        for (bi, b) in blocks.iter().enumerate() {
            for e in b.entities() {
                let at = &mut cursor[e.index()];
                block_ids[*at] = bi as u32;
                *at += 1;
            }
            let card = b.comparisons(collection);
            contributions += card;
            if card != 0 {
                member_visits += (b.len() as u64).pow(2);
            }
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
            member_visits,
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
    /// total size of the blocks the walk visits, i.e. those with an
    /// admissible pair), one per worker.
    fn node_ranges(&self, parts: usize) -> Vec<Range<usize>> {
        let mut cumulative = Vec::with_capacity(self.offsets.len());
        let mut cost = 0usize;
        cumulative.push(cost);
        for row in self.offsets.windows(2) {
            cost += self.block_ids[row[0]..row[1]]
                .iter()
                .filter(|&&bi| self.inv_card[bi as usize] != 0.0)
                .map(|&bi| self.blocks[bi as usize].len())
                .sum::<usize>();
            cumulative.push(cost);
        }
        balanced_ranges(&cumulative, parts)
    }

    /// Visits every node of `nodes` with its neighbours (ascending ids) and
    /// what `emit` made of each neighbour's co-occurrence statistics,
    /// parallel to the neighbour list.
    ///
    /// The worker's table is two arrays indexed by entity: `common` (shared
    /// blocks) and `arcs` (`1/‖b‖` summed in block order from `0.0`, so the
    /// first block's weight is stored exactly). Every admissible member of a
    /// block bumps both and is marked in `touched` a word at a time; in dirty
    /// mode that includes `u`, which sits in every block it walks and is
    /// forgotten once after them. The drain lists the marked ids in
    /// ascending order, hands each one's statistics to `emit` and zeroes its
    /// slots, so the table is clean for the next node.
    fn walk<T>(
        &self,
        nodes: Range<usize>,
        mut emit: impl FnMut(usize, u32, EdgeInfo) -> T,
        mut visit: impl FnMut(usize, &[u32], &[T]),
    ) -> Tally {
        let n = self.offsets.len() - 1;
        let mut common = vec![0u32; n];
        let mut arcs = vec![0.0f64; n];
        let mut touched = Touched::new(n);
        let (mut neighbours, mut emitted) = (Vec::new(), Vec::new());
        let mut tally = Tally::default();
        for u in nodes {
            for &bi in &self.block_ids[self.offsets[u]..self.offsets[u + 1]] {
                let w = self.inv_card[bi as usize];
                if w == 0.0 {
                    continue;
                }
                let members = self.blocks[bi as usize].entities().iter().map(|e| e.0);
                let mut add = |v: u32| {
                    common[v as usize] += 1;
                    arcs[v as usize] += w;
                };
                match self.kbs.get(u) {
                    None => touched.insert_ascending(members.inspect(|&v| add(v))),
                    Some(&kb) => touched.insert_ascending(
                        members
                            .filter(|&v| self.kbs[v as usize] != kb)
                            .inspect(|&v| add(v)),
                    ),
                }
            }
            if self.kbs.is_empty() {
                (common[u], arcs[u]) = (0, 0.0);
                touched.remove(u as u32);
            }
            touched.drain(|v| {
                let slot = v as usize;
                let info = EdgeInfo {
                    common_blocks: common[slot],
                    arcs: arcs[slot],
                };
                (common[slot], arcs[slot]) = (0, 0.0);
                neighbours.push(v);
                emitted.push(emit(u, v, info));
            });
            tally.blocked += (neighbours.len() - above(u, &neighbours)) as u64;
            tally.max_neighbourhood = tally.max_neighbourhood.max(neighbours.len());
            visit(u, &neighbours, &emitted);
            neighbours.clear();
            emitted.clear();
        }
        tally
    }

    /// [`walk`](Self::walk) emitting every neighbour's edge weight, and
    /// handing `visit` their sum too. The sum is folded as the drain emits
    /// the weights, in ascending neighbour order from `-0.0` — exactly
    /// `weights.iter().sum::<f64>()`, to the bit, with no second pass. The
    /// scheme is matched once here, so each walk has its formula inlined
    /// instead of matching it per neighbour.
    fn walk_weighted(
        &self,
        nodes: Range<usize>,
        mut visit: impl FnMut(usize, &[u32], &[f64], f64),
    ) -> Tally {
        let stats = |e: usize| NodeStats {
            blocks: self.block_count(e),
            discount: self.discounts[e],
        };
        let sum = Cell::new(-0.0f64);
        macro_rules! walk_as {
            ($scheme:expr) => {
                self.walk(
                    nodes,
                    |u, v, info| {
                        let v = v as usize;
                        let w = $scheme.edge_weight(info, || (stats(u.min(v)), stats(u.max(v))));
                        sum.set(sum.get() + w);
                        w
                    },
                    |u, neighbours, weights| visit(u, neighbours, weights, sum.replace(-0.0)),
                )
            };
        }
        match self.weighting {
            WeightingScheme::Cbs => walk_as!(WeightingScheme::Cbs),
            WeightingScheme::Ecbs => walk_as!(WeightingScheme::Ecbs),
            WeightingScheme::Js => walk_as!(WeightingScheme::Js),
            WeightingScheme::Ejs => walk_as!(WeightingScheme::Ejs),
            WeightingScheme::Arcs => walk_as!(WeightingScheme::Arcs),
        }
    }

    /// WNP / CNP and their reciprocal variants: one walk, each node pushing
    /// the pairs that survive in its own neighbourhood, then one linear
    /// merge. Node `u` keeps its survivors in ascending neighbour order, so
    /// its pairs `(u, v > u)` arrive in pair order across the walk and its
    /// pairs `(v < u, u)` in order of their second member; a counting sort
    /// by the first member puts the latter in pair order too.
    fn prune_nodes(
        &self,
        rule: NodeRule,
        reciprocal: bool,
        ranges: &[Range<usize>],
        par: Parallelism,
        obs: &Obs,
    ) -> (Vec<Pair>, Tally) {
        let walk = obs.span("meta_blocking.walk");
        let parts = par_map(par, ranges, |nodes| {
            let (mut owned, mut below) = (Vec::new(), Vec::new());
            let mut order = Vec::new();
            let tally = self.walk_weighted(nodes.clone(), |u, neighbours, weights, sum| {
                rule.survivors(weights, sum, &mut order, |i| {
                    let v = neighbours[i];
                    let to = if v as usize > u {
                        &mut owned
                    } else {
                        &mut below
                    };
                    to.push(pair(u, v));
                });
            });
            (owned, below, tally)
        });
        walk.finish();
        let _merge = obs.span("meta_blocking.merge");
        let (mut owned, mut below, mut tally) = (Vec::new(), Vec::new(), Tally::default());
        for (o, b, t) in parts {
            owned.extend(o);
            below.extend(b);
            tally = tally.merge(t);
        }
        let below = by_first(self.offsets.len() - 1, below);
        (merge_sorted(&owned, &below, reciprocal), tally)
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
        obs: &Obs,
    ) -> (Vec<Pair>, Tally) {
        let walk = obs.span("meta_blocking.walk");
        let parts = par_map(par, ranges, |nodes| {
            let mut listed: Vec<f64> = Vec::new();
            let tally = self.walk_weighted(nodes.clone(), |u, neighbours, weights, _| {
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
            self.walk_weighted(nodes.clone(), |u, neighbours, weights, _| {
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
        });
        walk.finish();
        let _merge = obs.span("meta_blocking.merge");
        (kept.concat(), tally)
    }
}

/// A set of node ids that lists itself in ascending order: bit `v` of
/// `words` marks node `v`, and bit `w` of `summary` marks a `words[w]` that
/// may be non-zero. Ascending ids are marked a word at a time. Draining
/// sweeps the summary words from the lowest to the highest one marked
/// (`lo..hi`, at most `n / 4096`) and visits only the marked words, so
/// listing a neighbourhood costs its size plus that sweep instead of a
/// sort. `n / 8` bytes per worker.
struct Touched {
    words: Vec<u64>,
    summary: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl Touched {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Touched {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    /// Marks `ids`, which ascend: the bits of the current word gather in a
    /// register and are stored, with the word's summary bit, when the ids
    /// leave it.
    fn insert_ascending(&mut self, mut ids: impl Iterator<Item = u32>) {
        let Some(first) = ids.next() else {
            return;
        };
        let (mut word, mut bits) = (first >> 6, 1u64 << (first & 63));
        for v in ids {
            debug_assert!(v >> 6 >= word, "ids must ascend");
            if v >> 6 != word {
                self.store(word as usize, bits);
                (word, bits) = (v >> 6, 0);
            }
            bits |= 1 << (v & 63);
        }
        self.store(word as usize, bits);
    }

    fn store(&mut self, w: usize, bits: u64) {
        self.words[w] |= bits;
        self.summary[w >> 6] |= 1 << (w & 63);
        self.lo = self.lo.min(w >> 6);
        self.hi = self.hi.max((w >> 6) + 1);
    }

    /// Unmarks `v`; its summary bit stays, and the drain skips the word if
    /// it is left empty.
    fn remove(&mut self, v: u32) {
        self.words[(v >> 6) as usize] &= !(1 << (v & 63));
    }

    /// Calls `visit` on the marked ids in ascending order and empties the set.
    fn drain(&mut self, mut visit: impl FnMut(u32)) {
        let span = std::mem::replace(&mut self.lo, usize::MAX)..std::mem::take(&mut self.hi);
        let Touched { words, summary, .. } = self;
        for s in span {
            let mut marks = std::mem::take(&mut summary[s]);
            while marks != 0 {
                let w = s * 64 + marks.trailing_zeros() as usize;
                marks &= marks - 1;
                let mut bits = std::mem::take(&mut words[w]);
                while bits != 0 {
                    visit((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// Stable counting sort of `pairs` by first member over nodes `0..n`:
/// pairs already ordered by second member come out in pair order.
fn by_first(n: usize, pairs: Vec<Pair>) -> Vec<Pair> {
    let mut cursor = csr_offsets(n, pairs.iter().map(|p| p.first().index()));
    let mut sorted = vec![Pair::new(EntityId(0), EntityId(1)); pairs.len()];
    for &p in &pairs {
        let at = &mut cursor[p.first().index()];
        sorted[*at] = p;
        *at += 1;
    }
    sorted
}

/// The union of two pair-ordered, duplicate-free lists — or, when `both`,
/// their intersection — in pair order.
fn merge_sorted(a: &[Pair], b: &[Pair], both: bool) -> Vec<Pair> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x <= y {
            i += 1;
        }
        if y <= x {
            j += 1;
        }
        if x == y || !both {
            out.push(x.min(y));
        }
    }
    if !both {
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
    }
    out
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
    /// recur in many blocks, so a fold that adds a pair's `1/‖b‖` in any
    /// order or grouping but block order lands on different bits.
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

    /// 9 000 entities, so neighbourhoods reach across three summary words
    /// of the touched bitmap: ascending runs crossing ids 64, 4 096 and
    /// 8 192, runs scattered over the range, and strided sets spanning it.
    /// In clean–clean the KB changes every 7 ids, so the KB filter cuts the
    /// runs inside a word.
    fn word_spanning(mode: ResolutionMode) -> (EntityCollection, BlockCollection) {
        let n = 9_000u32;
        let mut c = EntityCollection::new(mode);
        for e in 0..n {
            c.push(KbId(((e / 7) % 2) as u16), vec![]);
        }
        let blocks = (0..60u32).map(|b| {
            let members: Vec<u32> = match b % 3 {
                0 => {
                    let start = [4_070, 8_170, 50][(b / 3 % 3) as usize] + b / 2;
                    (start..start + 10 + b % 40).collect()
                }
                1 => (0..20).map(|k| (b * 131 + k * 307) % n).collect(),
                _ => {
                    let start = b * 1_531 % (n - 100);
                    (start..start + 2 + b % 40).collect()
                }
            };
            Block::new(format!("w{b}"), members.into_iter().map(EntityId).collect())
        });
        (c, blocks.collect())
    }

    const MODES: [ResolutionMode; 2] = [ResolutionMode::Dirty, ResolutionMode::CleanClean];

    #[test]
    fn scanned_weights_match_the_graphs_bit_for_bit() {
        let fixtures = [chunk_spanning, word_spanning];
        for (mode, fixture) in MODES.into_iter().flat_map(|m| fixtures.map(|f| (m, f))) {
            let (c, blocks) = fixture(mode);
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
                index.walk_weighted(0..c.len(), |u, neighbours, weights, _| {
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

    /// ARCS is `0.0 + w₁ + w₂ + …` over a pair's shared blocks in block
    /// order, in every producer. The pair (0, 1) shares 48 blocks of
    /// distinct cardinalities, every fourth block of ids 0..192, so any
    /// regrouping of the sum (per 32-block chunk, per worker, per run) shows.
    #[test]
    fn arcs_is_the_block_order_sum() {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for _ in 0..60 {
            c.push(KbId(0), vec![]);
        }
        let blocks: BlockCollection = (0..192u32)
            .map(|b| {
                let members: Vec<u32> = match b % 4 {
                    0 => (0..2 + b / 4).collect(),
                    _ => vec![2 + b % 50, 3 + b % 50],
                };
                Block::new(format!("k{b}"), members.into_iter().map(EntityId).collect())
            })
            .collect();
        let p = Pair::new(EntityId(0), EntityId(1));
        let shares = |b: &&Block| b.entities().starts_with(&[EntityId(0), EntityId(1)]);
        let shared = blocks.blocks().iter().filter(shares);
        assert_eq!(shared.clone().count(), 48);
        let want = shared
            .fold(0.0, |a, b| a + 1.0 / b.comparisons(&c) as f64)
            .to_bits();

        let index = Index::build(&c, &blocks, WeightingScheme::Arcs);
        let mut listed = None;
        index.walk_weighted(0..1, |_, neighbours, weights, _| {
            listed = Some(weights[neighbours.binary_search(&1).unwrap()]);
        });
        assert_eq!(listed.map(f64::to_bits), Some(want), "scan");

        let arcs = |g: &BlockingGraph| g.edge(p).map(|e| e.arcs.to_bits());
        for n in [1, 2, 4] {
            let g = BlockingGraph::par_build(&c, &blocks, Parallelism::threads(n));
            assert_eq!(arcs(&g), Some(want), "par_build threads={n}");
        }
        let reference = BlockingGraph::build_reference(&c, &blocks);
        assert_eq!(arcs(&reference), Some(want), "build_reference");
    }

    /// The scan keeps what graph + `par_prune` keeps, for every weighting ×
    /// pruning at 1, 2 and 4 threads, on neighbourhoods spanning many
    /// bitmap words.
    #[test]
    fn scan_equals_graph_and_prune_across_bitmap_words() {
        for mode in MODES {
            let (c, blocks) = word_spanning(mode);
            let graph = BlockingGraph::build_reference(&c, &blocks);
            for (weighting, pruning) in WeightingScheme::ALL
                .into_iter()
                .flat_map(|w| PruningScheme::ALL.map(|p| (w, p)))
            {
                for threads in [1, 2, 4] {
                    let par = Parallelism::threads(threads);
                    let got = node_scan(&c, &blocks, weighting, pruning, par, &Obs::disabled());
                    let ctx = format!(
                        "{mode:?} {}/{} threads={threads}",
                        weighting.name(),
                        pruning.name()
                    );
                    assert_eq!(got.blocked_comparisons, graph.n_edges() as u64, "{ctx}");
                    assert_eq!(got.kept, pruning.par_prune(&graph, weighting, par), "{ctx}");
                }
            }
        }
    }

    /// The sum the drain folds is the two-pass `weights.iter().sum()` the
    /// WNP mean was read from, bit for bit, for every weighting.
    #[test]
    fn drained_sum_is_the_two_pass_sum() {
        let fixtures = [chunk_spanning, word_spanning];
        for (mode, fixture) in MODES.into_iter().flat_map(|m| fixtures.map(|f| (m, f))) {
            let (c, blocks) = fixture(mode);
            for weighting in WeightingScheme::ALL {
                let index = Index::build(&c, &blocks, weighting);
                let mut nodes = 0;
                index.walk_weighted(0..c.len(), |u, _, weights, sum| {
                    let two_pass: f64 = weights.iter().sum();
                    assert_eq!(
                        sum.to_bits(),
                        two_pass.to_bits(),
                        "{mode:?} {} node {u}",
                        weighting.name()
                    );
                    nodes += usize::from(!weights.is_empty());
                });
                assert!(nodes > 50, "{mode:?}: needs non-empty neighbourhoods");
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

    /// Rounds of ascending runs that cross bitmap words and summary words,
    /// single marks and unmarks (`u` forgotten after its blocks), each
    /// drained against a `BTreeSet` model: the ids come out ascending and
    /// both levels are empty after every drain.
    #[test]
    fn touched_lists_ids_across_summary_words_in_order_and_empties() {
        enum Op {
            Run(Vec<u32>),
            Remove(u32),
        }
        use Op::{Remove, Run};
        let rounds = [
            vec![
                Run((4_030..4_170).collect()),
                Run((8_150..8_250).collect()),
                Run(vec![
                    5, 63, 64, 127, 128, 4_095, 4_096, 8_191, 8_192, 12_300,
                ]),
                Remove(4_100),
                Remove(12_300),
            ],
            // A later set below the previous span is swept too.
            vec![Run(vec![1]), Run(vec![4_100]), Remove(4_101)],
            vec![
                Run((60..70).collect()),
                Run((62..66).collect()),
                Run(vec![12_287, 12_288, 12_290]),
                Remove(64),
                Run(vec![64]),
                Remove(12_288),
            ],
            // Everything unmarked: only summary bits are left to sweep.
            vec![Run(vec![7_000, 9_000]), Remove(7_000), Remove(9_000)],
        ];
        let mut t = Touched::new(3 * 4096 + 100);
        for ops in rounds {
            let mut model = std::collections::BTreeSet::new();
            for op in ops {
                match op {
                    Run(ids) => {
                        t.insert_ascending(ids.iter().copied());
                        model.extend(ids);
                    }
                    Remove(v) => {
                        t.remove(v);
                        model.remove(&v);
                    }
                }
            }
            let mut out = Vec::new();
            t.drain(|v| out.push(v));
            assert_eq!(out, model.into_iter().collect::<Vec<_>>());
            assert!(t.words.iter().chain(&t.summary).all(|&w| w == 0));
            t.drain(|v| panic!("{v} left after a drain"));
        }
    }

    #[test]
    fn node_scan_reduces_comparisons_and_keeps_duplicates() {
        // Two duplicate pairs plus noise entities sharing a common token.
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for value in ["alan turing", "alan turing", "grace hopper", "grace hopper"] {
            c.push(KbId(0), vec![("n".into(), format!("{value} common"))]);
        }
        for i in 0..6 {
            c.push(KbId(0), vec![("n".into(), format!("noise{i} common"))]);
        }
        let blocks = er_blocking::TokenBlocking::new().build(&c);
        let all = blocks.distinct_pairs(&c).len();
        let kept = node_scan(
            &c,
            &blocks,
            WeightingScheme::Arcs,
            PruningScheme::Wep,
            Parallelism::serial(),
            &Obs::disabled(),
        )
        .kept;
        assert!(kept.len() < all, "pruning must discard comparisons");
        assert!(kept.contains(&Pair::new(EntityId(0), EntityId(1))));
        assert!(kept.contains(&Pair::new(EntityId(2), EntityId(3))));
    }
}
