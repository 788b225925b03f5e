//! Parallel meta-blocking, after Efthymiou et al. \[10\]/\[11\].
//!
//! The published system decomposes meta-blocking into three MapReduce
//! stages; this module mirrors that decomposition on the in-process engine:
//!
//! 1. **Preprocessing** — from the block collection, compute per-entity block
//!    counts (needed by ECBS/JS) as one job.
//! 2. **Edge weighting** (*edge-based strategy*) — mappers scan blocks and
//!    emit per-edge contributions (`common += 1`, `arcs += 1/‖b‖`); reducers
//!    aggregate each edge and finalize its weight using the broadcast
//!    preprocessing output.
//! 3. **Pruning** — edge-centric schemes (WEP/CEP) finish on the driver;
//!    node-centric schemes (WNP/CNP, *entity-based strategy*) run one more
//!    job that regroups edges by endpoint, applies the local criterion in the
//!    reducer, and a final driver pass applies union/reciprocal semantics.
//!
//! EJS additionally needs node degrees, which stage 2's output provides; it
//! is finalized with one extra aggregation. The tests verify exact agreement
//! with sequential `er-metablocking` for every scheme and worker count.

use crate::engine::{FoldMapReduce, MapReduce, INFALLIBLE_JOB};
use er_blocking::block::BlockCollection;
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::fault::ExecPolicy;
use er_core::pair::Pair;
use er_metablocking::{PruningScheme, WeightingScheme};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parallel meta-blocking runner.
#[derive(Clone, Debug)]
pub struct ParallelMetaBlocking {
    workers: usize,
}

/// Intermediate weighted edge list with the statistics needed to finalize
/// any weighting scheme.
struct EdgeAggregates {
    /// `(pair, common_blocks, arcs)` sorted by pair.
    edges: Vec<(Pair, u32, f64)>,
    entity_block_counts: Arc<Vec<u32>>,
    total_blocks: u64,
    total_assignments: u64,
}

impl ParallelMetaBlocking {
    /// Creates the runner with `workers ≥ 1` threads per stage.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1);
        ParallelMetaBlocking { workers }
    }

    /// Runs the full pipeline: returns the retained comparisons, identical to
    /// `er_metablocking::meta_block` on the same inputs.
    pub fn run(
        &self,
        collection: &EntityCollection,
        blocks: &BlockCollection,
        weighting: WeightingScheme,
        pruning: PruningScheme,
    ) -> Vec<Pair> {
        let agg = self.stage12(collection, blocks);
        let weighted = self.finalize_weights(&agg, weighting);
        self.stage3(&agg, weighted, pruning)
    }

    /// Stages 1–2: preprocessing job + edge aggregation job.
    fn stage12(&self, collection: &EntityCollection, blocks: &BlockCollection) -> EdgeAggregates {
        // Stage 1: per-entity block counts.
        let mr1: FoldMapReduce<Vec<EntityId>, EntityId, u32, (EntityId, u32)> =
            FoldMapReduce::new(self.workers);
        let memberships: Vec<Vec<EntityId>> = blocks
            .blocks()
            .iter()
            .map(|b| b.entities().to_vec())
            .collect();
        let (counts, _) = mr1
            .try_run(
                &memberships,
                &ExecPolicy::default(),
                |members, emit: &mut dyn FnMut(EntityId, u32)| {
                    for e in members {
                        emit(*e, 1);
                    }
                },
                |acc, v| *acc += v,
                |acc, other| *acc += other,
                |e, acc| vec![(*e, *acc)],
            )
            .expect(INFALLIBLE_JOB);
        let mut entity_block_counts = vec![0u32; collection.len()];
        for (e, c) in counts {
            entity_block_counts[e.index()] = c;
        }

        // Stage 2: per-edge aggregation. Mappers scan blocks, emitting the
        // edge contributions, folded into per-edge accumulators mapper-side
        // (the combiner, in its allocation-free form).
        /// A block prepared for the edge job: its pairs + its ARCS weight.
        type BlockInput = (Vec<Pair>, f64);
        let mr2: FoldMapReduce<BlockInput, Pair, (u32, f64), (Pair, u32, f64)> =
            FoldMapReduce::new(self.workers);
        let block_inputs: Vec<BlockInput> = blocks
            .blocks()
            .iter()
            .filter_map(|b| {
                let card = b.comparisons(collection);
                if card == 0 {
                    return None;
                }
                Some((b.pairs(collection).collect(), 1.0 / card as f64))
            })
            .collect();
        let (edges, _) = mr2
            .try_run(
                &block_inputs,
                &ExecPolicy::default(),
                |(pairs, w), emit: &mut dyn FnMut(Pair, (u32, f64))| {
                    for p in pairs {
                        emit(*p, (1u32, *w));
                    }
                },
                |acc: &mut (u32, f64), (dc, da)| {
                    acc.0 += dc;
                    acc.1 += da;
                },
                |acc, other| {
                    acc.0 += other.0;
                    acc.1 += other.1;
                },
                |p, (c, a)| vec![(*p, *c, *a)],
            )
            .expect(INFALLIBLE_JOB);
        EdgeAggregates {
            edges,
            entity_block_counts: Arc::new(entity_block_counts),
            total_blocks: blocks.len() as u64,
            total_assignments: blocks.assignments(),
        }
    }

    /// Finalizes edge weights from the aggregates (one more aggregation for
    /// EJS's node degrees).
    fn finalize_weights(
        &self,
        agg: &EdgeAggregates,
        weighting: WeightingScheme,
    ) -> Vec<(Pair, f64)> {
        let counts = &agg.entity_block_counts;
        let total_blocks = agg.total_blocks as f64;
        // Node degrees (needed by EJS only): aggregate edge endpoints.
        let degrees: Option<BTreeMap<EntityId, u32>> = match weighting {
            WeightingScheme::Ejs => {
                let mr: FoldMapReduce<Pair, EntityId, u32, (EntityId, u32)> =
                    FoldMapReduce::new(self.workers);
                let endpoints: Vec<Pair> = agg.edges.iter().map(|(p, _, _)| *p).collect();
                let (d, _) = mr
                    .try_run(
                        &endpoints,
                        &ExecPolicy::default(),
                        |p, emit: &mut dyn FnMut(EntityId, u32)| {
                            emit(p.first(), 1);
                            emit(p.second(), 1);
                        },
                        |acc, v| *acc += v,
                        |acc, other| *acc += other,
                        |e, acc| vec![(*e, *acc)],
                    )
                    .expect(INFALLIBLE_JOB);
                Some(d.into_iter().collect())
            }
            _ => None,
        };
        let n_edges = agg.edges.len().max(1) as f64;
        agg.edges
            .iter()
            .map(|&(p, common, arcs)| {
                let (a, b) = p.ids();
                let ca = counts[a.index()].max(1) as f64;
                let cb = counts[b.index()].max(1) as f64;
                let w = match weighting {
                    WeightingScheme::Cbs => common as f64,
                    WeightingScheme::Ecbs => {
                        common as f64
                            * (total_blocks / ca).ln().max(0.0)
                            * (total_blocks / cb).ln().max(0.0)
                    }
                    WeightingScheme::Js => {
                        let union = ca + cb - common as f64;
                        if union == 0.0 {
                            0.0
                        } else {
                            common as f64 / union
                        }
                    }
                    WeightingScheme::Ejs => {
                        let union = ca + cb - common as f64;
                        let js = if union == 0.0 {
                            0.0
                        } else {
                            common as f64 / union
                        };
                        let deg = degrees.as_ref().expect("degrees computed for EJS");
                        let da = deg.get(&a).copied().unwrap_or(1).max(1) as f64;
                        let db = deg.get(&b).copied().unwrap_or(1).max(1) as f64;
                        js * (n_edges / da).ln().max(0.0) * (n_edges / db).ln().max(0.0)
                    }
                    WeightingScheme::Arcs => arcs,
                };
                (p, w)
            })
            .collect()
    }

    /// Stage 3: pruning.
    fn stage3(
        &self,
        agg: &EdgeAggregates,
        weighted: Vec<(Pair, f64)>,
        pruning: PruningScheme,
    ) -> Vec<Pair> {
        if weighted.is_empty() {
            return Vec::new();
        }
        match pruning {
            PruningScheme::Wep => {
                let mean = weighted.iter().map(|(_, w)| w).sum::<f64>() / weighted.len() as f64;
                weighted
                    .into_iter()
                    .filter(|(_, w)| *w >= mean)
                    .map(|(p, _)| p)
                    .collect()
            }
            PruningScheme::Cep => {
                let k = ((agg.total_assignments / 2) as usize).max(1);
                let mut sorted = weighted;
                sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                let mut kept: Vec<Pair> = sorted.into_iter().take(k).map(|(p, _)| p).collect();
                kept.sort();
                kept
            }
            PruningScheme::Wnp
            | PruningScheme::Cnp
            | PruningScheme::ReciprocalWnp
            | PruningScheme::ReciprocalCnp => {
                // Entity-based job: regroup weighted edges per endpoint; the
                // reducer applies the node-local criterion.
                let k_for_cnp =
                    (agg.total_assignments as usize / agg.entity_block_counts.len().max(1)).max(1);
                let by_cardinality =
                    matches!(pruning, PruningScheme::Cnp | PruningScheme::ReciprocalCnp);
                let mr: MapReduce<(Pair, f64), EntityId, (f64, Pair), Pair> =
                    MapReduce::new(self.workers);
                let (survivors, _) = mr
                    .try_run(
                        &weighted,
                        &ExecPolicy::default(),
                        |(p, w), emit| {
                            emit(p.first(), (*w, *p));
                            emit(p.second(), (*w, *p));
                        },
                        move |_e, edges| {
                            if by_cardinality {
                                let mut edges = edges.to_vec();
                                edges.sort_by(|a, b| {
                                    b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))
                                });
                                edges.into_iter().take(k_for_cnp).map(|(_, p)| p).collect()
                            } else {
                                let mean =
                                    edges.iter().map(|(w, _)| w).sum::<f64>() / edges.len() as f64;
                                edges
                                    .iter()
                                    .filter(|(w, _)| *w >= mean)
                                    .map(|(_, p)| *p)
                                    .collect()
                            }
                        },
                    )
                    .expect(INFALLIBLE_JOB);
                // Driver pass: union vs reciprocal.
                let reciprocal = matches!(
                    pruning,
                    PruningScheme::ReciprocalWnp | PruningScheme::ReciprocalCnp
                );
                let mut counts: BTreeMap<Pair, u8> = BTreeMap::new();
                for p in survivors {
                    *counts.entry(p).or_insert(0) += 1;
                }
                counts
                    .into_iter()
                    .filter(|(_, c)| if reciprocal { *c >= 2 } else { *c >= 1 })
                    .map(|(p, _)| p)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::TokenBlocking;
    use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
    use er_metablocking::meta_block;

    fn setup() -> (DirtyDataset, BlockCollection) {
        let ds = DirtyDataset::generate(&DirtyConfig::sized(150, NoiseModel::moderate(), 17));
        let blocks = TokenBlocking::new().build(&ds.collection);
        (ds, blocks)
    }

    #[test]
    fn parallel_equals_sequential_for_all_schemes() {
        let (ds, blocks) = setup();
        for weighting in WeightingScheme::ALL {
            for pruning in PruningScheme::CANONICAL {
                let sequential = meta_block(&ds.collection, &blocks, weighting, pruning);
                let parallel =
                    ParallelMetaBlocking::new(4).run(&ds.collection, &blocks, weighting, pruning);
                assert_eq!(
                    sequential,
                    parallel,
                    "{}/{} diverged",
                    weighting.name(),
                    pruning.name()
                );
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (ds, blocks) = setup();
        let reference = ParallelMetaBlocking::new(1).run(
            &ds.collection,
            &blocks,
            WeightingScheme::Arcs,
            PruningScheme::Cnp,
        );
        for workers in [2, 3, 8] {
            let out = ParallelMetaBlocking::new(workers).run(
                &ds.collection,
                &blocks,
                WeightingScheme::Arcs,
                PruningScheme::Cnp,
            );
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn reciprocal_schemes_match_sequential() {
        let (ds, blocks) = setup();
        for pruning in [PruningScheme::ReciprocalWnp, PruningScheme::ReciprocalCnp] {
            let sequential = meta_block(&ds.collection, &blocks, WeightingScheme::Js, pruning);
            let parallel = ParallelMetaBlocking::new(3).run(
                &ds.collection,
                &blocks,
                WeightingScheme::Js,
                pruning,
            );
            assert_eq!(sequential, parallel, "{}", pruning.name());
        }
    }

    #[test]
    fn empty_blocks() {
        let c = EntityCollection::new(er_core::collection::ResolutionMode::Dirty);
        let out = ParallelMetaBlocking::new(2).run(
            &c,
            &BlockCollection::default(),
            WeightingScheme::Cbs,
            PruningScheme::Wep,
        );
        assert!(out.is_empty());
    }
}
