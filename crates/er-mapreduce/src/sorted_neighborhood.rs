//! Parallel sorted neighborhood (the RepSN strategy of the Dedoop line of
//! work, Kolb et al. \[18\]).
//!
//! Sorted neighborhood looks inherently sequential — the window slides over
//! one globally sorted list — but parallelizes with *range partitioning plus
//! boundary replication*: sort keys are range-partitioned among reducers,
//! and each partition additionally receives the `window − 1` highest-keyed
//! records of its predecessor, so every window that straddles a boundary is
//! still evaluated by exactly one reducer. The tests verify exact agreement
//! with sequential `SortedNeighborhood` for every worker count.

use crate::engine::MapReduce;
use er_blocking::sorted_neighborhood::{SortKey, SortedNeighborhood};
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::fault::ExecPolicy;
use er_core::pair::Pair;
use std::collections::BTreeSet;

/// Parallel multi-worker sorted neighborhood.
#[derive(Clone, Debug)]
pub struct ParallelSortedNeighborhood {
    key: SortKey,
    window: usize,
    workers: usize,
}

impl ParallelSortedNeighborhood {
    /// Creates the job.
    ///
    /// # Panics
    /// Panics if `window < 2` or `workers < 1`.
    pub fn new(key: SortKey, window: usize, workers: usize) -> Self {
        assert!(window >= 2, "window must cover at least two entities");
        assert!(workers >= 1);
        ParallelSortedNeighborhood {
            key,
            window,
            workers,
        }
    }

    /// Produces the candidate pairs, identical to the sequential method.
    pub fn candidate_pairs(&self, collection: &EntityCollection) -> Vec<Pair> {
        // Keys are computed mapper-side; the driver range-partitions on the
        // sorted order (a Hadoop TotalOrderPartitioner stand-in), replicating
        // the window−1 boundary records into the next partition.
        let mut keyed: Vec<(String, EntityId)> = collection
            .iter()
            .map(|e| (self.key.key(e), e.id()))
            .collect();
        keyed.sort();
        let n = keyed.len();
        if n < 2 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        let chunk = n.div_ceil(workers);
        // Partition inputs: (partition id, slice with replicated prefix).
        let mut partitions: Vec<(usize, Vec<EntityId>)> = Vec::new();
        for p in 0..workers {
            let start = p * chunk;
            if start >= n {
                break;
            }
            let end = ((p + 1) * chunk).min(n);
            let replicated_start = start.saturating_sub(self.window - 1);
            // Mark where the partition's own records begin inside the slice.
            let ids: Vec<EntityId> = keyed[replicated_start..end]
                .iter()
                .map(|(_, id)| id)
                .copied()
                .collect();
            partitions.push((start - replicated_start, ids));
        }
        // One mapper per partition slides the window over its slice; pairs
        // whose *later* member is a replicated record belong to the previous
        // partition and are skipped (each pair emitted exactly once).
        let window = self.window;
        let mr: MapReduce<(usize, usize, Vec<EntityId>), usize, Pair, Pair> =
            MapReduce::new(workers);
        let inputs: Vec<(usize, usize, Vec<EntityId>)> = partitions
            .into_iter()
            .enumerate()
            .map(|(i, (own_start, ids))| (i, own_start, ids))
            .collect();
        let (pairs, _) = mr
            .try_run(
                &inputs,
                &ExecPolicy::default(),
                |(i, own_start, ids), emit| {
                    for p in ids_to_pairs(collection, ids, *own_start, window) {
                        emit(*i, p);
                    }
                },
                |_i, pairs| pairs.to_vec(),
            )
            // The default policy injects nothing, so an error here means the
            // map or reduce closure above panicked on every attempt — a bug.
            .expect("RepSN job failed under the default policy");
        let distinct: BTreeSet<Pair> = pairs.into_iter().collect();
        distinct.into_iter().collect()
    }

    /// The sequential reference.
    pub fn sequential_reference(&self, collection: &EntityCollection) -> Vec<Pair> {
        SortedNeighborhood::new(self.key.clone(), self.window).candidate_pairs(collection)
    }
}

/// Window pairs within one partition slice; pairs ending inside the
/// replicated prefix (`j < own_start`) belong to the predecessor partition.
fn ids_to_pairs(
    collection: &EntityCollection,
    ids: &[EntityId],
    own_start: usize,
    window: usize,
) -> Vec<Pair> {
    let mut out = Vec::new();
    for i in 0..ids.len() {
        for j in (i + 1)..(i + window).min(ids.len()) {
            if j < own_start {
                continue; // entirely inside the replicated prefix
            }
            if let Some(p) = collection.comparable_pair(ids[i], ids[j]) {
                out.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};

    fn dataset() -> DirtyDataset {
        DirtyDataset::generate(&DirtyConfig::sized(250, NoiseModel::moderate(), 103))
    }

    #[test]
    fn parallel_equals_sequential_for_any_worker_count() {
        let ds = dataset();
        for window in [2usize, 5, 9] {
            let reference = ParallelSortedNeighborhood::new(SortKey::FlattenedValue, window, 1)
                .sequential_reference(&ds.collection);
            for workers in [1usize, 2, 3, 7, 16] {
                let par = ParallelSortedNeighborhood::new(SortKey::FlattenedValue, window, workers)
                    .candidate_pairs(&ds.collection);
                assert_eq!(par, reference, "window={window} workers={workers}");
            }
        }
    }

    #[test]
    fn boundary_windows_are_not_lost() {
        // Tiny collection, many workers: almost every window straddles a
        // partition boundary.
        let ds = DirtyDataset::generate(&DirtyConfig::sized(20, NoiseModel::light(), 5));
        let psn = ParallelSortedNeighborhood::new(SortKey::FlattenedValue, 4, 8);
        assert_eq!(
            psn.candidate_pairs(&ds.collection),
            psn.sequential_reference(&ds.collection)
        );
    }

    #[test]
    fn empty_and_singleton_collections() {
        let empty =
            er_core::collection::EntityCollection::new(er_core::collection::ResolutionMode::Dirty);
        let psn = ParallelSortedNeighborhood::new(SortKey::FlattenedValue, 3, 4);
        assert!(psn.candidate_pairs(&empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn window_of_one_rejected() {
        let _ = ParallelSortedNeighborhood::new(SortKey::FlattenedValue, 1, 2);
    }
}
