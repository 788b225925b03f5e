//! Dedoop-style parallel token blocking \[18\].
//!
//! One MapReduce job: mappers tokenize their share of the descriptions and
//! emit `(token, entity)`; reducers materialize one block per token. A
//! combiner is pointless here (keys are unique per entity by construction),
//! but the job demonstrates — and the tests verify — that the parallel
//! result is identical to sequential [`TokenBlocking`].

use crate::engine::{JobStats, MapReduce, INFALLIBLE_JOB};
use er_blocking::block::{Block, BlockCollection};
use er_blocking::TokenBlocking;
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::fault::ExecPolicy;
use er_core::tokenize::Tokenizer;

/// Parallel token blocking over `workers` threads.
#[derive(Clone, Debug)]
pub struct ParallelTokenBlocking {
    workers: usize,
    tokenizer: Tokenizer,
}

impl ParallelTokenBlocking {
    /// Creates the job with the default tokenizer.
    pub fn new(workers: usize) -> Self {
        ParallelTokenBlocking {
            workers,
            tokenizer: Tokenizer::default(),
        }
    }

    /// Builds the blocking collection in parallel, returning job statistics.
    pub fn build(&self, collection: &EntityCollection) -> (BlockCollection, JobStats) {
        let mr: MapReduce<(EntityId, Vec<String>), String, EntityId, Block> =
            MapReduce::new(self.workers);
        // Pre-extract token sets so mapper closures borrow no collection state.
        let inputs: Vec<(EntityId, Vec<String>)> = collection
            .iter()
            .map(|e| (e.id(), e.token_set(&self.tokenizer).into_iter().collect()))
            .collect();
        let (blocks, stats) = mr
            .try_run(
                &inputs,
                &ExecPolicy::default(),
                |(id, tokens), emit| {
                    for t in tokens {
                        emit(t.clone(), *id);
                    }
                },
                |token, ids| {
                    if ids.len() >= 2 {
                        vec![Block::new(token.clone(), ids.to_vec())]
                    } else {
                        vec![]
                    }
                },
            )
            .expect(INFALLIBLE_JOB);
        (BlockCollection::new(blocks), stats)
    }

    /// The sequential reference this job must agree with.
    pub fn sequential_reference(&self, collection: &EntityCollection) -> BlockCollection {
        TokenBlocking::new()
            .with_tokenizer(self.tokenizer.clone())
            .build(collection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};

    fn dataset() -> DirtyDataset {
        DirtyDataset::generate(&DirtyConfig::sized(200, NoiseModel::moderate(), 13))
    }

    #[test]
    fn parallel_equals_sequential_for_any_worker_count() {
        let ds = dataset();
        let reference = ParallelTokenBlocking::new(1).sequential_reference(&ds.collection);
        let ref_pairs = reference.distinct_pairs(&ds.collection);
        for workers in [1, 2, 4, 7] {
            let (blocks, _) = ParallelTokenBlocking::new(workers).build(&ds.collection);
            assert_eq!(blocks.len(), reference.len(), "workers={workers}");
            assert_eq!(
                blocks.distinct_pairs(&ds.collection),
                ref_pairs,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn job_stats_reflect_token_assignments() {
        let ds = dataset();
        let (blocks, stats) = ParallelTokenBlocking::new(4).build(&ds.collection);
        // Every (token, entity) assignment is one map output record.
        assert!(stats.map_output_records > ds.collection.len() as u64);
        // Reducers saw every distinct token, blocks kept only non-singletons.
        assert!(stats.reduce_groups >= blocks.len() as u64);
    }

    #[test]
    fn empty_collection() {
        let c = EntityCollection::new(er_core::collection::ResolutionMode::Dirty);
        let (blocks, stats) = ParallelTokenBlocking::new(3).build(&c);
        assert!(blocks.is_empty());
        assert_eq!(stats.map_output_records, 0);
    }
}
