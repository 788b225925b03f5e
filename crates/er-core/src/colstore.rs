//! The shells of the retired out-of-core store, kept only because `bench/`
//! names them; delete with ROADMAP direction 1. Nothing here reads or writes
//! a file: the stage checkpoints' file format lives with its one user,
//! `er-pipeline`'s `recovery` module (see `docs/fault_tolerance.md`).

use crate::intern::Fnv1a;
use crate::obs::Obs;
use crate::resource::MemoryBudget;
use crate::{EntityCollection, ResolutionMode};
use std::hash::Hasher;
use std::path::PathBuf;

/// A field-less handle kept only because `bench/` names it; delete with
/// ROADMAP direction 1. Nothing in the store records `colstore.*` metrics.
#[derive(Clone, Debug, Default)]
pub struct StoreMetrics;

impl StoreMetrics {
    /// The shell; `obs` is not read.
    pub fn new(_obs: Obs) -> StoreMetrics {
        StoreMetrics
    }
}

/// The configuration of the retired out-of-core blocking build, kept only
/// because `bench/` names it; delete with ROADMAP direction 1. Its builders
/// discard their arguments, and nothing reads it: the token transpose
/// spills nothing (see `docs/resource_governance.md`).
#[derive(Clone, Debug)]
pub struct OocConfig {
    /// The directory the caller names; nothing is written under it.
    pub segment_dir: PathBuf,
}

impl OocConfig {
    /// A configuration naming `segment_dir`.
    pub fn new(segment_dir: impl Into<PathBuf>) -> OocConfig {
        OocConfig {
            segment_dir: segment_dir.into(),
        }
    }

    /// No-op.
    pub fn with_run_entries(self, _run_entries: usize) -> OocConfig {
        self
    }

    /// No-op.
    pub fn with_fingerprint(self, _fingerprint: u64) -> OocConfig {
        self
    }

    /// No-op.
    pub fn with_budget(self, _budget: MemoryBudget) -> OocConfig {
        self
    }

    /// No-op.
    pub fn with_metrics(self, _metrics: StoreMetrics) -> OocConfig {
        self
    }

    /// No-op.
    pub fn with_page_bytes(self, _page_bytes: u64) -> OocConfig {
        self
    }
}

/// A cheap structural fingerprint of a collection (mode, cardinality, and
/// the per-entity KB/arity shape). Kept only because `bench/` names it;
/// delete with ROADMAP direction 1 (`tests/fnv_golden.rs` pins its value).
pub fn collection_fingerprint(collection: &EntityCollection) -> u64 {
    let mut h = Fnv1a::default();
    h.write(&(collection.len() as u64).to_le_bytes());
    h.write(&[match collection.mode() {
        ResolutionMode::Dirty => 0u8,
        ResolutionMode::CleanClean => 1u8,
    }]);
    for e in collection.iter() {
        h.write(&e.kb().0.to_le_bytes());
        h.write(&(e.attributes().len() as u32).to_le_bytes());
    }
    h.finish()
}
