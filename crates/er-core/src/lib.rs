//! # er-core — foundations for web-scale entity resolution
//!
//! This crate provides the shared substrate used by every other crate in the
//! `webscale-er` workspace, reproducing the framework of the ICDE 2017
//! tutorial *"Web-scale Blocking, Iterative and Progressive Entity
//! Resolution"* (Stefanidis, Christophides, Efthymiou):
//!
//! * a schema-free **data model** for entity descriptions as found in the Web
//!   of data — bags of attribute–value pairs with no global schema
//!   ([`entity`], [`collection`]);
//! * **tokenization and normalization** of attribute values ([`tokenize`]);
//! * **string interning** — dense `Symbol(u32)` ids over token vocabularies,
//!   the substrate of the compact-layout fast paths in blocking and
//!   meta-blocking ([`intern`]);
//! * a library of **similarity functions** over strings and token sets
//!   ([`similarity`]);
//! * **key rows** — every description's blocking keys under a key scheme,
//!   computed once into sorted, rank-ordered symbols in one CSR: the layout
//!   every block-producing family transposes and, under the tokenizer
//!   scheme, the token profiles the token-set matchers decide from
//!   ([`profiles`]);
//! * **matching** abstractions — threshold matchers, rule matchers and a
//!   ground-truth oracle — with comparison accounting ([`matching`]);
//! * **merging** of matched descriptions satisfying the ICAR properties
//!   required by the Swoosh family of algorithms ([`merge`]);
//! * **clustering** of pairwise match decisions into entities via union–find
//!   ([`clusters`]), plus the score-aware clusterings of the clean–clean
//!   literature — unique-mapping, center and merge-center ([`match_clustering`]);
//! * plain-text **persistence** for collections and ground truth ([`io`]);
//! * **ground truth** handling and the **evaluation metrics** used across the
//!   blocking / meta-blocking / progressive ER literature: pair completeness
//!   (PC), pairs quality (PQ), reduction ratio (RR) and progressive recall
//!   curves ([`ground_truth`], [`metrics`]);
//! * **streaming ingest** — bounded arrival queues whose buffered bytes are
//!   charged against a memory budget (typed back-pressure instead of
//!   unbounded buffering) and a malformed-record quarantine with typed
//!   rejection reasons ([`ingest`]);
//! * **fault-tolerance primitives** — deterministic fault injection, retry
//!   policies with deterministic backoff jitter, and speculation rules used
//!   by the execution layers ([`fault`]);
//! * **observability** — a zero-dependency, thread-safe metrics registry
//!   (counters, gauges, log2-bucket histograms), wall-clock spans with parent
//!   nesting, structured warning events with pluggable sinks, and
//!   deterministic JSON snapshots ([`obs`]);
//! * **resource governance** — cloneable atomic memory budgets, per-stage
//!   wall-clock watchdogs, typed exhaustion errors and the pressure
//!   (degradation) ladder the execution layers consult under skewed,
//!   web-scale load ([`resource`]);
//! * the one bounded binary **field codec** under worker frames, task
//!   payloads, shuffle segments and stage checkpoints ([`wire`]), which live
//!   in fingerprinted, checksummed **segment files** ([`colstore`]).
//!
//! Downstream crates build the tutorial's pipeline on top of this: blocking
//! (`er-blocking`), meta-blocking (`er-metablocking`), parallel execution
//! (`er-mapreduce`), iterative ER (`er-iterative`) and progressive ER
//! (`er-progressive`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clusters;
pub mod collection;
pub mod colstore;
pub mod entity;
pub mod fault;
pub mod ground_truth;
pub mod ingest;
pub mod intern;
pub mod io;
pub mod match_clustering;
pub mod matching;
pub mod merge;
pub mod metrics;
pub mod obs;
pub mod pair;
pub mod parallel;
pub mod profiles;
pub mod resource;
pub mod similarity;
pub mod tokenize;
pub mod wire;

pub use collection::{EntityCollection, ResolutionMode};
pub use colstore::{
    EdgeRecord, OocConfig, Segment, SegmentError, SegmentOptions, SegmentWriter, StoreMetrics,
};
pub use entity::{Entity, EntityId, KbId};
pub use fault::{ExecPolicy, FaultInjector, FaultKind, FaultPlan, RetryPolicy};
pub use ground_truth::GroundTruth;
pub use ingest::{
    ArrivalQueue, IngestConfig, IngestError, IngestValidator, QuarantineReason, QuarantineReport,
    RawRecord,
};
pub use intern::{Interner, Symbol};
pub use matching::{CountingMatcher, Matcher};
pub use obs::{Event, EventSink, MetricsSnapshot, Obs};
pub use pair::Pair;
pub use parallel::Parallelism;
pub use resource::{MemoryBudget, PressureLevel, ResourceError, ResourceLimits, Watchdog};
