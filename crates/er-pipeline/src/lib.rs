//! # er-pipeline — the ER workflow of Fig. 1 as one configurable value
//!
//! Composes the stages the ICDE 2017 tutorial's framework figure shows —
//! blocking → block cleaning → meta-blocking → matching → clustering — into
//! a single [`Pipeline`] built with a fluent [`PipelineBuilder`]. Every stage
//! is selected from the algorithms of the lower-level crates, and the run
//! report carries the per-stage comparison counts the evaluation metrics
//! need. The stages are driven in one place — the private stage walk — and
//! every entry point ([`Pipeline::run`], [`Pipeline::run_with_recovery`],
//! [`Pipeline::run_with_matcher`], [`Pipeline::candidates`], …) configures
//! that walk rather than re-implementing it.
//!
//! ```
//! use er_pipeline::{BlockingStage, CleaningStage, MatchingStage, MetaBlockingStage, Pipeline};
//! use er_core::collection::{EntityCollection, ResolutionMode};
//! use er_core::entity::{EntityBuilder, KbId};
//!
//! let mut c = EntityCollection::new(ResolutionMode::Dirty);
//! c.push_entity(KbId(0), EntityBuilder::new().attr("name", "Alan Turing"));
//! c.push_entity(KbId(0), EntityBuilder::new().attr("fullName", "Alan M. Turing"));
//!
//! let pipeline = Pipeline::builder()
//!     .blocking(BlockingStage::Token)
//!     .cleaning(CleaningStage::AutoPurge)
//!     .meta_blocking(MetaBlockingStage::default())
//!     .matching(MatchingStage::jaccard(0.25))
//!     .build();
//! let resolution = pipeline.run(&c);
//! assert_eq!(resolution.clusters.len(), 1, "the two descriptions merge");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recovery;
pub mod streaming;
mod walk;

pub use recovery::{PipelineError, RecoveryEvent, RecoveryOptions, RecoveryOutcome};
pub use streaming::{StreamingConfig, StreamingSession};

use er_blocking::attribute_clustering::AttributeClusteringBlocking;
use er_blocking::block::{blocks_from_groups, blocks_from_profiles, BlockCollection};
use er_blocking::cleaning;
use er_blocking::minhash::MinHashBlocking;
use er_blocking::ooc::blocks_from_profiles_ooc;
use er_blocking::qgrams::QGramsBlocking;
use er_blocking::sorted_neighborhood::SortKey;
use er_blocking::standard::StandardBlocking;
use er_core::collection::EntityCollection;
use er_core::colstore::{collection_fingerprint, OocConfig, StoreMetrics};
use er_core::entity::EntityId;
use er_core::ground_truth::GroundTruth;
use er_core::matching::{Matcher, TfIdfMatcher, ThresholdMatcher};
use er_core::metrics::{BlockingQuality, MatchQuality};
use er_core::obs::{Event, MetricsSnapshot, Obs};
use er_core::pair::Pair;
use er_core::parallel::Parallelism;
use er_core::profiles::{KeyRows, TokenProfiles};
use er_core::resource::{MemoryBudget, ResourceLimits, Watchdog};
use er_core::similarity::SetMeasure;
use er_mapreduce::{
    run_key_transpose, DistOptions, SubprocessConfig, SubprocessTransport, Transport,
};
use er_metablocking::{node_scan, PruningScheme, WeightingScheme};
use recovery::Hooks;
use std::path::PathBuf;
use walk::{Decide, RunProfiles, Walk};

/// `expect` message of the entry points that walk without recovery hooks:
/// there every stage is a direct call, so no [`PipelineError`] can arise.
const NO_HOOKS: &str = "a walk without recovery hooks has no failing path";

/// Candidates per cooperative deadline check in watchdog-governed matching:
/// coarse enough to keep the parallel map efficient, fine enough that an
/// expired deadline stops the stage within one chunk.
const MATCH_CHUNK: usize = 2048;

/// Blocking-stage selection.
#[derive(Clone, Debug)]
pub enum BlockingStage {
    /// Schema-agnostic token blocking (the Web-of-data default).
    Token,
    /// Attribute-clustering blocking.
    AttributeClustering,
    /// Standard key blocking on one attribute.
    StandardKey(String),
    /// Q-grams blocking with the given gram length.
    QGrams(usize),
    /// MinHash-LSH blocking with (bands, rows).
    MinHash(usize, usize),
    /// Multi-pass sorted neighborhood over the given keys and window — a
    /// pair-producing method, so cleaning/meta-blocking are skipped.
    SortedNeighborhood(Vec<SortKey>, usize),
}

/// Where the hot blocking work of a run executes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// In this process, on the thread kernels — the default, and the
    /// bit-exactness oracle for the subprocess backend.
    #[default]
    InProcess,
    /// On supervised OS worker processes speaking the framed protocol of
    /// [`er_mapreduce::proto`], with real crash isolation: every
    /// block-producing stage ships its key rows, as `u32` symbols, to the
    /// distributed `key-transpose` MapReduce job
    /// ([`er_mapreduce::run_key_transpose`]) and the output is
    /// bit-identical to [`Backend::InProcess`]. The pair-producing
    /// [`BlockingStage::SortedNeighborhood`] has no blocks and runs in
    /// process (`er resolve` rejects the combination).
    Subprocess {
        /// Worker process count.
        workers: usize,
    },
}

/// Block-cleaning selection (applies only to block-producing methods).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum CleaningStage {
    /// No cleaning.
    #[default]
    None,
    /// Mean-cardinality block purging.
    AutoPurge,
    /// Purging followed by per-entity block filtering with the given ratio.
    PurgeAndFilter(f64),
}

/// Meta-blocking selection (applies only to block-producing methods).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetaBlockingStage {
    /// Edge weighting scheme.
    pub weighting: WeightingScheme,
    /// Pruning scheme.
    pub pruning: PruningScheme,
}

impl Default for MetaBlockingStage {
    /// ARCS + WNP: the strongest recall-preserving combination in E3.
    fn default() -> Self {
        MetaBlockingStage {
            weighting: WeightingScheme::Arcs,
            pruning: PruningScheme::Wnp,
        }
    }
}

/// Clustering-stage selection: how accepted match pairs become entities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClusteringStage {
    /// Transitive closure (connected components) — the default.
    #[default]
    ConnectedComponents,
    /// Center clustering over the matcher's scores (precision-oriented).
    Center,
    /// Merge-center clustering (between center and closure).
    MergeCenter,
    /// Unique-mapping clustering — clean–clean 1–1 extraction. Match pairs
    /// violating the 1–1 constraint are dropped before closure.
    UniqueMapping,
}

/// Matching-stage selection.
#[derive(Clone, Debug)]
pub enum MatchingStage {
    /// Token-set threshold matcher with a [`SetMeasure`].
    Threshold(SetMeasure, f64),
    /// TF-IDF cosine matcher (corpus statistics derived from the input).
    TfIdf(f64),
}

impl MatchingStage {
    /// Convenience: Jaccard threshold matcher.
    pub fn jaccard(threshold: f64) -> Self {
        MatchingStage::Threshold(SetMeasure::Jaccard, threshold)
    }
}

/// Per-stage accounting of one run. Stage wall-clock is not part of it: the
/// `pipeline.*` spans of an enabled [`Obs`] time the same code.
#[derive(Clone, Debug, Default)]
pub struct StageReport {
    /// Distinct candidate comparisons after blocking (and cleaning).
    pub blocked_comparisons: u64,
    /// Comparisons retained by meta-blocking (equals the above when the
    /// stage is skipped).
    pub scheduled_comparisons: u64,
    /// Comparisons the matcher executed.
    pub matched_comparisons: u64,
    /// Comparisons carried by blocks shed under memory pressure (0 unless a
    /// memory budget was breached) — the run's explicit recall-loss account.
    pub shed_comparisons: u64,
    /// Scheduled comparisons the matcher skipped because the stage deadline
    /// expired (0 unless a stage timeout was configured and hit).
    pub skipped_comparisons: u64,
}

/// The result of a run: clusters plus accounting.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// Accepted match pairs (pre-closure), sorted.
    pub matches: Vec<Pair>,
    /// Connected-component clusters over the matches (singletons included).
    pub clusters: Vec<Vec<EntityId>>,
    /// Per-stage accounting.
    pub report: StageReport,
}

impl Resolution {
    /// Evaluates the run against ground truth: candidate-level
    /// [`BlockingQuality`] is not reconstructable post hoc, so this reports
    /// match-level [`MatchQuality`].
    pub fn evaluate(&self, n_entities: usize, truth: &GroundTruth) -> MatchQuality {
        MatchQuality::measure(n_entities, &self.matches, truth)
    }
}

/// The configured pipeline. Build with [`Pipeline::builder`].
#[derive(Clone, Debug)]
pub struct Pipeline {
    blocking: BlockingStage,
    cleaning: CleaningStage,
    meta_blocking: Option<MetaBlockingStage>,
    matching: MatchingStage,
    clustering: ClusteringStage,
    parallelism: Parallelism,
    obs: Obs,
    limits: ResourceLimits,
    backend: Backend,
    worker_program: Option<PathBuf>,
    segment_dir: Option<PathBuf>,
    out_of_core: bool,
}

impl Pipeline {
    /// Starts a builder with the Web-of-data defaults: token blocking, auto
    /// purging, ARCS/WNP meta-blocking, Jaccard-0.4 matching, serial
    /// execution, observability disabled, no resource limits, in-process
    /// backend.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder {
            pipeline: Pipeline {
                blocking: BlockingStage::Token,
                cleaning: CleaningStage::AutoPurge,
                meta_blocking: Some(MetaBlockingStage::default()),
                matching: MatchingStage::jaccard(0.4),
                clustering: ClusteringStage::default(),
                parallelism: Parallelism::serial(),
                obs: Obs::disabled(),
                limits: ResourceLimits::none(),
                backend: Backend::default(),
                worker_program: None,
                segment_dir: None,
                out_of_core: false,
            },
        }
    }

    /// The pipeline's observability handle (disabled unless the builder
    /// installed one with [`PipelineBuilder::observability`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A point-in-time snapshot of every metric recorded by runs of this
    /// pipeline (empty when observability is disabled).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Runs the pipeline on a collection. With
    /// [`PipelineBuilder::resource_limits`] configured, the blocking index is
    /// charged against the memory budget (shedding oversized blocks on a
    /// breach) and each stage runs under a fresh wall-clock watchdog — both
    /// degradations are reported in the [`StageReport`] instead of aborting.
    pub fn run(&self, collection: &EntityCollection) -> Resolution {
        self.resolve(collection, Hooks::none(&self.obs))
            .expect(NO_HOOKS)
            .resolution
    }

    /// Runs the pipeline under a fault-tolerance policy: per-stage retry
    /// with deterministic backoff, optional checkpoint/resume, and graceful
    /// degradation of meta-blocking. It is the walk of [`Pipeline::run`]
    /// with the recovery hooks of `opts` around each stage, so a run that
    /// completes without degradation produces the same [`Resolution`].
    pub fn run_with_recovery(
        &self,
        collection: &EntityCollection,
        opts: &RecoveryOptions,
    ) -> Result<RecoveryOutcome, PipelineError> {
        self.resolve(collection, Hooks::recovering(self, collection, opts))
    }

    /// The whole walk with the configured matching stage as its matching
    /// step, under the given recovery hooks.
    fn resolve(
        &self,
        collection: &EntityCollection,
        hooks: Hooks,
    ) -> Result<RecoveryOutcome, PipelineError> {
        Walk::begin(self, collection, hooks).resolve(Decide::Configured)
    }

    /// Runs the pipeline with a caller-supplied matcher instead of the
    /// configured matching stage (e.g. an oracle for calibration). The
    /// comparisons run serially — `M` need not be `Sync` — but under the
    /// same stage watchdog, spans and run counters as [`Pipeline::run`].
    pub fn run_with_matcher<M: Matcher>(
        &self,
        collection: &EntityCollection,
        matcher: &M,
    ) -> Resolution {
        Walk::begin(self, collection, Hooks::none(&self.obs))
            .resolve(Decide::Caller(&|slice| {
                slice
                    .iter()
                    .filter_map(|&p| {
                        let d = er_core::matching::compare_pair(collection, matcher, p);
                        d.is_match.then_some((p, d.score))
                    })
                    .collect()
            }))
            .expect(NO_HOOKS)
            .resolution
    }

    /// The candidate comparisons the configured blocking + cleaning +
    /// meta-blocking stages produce (no matching) — the input a progressive
    /// scheduler would consume.
    pub fn candidates(&self, collection: &EntityCollection) -> Vec<Pair> {
        self.scheduled(collection).1
    }

    /// The schedule half of a walk without recovery hooks, and the walk —
    /// still open, so its profiles can be read.
    fn scheduled<'a>(&'a self, collection: &'a EntityCollection) -> (Walk<'a>, Vec<Pair>) {
        let mut walk = Walk::begin(self, collection, Hooks::none(&self.obs));
        let candidates = walk.schedule().expect(NO_HOOKS);
        (walk, candidates)
    }

    /// Records the per-run pipeline counters (cumulative across runs).
    pub(crate) fn record_run_counters(
        &self,
        report: &StageReport,
        matches: &[Pair],
        clusters: &[Vec<EntityId>],
    ) {
        if !self.obs.is_enabled() {
            return;
        }
        for (name, value) in [
            ("pipeline.blocked_comparisons", report.blocked_comparisons),
            (
                "pipeline.scheduled_comparisons",
                report.scheduled_comparisons,
            ),
            ("pipeline.matched_comparisons", report.matched_comparisons),
            ("pipeline.matches", matches.len() as u64),
            ("pipeline.clusters", clusters.len() as u64),
        ] {
            self.obs.counter(name).add(value);
        }
    }

    /// Runs the configured matching stage over the candidates under a stage
    /// watchdog, keeping the scores the score-aware clustering stages need.
    /// The matcher decides on the run's token profiles (TF-IDF derives its
    /// corpus statistics from them too), so deadline-checked chunks only
    /// decide; the decisions run under the configured parallelism as an
    /// order-preserving map, so the match list is identical at every thread
    /// count.
    pub(crate) fn score_candidates_governed(
        &self,
        profiles: &TokenProfiles,
        candidates: &[Pair],
        watchdog: &Watchdog,
    ) -> (Vec<(Pair, f64)>, u64) {
        let par = self.parallelism;
        let matcher = match &self.matching {
            MatchingStage::Threshold(measure, threshold) => {
                ThresholdMatcher::new(*measure, *threshold).prepare_on(profiles)
            }
            MatchingStage::TfIdf(threshold) => {
                TfIdfMatcher::from_profiles(profiles, *threshold).prepare_on(profiles)
            }
        };
        self.governed_decide(candidates, watchdog, |slice| {
            matcher
                .decide_batch(slice, par)
                .into_iter()
                .filter_map(|(p, d)| d.is_match.then_some((p, d.score)))
                .collect()
        })
    }

    /// Runs a matching step (`decide`: slice → accepted pairs with scores)
    /// over the candidates under the stage watchdog.
    ///
    /// Disarmed, this is the exact whole-slice call (bit-identical,
    /// no chunking overhead). Armed, the candidates run in fixed-size chunks
    /// with the deadline checked cooperatively between chunks; once it
    /// expires the remaining comparisons are *skipped* — the count is
    /// returned, mirrored as `matching.comparisons_skipped` and announced as
    /// a warning event. The chunked prefix is bit-identical to the
    /// whole-slice run because `decide` is an order-preserving pure map.
    pub(crate) fn governed_decide(
        &self,
        candidates: &[Pair],
        watchdog: &Watchdog,
        decide: impl Fn(&[Pair]) -> Vec<(Pair, f64)>,
    ) -> (Vec<(Pair, f64)>, u64) {
        if !watchdog.is_armed() {
            return (decide(candidates), 0);
        }
        let mut scored = Vec::new();
        let mut done = 0usize;
        for chunk in candidates.chunks(MATCH_CHUNK) {
            if watchdog.expired() {
                break;
            }
            scored.extend(decide(chunk));
            done += chunk.len();
        }
        let skipped = (candidates.len() - done) as u64;
        if skipped > 0 {
            self.obs
                .counter("matching.comparisons_skipped")
                .add(skipped);
            self.obs.emit(Event::Warning {
                stage: "matching".to_string(),
                reason: format!(
                    "stage deadline expired: skipped {skipped} of {} scheduled comparison(s)",
                    candidates.len()
                ),
            });
        }
        (scored, skipped)
    }

    /// Applies the configured clustering stage to scored match pairs,
    /// returning the (possibly constraint-filtered) match pairs and the
    /// clusters.
    pub(crate) fn cluster(
        &self,
        collection: &EntityCollection,
        scored_matches: Vec<(Pair, f64)>,
    ) -> (Vec<Pair>, Vec<Vec<EntityId>>) {
        use er_core::match_clustering as mc;
        let n = collection.len();
        match self.clustering {
            ClusteringStage::ConnectedComponents => {
                let mut matches: Vec<Pair> = scored_matches.into_iter().map(|(p, _)| p).collect();
                matches.sort();
                let clusters = er_core::clusters::components_from_matches(n, &matches);
                (matches, clusters)
            }
            ClusteringStage::Center => {
                let clusters = mc::center_clustering(n, &scored_matches, 0.0);
                let matches = cluster_pairs(&clusters);
                (matches, clusters)
            }
            ClusteringStage::MergeCenter => {
                let clusters = mc::merge_center_clustering(n, &scored_matches, 0.0);
                let matches = cluster_pairs(&clusters);
                (matches, clusters)
            }
            ClusteringStage::UniqueMapping => {
                let matches = mc::unique_mapping_clustering(collection, &scored_matches, 0.0);
                let clusters = er_core::clusters::components_from_matches(n, &matches);
                (matches, clusters)
            }
        }
    }

    /// Builds and cleans the blocking collection for a block-producing
    /// stage, then admits it under the memory budget. Every family is the
    /// transpose of its key rows — token blocking's are the run's
    /// `profiles`, the others' are keyed here under the configured
    /// parallelism — so every family builds the same three ways: in memory,
    /// out of core, or as the distributed key-blocking job on the
    /// subprocess backend.
    ///
    /// An in-memory index is charged against the budget (shedding oversized
    /// blocks largest-first on a breach — a disabled budget admits
    /// everything untouched), unless a segment dir is set and the charge
    /// would breach: then it is rebuilt out of core instead. An out-of-core
    /// build already ran under the budget's pager governance and is
    /// admitted whole.
    pub(crate) fn build_blocks(
        &self,
        collection: &EntityCollection,
        stage: &BlockingStage,
        budget: &MemoryBudget,
        profiles: &RunProfiles,
    ) -> er_blocking::governance::GovernedBlocks {
        let family_rows;
        let rows = match stage {
            BlockingStage::Token => profiles.get(),
            other => {
                family_rows = self.key_rows(collection, other);
                &family_rows
            }
        };
        let clean = |blocks| self.clean_blocks(blocks, collection, &self.obs);
        let cleaned = match self.backend {
            Backend::Subprocess { workers } => {
                let mut transport = SubprocessTransport::new(self.subprocess_config(workers));
                clean(self.dist_blocks(rows, &mut transport, workers))
            }
            Backend::InProcess if self.out_of_core => {
                let blocks = self.ooc_blocks(collection, rows, "blocking", &self.obs, budget);
                return admitted_uncharged(clean(blocks));
            }
            Backend::InProcess => {
                let cleaned = clean(blocks_from_profiles(rows, &self.obs));
                if budget.is_enabled() && self.segment_dir.is_some() {
                    // Spill-to-segment rescue: probe the admission charge
                    // first, and when it would breach, rebuild out-of-core
                    // instead of letting `charge_or_shed` drop blocks —
                    // bounded memory *and* zero recall loss, at a reported
                    // slowdown.
                    let total: u64 = cleaned
                        .blocks()
                        .iter()
                        .map(er_blocking::governance::block_bytes)
                        .sum();
                    if budget.try_reserve("blocking", total).is_err() {
                        drop(cleaned); // free the trial index before the rebuild
                        return self.spill_rescue(collection, rows, total, budget);
                    }
                    budget.release(total);
                }
                cleaned
            }
        };
        er_blocking::governance::charge_or_shed(cleaned, collection, budget, &self.obs)
    }

    /// The key rows of a block-producing family other than token blocking,
    /// keyed under the configured parallelism (token blocking's rows are the
    /// run's profiles).
    fn key_rows(&self, collection: &EntityCollection, stage: &BlockingStage) -> KeyRows {
        let par = self.parallelism;
        match stage {
            BlockingStage::AttributeClustering => {
                AttributeClusteringBlocking::new().key_rows(collection, par)
            }
            BlockingStage::StandardKey(attr) => KeyRows::build(
                collection,
                &StandardBlocking::on_attribute(attr.clone()),
                par,
            ),
            BlockingStage::QGrams(q) => KeyRows::build(collection, &QGramsBlocking::new(*q), par),
            BlockingStage::MinHash(bands, rows) => {
                KeyRows::build(collection, &MinHashBlocking::new(*bands, *rows), par)
            }
            BlockingStage::Token | BlockingStage::SortedNeighborhood(..) => {
                unreachable!("token rows are the run's profiles; a pair-producing stage has none")
            }
        }
    }

    /// Applies the configured cleaning stage. The cleaning span is recorded
    /// even for `CleaningStage::None`, so a snapshot always covers all five
    /// Fig. 1 stages for block-based runs.
    fn clean_blocks(
        &self,
        blocks: BlockCollection,
        collection: &EntityCollection,
        obs: &Obs,
    ) -> BlockCollection {
        let cleaning_span = obs.span("pipeline.cleaning");
        let cleaned = match self.cleaning {
            CleaningStage::None => blocks,
            CleaningStage::AutoPurge => cleaning::auto_purge(&blocks, collection),
            CleaningStage::PurgeAndFilter(ratio) => {
                let purged = cleaning::auto_purge(&blocks, collection);
                cleaning::filter_blocks(&purged, collection, ratio)
            }
        };
        cleaning_span.finish();
        if obs.is_enabled() && self.cleaning != CleaningStage::None {
            obs.counter("cleaning.blocks_kept")
                .add(cleaned.len() as u64);
        }
        cleaned
    }

    /// Rebuilds the blocking index out-of-core after the in-memory index
    /// failed admission. The duplicated stage counters (`blocking.*`, block
    /// histogram, cleaning) were already recorded by the trial build, so the
    /// rebuild runs with observability off — only `colstore.*` metrics flow
    /// through the store handle. The rescued blocks are returned uncharged:
    /// they exceed the budget by construction, and the explicit account of
    /// that is the `colstore.spill_rescues` counter plus the warning event,
    /// not a shed count.
    fn spill_rescue(
        &self,
        collection: &EntityCollection,
        rows: &KeyRows,
        index_bytes: u64,
        budget: &MemoryBudget,
    ) -> er_blocking::governance::GovernedBlocks {
        let quiet = Obs::disabled();
        let rebuilt = self.ooc_blocks(collection, rows, "blocking-rescue", &quiet, budget);
        let cleaned = self.clean_blocks(rebuilt, collection, &quiet);
        self.obs.counter("colstore.spill_rescues").incr();
        self.obs.emit(Event::Warning {
            stage: "blocking".to_string(),
            reason: format!(
                "memory budget breach: {index_bytes} byte blocking index exceeds \
                 the {} byte budget; rebuilt out-of-core with zero comparisons shed",
                budget.limit().unwrap_or(0)
            ),
        });
        admitted_uncharged(cleaned)
    }

    /// The transpose of `rows` streamed through sorted on-disk runs under a
    /// fresh spill directory, which is removed **before** the build's error
    /// is surfaced, so a failed attempt — and each retry of it — leaves
    /// nothing behind.
    fn ooc_blocks(
        &self,
        collection: &EntityCollection,
        rows: &KeyRows,
        stage: &str,
        obs: &Obs,
        budget: &MemoryBudget,
    ) -> BlockCollection {
        let cfg = self.ooc_config(collection, stage, budget);
        let result = blocks_from_profiles_ooc(rows, obs, &cfg);
        let _ = std::fs::remove_dir(&cfg.segment_dir);
        result.unwrap_or_else(|e| panic!("out-of-core {stage} failed: {e}"))
    }

    /// Prunes candidates with the configured meta-blocking stage: the
    /// node-centric scan, in every execution mode — it reads the blocks and
    /// holds nothing worth spilling, so an out-of-core run differs from an
    /// in-memory one only in how its blocks were built. Returns the kept
    /// pairs and the number of distinct blocked comparisons, which the scan
    /// counts without anyone enumerating them.
    pub(crate) fn meta_block(
        &self,
        collection: &EntityCollection,
        blocks: &BlockCollection,
        mb: MetaBlockingStage,
    ) -> (Vec<Pair>, u64) {
        let pruned = node_scan(
            collection,
            blocks,
            mb.weighting,
            mb.pruning,
            self.parallelism,
            &self.obs,
        );
        (pruned.kept, pruned.blocked_comparisons)
    }

    /// The out-of-core configuration for one stage of one run: a fresh
    /// per-call spill directory (concurrent runs never collide on run
    /// files), the collection's fingerprint binding every segment to its
    /// input, the run's budget, and store metrics flowing into the
    /// pipeline's obs handle. Index-building stages have no safe early-exit
    /// point (`note_overrun` reports late completion instead), so the
    /// config's watchdog stays disarmed — deadline-aborted merges are an
    /// `OocConfig` capability for callers that *want* typed mid-merge
    /// failure. With a budget configured, the run buffer and merge pages are
    /// sized to fractions of it so the spill machinery itself fits inside.
    fn ooc_config(
        &self,
        collection: &EntityCollection,
        stage: &str,
        budget: &MemoryBudget,
    ) -> OocConfig {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = self.segment_dir.clone().unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "er-ooc-{stage}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let mut cfg = OocConfig::new(dir)
            .with_fingerprint(collection_fingerprint(collection))
            .with_metrics(StoreMetrics::new(self.obs.clone()));
        if let Some(limit) = budget.limit() {
            cfg = cfg
                .with_run_entries((limit / 64).clamp(64, 64 * 1024) as usize)
                .with_page_bytes((limit / 8).clamp(512, 16 * 1024));
        }
        cfg.with_budget(budget.clone())
    }

    /// The worker-pool configuration of the subprocess backend: the
    /// configured worker program (default: re-exec the current binary with
    /// `--worker`), the run's memory budget as the pool's total allotment,
    /// and the pipeline's obs handle so `worker.*` counters land in the same
    /// snapshot as the stage metrics.
    fn subprocess_config(&self, workers: usize) -> SubprocessConfig {
        let mut cfg = SubprocessConfig::new(workers);
        cfg.program = self.worker_program.clone();
        cfg.budget_total = self.limits.memory_bytes.unwrap_or(0);
        cfg.policy = er_core::fault::ExecPolicy::default().with_obs(self.obs.clone());
        cfg
    }

    /// The transpose of `rows` as the distributed `key-transpose` job on
    /// `transport`: the rows travel as `u32` symbols, and each block's key
    /// is rendered once, from the rows' vocabulary, here.
    ///
    /// The job returns every shared symbol's members in symbol order, which
    /// is the lexicographic key order of the in-process transpose, so the
    /// returned collection — and every `blocking.*` counter — is
    /// bit-identical to [`blocks_from_profiles`]. A typed [`er_mapreduce`]
    /// execution error (worker crash loop, handshake rejection, stage
    /// deadline, a malformed shuffle segment or result) panics with its
    /// message, which the recovery layer catches and retries like any other
    /// blocking-stage fault.
    fn dist_blocks(
        &self,
        rows: &KeyRows,
        transport: &mut dyn Transport,
        workers: usize,
    ) -> BlockCollection {
        let out = run_key_transpose(transport, rows, &DistOptions::for_workers(workers))
            .unwrap_or_else(|e| panic!("distributed blocking failed: {e}"));
        out.stats.record_obs(&self.obs);
        blocks_from_groups(rows, out.blocks, &self.obs)
    }

    /// Runs the pipeline *progressively*: this pipeline's blocking stages
    /// produce the candidates, the sorted-pairs hint (cheap Jaccard scores,
    /// read off the walk's token profiles) schedules them, and
    /// [`er_progressive::run`] executes the schedule under `budget` with
    /// `truth` as an oracle matcher — the configured `MatchingStage` is not
    /// consulted, so the recall curve measures the schedule alone. The
    /// `pipeline.progressive` span, under `pipeline.run`, covers scoring,
    /// sorting and the run: the scheduling phase is what §IV adds to the
    /// workflow.
    pub fn run_progressive(
        &self,
        collection: &EntityCollection,
        truth: &GroundTruth,
        budget: er_progressive::Budget,
    ) -> er_progressive::ProgressiveOutcome {
        let (walk, candidates) = self.scheduled(collection);
        // The schedule is scored from the profiles that blocked it.
        let profiles = walk.profiles();
        let span = self.obs.span("pipeline.progressive");
        let scored =
            er_progressive::hints::score_pairs_on(profiles, &candidates, SetMeasure::Jaccard);
        let schedule = er_progressive::hints::sorted_pair_list(&scored);
        let oracle = er_core::matching::OracleMatcher::new(truth);
        let out = er_progressive::run(
            collection,
            &oracle,
            schedule.into_iter(),
            budget,
            truth,
            &self.obs,
        );
        span.finish();
        out
    }

    /// Candidate-level quality of this pipeline's blocking stages.
    pub fn candidate_quality(
        &self,
        collection: &EntityCollection,
        truth: &GroundTruth,
    ) -> BlockingQuality {
        BlockingQuality::measure(
            &self.candidates(collection),
            truth,
            collection.total_possible_comparisons(),
        )
    }
}

/// Admits an index whole without charging it: the build that produced it
/// already ran under the budget's pager governance.
fn admitted_uncharged(blocks: BlockCollection) -> er_blocking::governance::GovernedBlocks {
    er_blocking::governance::GovernedBlocks {
        blocks,
        reserved_bytes: 0,
        shed_blocks: 0,
        shed_comparisons: 0,
    }
}

/// Within-cluster pairs of a clustering (sorted), used when a clustering
/// stage redefines the accepted matches.
fn cluster_pairs(clusters: &[Vec<EntityId>]) -> Vec<Pair> {
    er_core::ground_truth::GroundTruth::from_clusters(clusters.iter())
        .iter()
        .collect()
}

/// Fluent builder for [`Pipeline`].
#[derive(Clone, Debug)]
pub struct PipelineBuilder {
    pipeline: Pipeline,
}

impl PipelineBuilder {
    /// Selects the blocking stage.
    pub fn blocking(mut self, stage: BlockingStage) -> Self {
        self.pipeline.blocking = stage;
        self
    }

    /// Selects the cleaning stage.
    pub fn cleaning(mut self, stage: CleaningStage) -> Self {
        self.pipeline.cleaning = stage;
        self
    }

    /// Selects the meta-blocking stage.
    pub fn meta_blocking(mut self, stage: MetaBlockingStage) -> Self {
        self.pipeline.meta_blocking = Some(stage);
        self
    }

    /// Disables meta-blocking.
    pub fn no_meta_blocking(mut self) -> Self {
        self.pipeline.meta_blocking = None;
        self
    }

    /// Selects the matching stage.
    pub fn matching(mut self, stage: MatchingStage) -> Self {
        self.pipeline.matching = stage;
        self
    }

    /// Selects the clustering stage.
    pub fn clustering(mut self, stage: ClusteringStage) -> Self {
        self.pipeline.clustering = stage;
        self
    }

    /// Sets the execution parallelism of the hot kernels (blocking,
    /// meta-blocking, matching). The result of a run is bit-identical at
    /// every setting — parallelism only changes wall-clock time.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.pipeline.parallelism = par;
        self
    }

    /// Installs an observability handle: runs record per-stage spans,
    /// counters and histograms into it, and recovery warnings go through its
    /// event sink. The default is [`Obs::disabled`], whose record paths are
    /// no-ops.
    pub fn observability(mut self, obs: Obs) -> Self {
        self.pipeline.obs = obs;
        self
    }

    /// Sets the run's resource limits: a memory budget charged by the
    /// blocking index (breaches shed oversized blocks with the recall loss
    /// reported in [`StageReport::shed_comparisons`]) and a per-stage
    /// wall-clock deadline (matching truncates cooperatively into
    /// [`StageReport::skipped_comparisons`]; index-building stages complete
    /// and report the overrun). The default, [`ResourceLimits::none`], makes
    /// every governed path a no-op — an ungoverned run is bit-identical.
    pub fn resource_limits(mut self, limits: ResourceLimits) -> Self {
        self.pipeline.limits = limits;
        self
    }

    /// Selects the execution backend: [`Backend::InProcess`] (default,
    /// unchanged semantics) or [`Backend::Subprocess`], which runs the
    /// blocking of every block-producing stage on supervised worker
    /// processes with real crash isolation.
    /// The resolution is bit-identical either way.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.pipeline.backend = backend;
        self
    }

    /// Overrides the worker executable of the subprocess backend. The
    /// default re-execs the current binary with `--worker`, which is correct
    /// for binaries that call [`er_mapreduce::worker::maybe_worker_entry`]
    /// first in `main` (the `er` CLI does); test harnesses point this at a
    /// dedicated worker binary instead.
    pub fn worker_program(mut self, program: impl Into<PathBuf>) -> Self {
        self.pipeline.worker_program = Some(program.into());
        self
    }

    /// Sets the directory for out-of-core segment spill files. With a
    /// memory budget configured, an in-process blocking index that would
    /// breach the budget is **rebuilt out-of-core** under this directory
    /// instead of shedding blocks — bit-identical output, zero recall loss,
    /// at a reported slowdown. Each run spills into a fresh per-run
    /// subdirectory, so concurrent pipelines sharing one segment dir never
    /// collide; spill files are removed before the stage returns.
    pub fn segment_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.pipeline.segment_dir = Some(dir.into());
        self
    }

    /// Forces the out-of-core build path unconditionally: every
    /// block-producing stage streams its key postings through sorted on-disk
    /// runs regardless of budget pressure. Nothing else spills: the
    /// subprocess backend's job already shuffles through its own segment
    /// files, meta-blocking scans the blocks node by node, and
    /// [`BlockingStage::SortedNeighborhood`] builds no blocks (`er resolve`
    /// rejects `--ooc` with it). Output is bit-identical to the in-memory
    /// path (the equivalence is property-tested); the point is bounded
    /// stage memory.
    /// Spill files land under [`segment_dir`](PipelineBuilder::segment_dir)
    /// when set, the system temp dir otherwise.
    pub fn out_of_core(mut self, enabled: bool) -> Self {
        self.pipeline.out_of_core = enabled;
        self
    }

    /// Finalizes the pipeline.
    pub fn build(self) -> Pipeline {
        self.pipeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
    use std::time::Duration;

    fn dataset() -> DirtyDataset {
        DirtyDataset::generate(&DirtyConfig::sized(300, NoiseModel::light(), 101))
    }

    #[test]
    fn default_pipeline_resolves_with_good_quality() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let res = p.run(&ds.collection);
        let q = res.evaluate(ds.collection.len(), &ds.truth);
        assert!(q.precision() > 0.9, "precision {}", q.precision());
        assert!(q.recall() > 0.6, "recall {}", q.recall());
        assert!(res.report.scheduled_comparisons <= res.report.blocked_comparisons);
        assert!(res.report.blocked_comparisons > 0);
    }

    #[test]
    fn no_meta_blocking_schedules_all_blocked_pairs() {
        let ds = dataset();
        let p = Pipeline::builder()
            .no_meta_blocking()
            .cleaning(CleaningStage::None)
            .build();
        let res = p.run(&ds.collection);
        assert_eq!(
            res.report.scheduled_comparisons,
            res.report.blocked_comparisons
        );
    }

    #[test]
    fn meta_blocking_reduces_scheduled_comparisons() {
        let ds = dataset();
        let with = Pipeline::builder().build().run(&ds.collection);
        let without = Pipeline::builder()
            .no_meta_blocking()
            .build()
            .run(&ds.collection);
        assert!(with.report.scheduled_comparisons < without.report.scheduled_comparisons);
    }

    #[test]
    fn sorted_neighborhood_pipeline_skips_block_stages() {
        let ds = dataset();
        let p = Pipeline::builder()
            .blocking(BlockingStage::SortedNeighborhood(
                vec![SortKey::FlattenedValue],
                8,
            ))
            .observability(Obs::enabled())
            .build();
        let res = p.run(&ds.collection);
        let snap = p.metrics();
        assert!(snap.span("pipeline.blocking").is_some());
        assert!(snap.span("pipeline.cleaning").is_none());
        assert!(snap.span("pipeline.meta_blocking").is_none());
        assert_eq!(
            res.report.scheduled_comparisons,
            res.report.blocked_comparisons
        );
        assert!(!res.matches.is_empty());
    }

    #[test]
    fn minhash_pipeline_runs() {
        let ds = dataset();
        let p = Pipeline::builder()
            .blocking(BlockingStage::MinHash(6, 2))
            .cleaning(CleaningStage::None)
            .no_meta_blocking()
            .matching(MatchingStage::jaccard(0.5))
            .build();
        let res = p.run(&ds.collection);
        let q = res.evaluate(ds.collection.len(), &ds.truth);
        assert!(q.precision() > 0.9);
        assert!(
            q.recall() > 0.4,
            "LSH at its threshold keeps most: {}",
            q.recall()
        );
    }

    #[test]
    fn tfidf_matching_stage_works() {
        let ds = dataset();
        let p = Pipeline::builder()
            .matching(MatchingStage::TfIdf(0.5))
            .build();
        let res = p.run(&ds.collection);
        let q = res.evaluate(ds.collection.len(), &ds.truth);
        assert!(q.f1() > 0.5, "f1 {}", q.f1());
    }

    #[test]
    fn dist_token_blocking_matches_the_in_process_build() {
        // The distributed key-transpose path (here on the in-process
        // transport, the oracle both backends share) rebuilds the exact
        // BlockCollection the thread kernels produce — block keys, order,
        // and members — at several worker counts.
        let ds = dataset();
        let tokenizer = er_core::tokenize::Tokenizer::default();
        let profiles = TokenProfiles::build(&ds.collection, &tokenizer, Parallelism::serial());
        let reference = er_blocking::TokenBlocking::new().build(&ds.collection);
        let p = Pipeline::builder().build();
        for workers in [1usize, 3] {
            let mut t = er_mapreduce::InProcessTransport::new(
                workers,
                er_mapreduce::default_registry(),
                er_core::fault::ExecPolicy::default(),
            );
            let got = p.dist_blocks(&profiles, &mut t, workers);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn candidates_match_run_schedule() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let cands = p.candidates(&ds.collection);
        let res = p.run(&ds.collection);
        assert_eq!(cands.len() as u64, res.report.scheduled_comparisons);
    }

    #[test]
    fn candidate_quality_reports_metrics() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let q = p.candidate_quality(&ds.collection, &ds.truth);
        assert!(q.pc() > 0.7);
        assert!(q.rr() > 0.9);
    }

    #[test]
    fn oracle_matcher_override() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let oracle = er_core::matching::OracleMatcher::new(&ds.truth);
        let res = p.run_with_matcher(&ds.collection, &oracle);
        let q = res.evaluate(ds.collection.len(), &ds.truth);
        assert_eq!(q.precision(), 1.0, "oracle never errs");
    }

    #[test]
    fn progressive_run_front_loads_recall() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let total = p.candidates(&ds.collection).len() as u64;
        // Meta-blocked candidates are already match-dense, so size the
        // budget relative to the matches to find rather than the schedule.
        let budget = (total / 4).max(2 * ds.truth.len() as u64);
        let out = p.run_progressive(
            &ds.collection,
            &ds.truth,
            er_progressive::Budget::Comparisons(budget),
        );
        let full = p.run_progressive(&ds.collection, &ds.truth, er_progressive::Budget::Unlimited);
        assert!(out.comparisons <= budget);
        assert!(
            out.curve.final_recall() > 0.8 * full.curve.final_recall(),
            "a sorted schedule front-loads recall: {} vs {}",
            out.curve.final_recall(),
            full.curve.final_recall()
        );
    }

    #[test]
    fn unique_mapping_stage_enforces_one_to_one() {
        let ds = er_datagen::CleanCleanDataset::generate(&er_datagen::CleanCleanConfig {
            shared_entities: 100,
            only_first: 50,
            only_second: 50,
            seed: 151,
            ..Default::default()
        });
        let p = Pipeline::builder()
            .clustering(ClusteringStage::UniqueMapping)
            .matching(MatchingStage::jaccard(0.2))
            .build();
        let res = p.run(&ds.collection);
        let mut used = std::collections::BTreeSet::new();
        for m in &res.matches {
            assert!(used.insert(m.first()), "entity matched twice");
            assert!(used.insert(m.second()), "entity matched twice");
        }
        let q = res.evaluate(ds.collection.len(), &ds.truth);
        let loose = Pipeline::builder()
            .matching(MatchingStage::jaccard(0.2))
            .build()
            .run(&ds.collection)
            .evaluate(ds.collection.len(), &ds.truth);
        assert!(
            q.precision() >= loose.precision(),
            "1-1 constraint must not hurt precision: {} vs {}",
            q.precision(),
            loose.precision()
        );
    }

    #[test]
    fn center_stage_produces_no_larger_clusters_than_closure() {
        let ds = dataset();
        let center = Pipeline::builder()
            .clustering(ClusteringStage::Center)
            .build()
            .run(&ds.collection);
        let closure = Pipeline::builder().build().run(&ds.collection);
        let max_size = |r: &Resolution| r.clusters.iter().map(Vec::len).max().unwrap_or(0);
        assert!(max_size(&center) <= max_size(&closure));
    }

    #[test]
    fn empty_collection() {
        let c = EntityCollection::new(er_core::collection::ResolutionMode::Dirty);
        let res = Pipeline::builder().build().run(&c);
        assert!(res.matches.is_empty());
        assert!(res.clusters.is_empty());
    }

    #[test]
    fn generous_resource_limits_are_bit_identical_to_no_limits() {
        let ds = dataset();
        let plain = Pipeline::builder().build().run(&ds.collection);
        let governed = Pipeline::builder()
            .resource_limits(
                ResourceLimits::none()
                    .with_memory_bytes(1 << 30)
                    .with_stage_timeout(Duration::from_secs(3600)),
            )
            .build()
            .run(&ds.collection);
        assert_eq!(governed.matches, plain.matches);
        assert_eq!(governed.clusters, plain.clusters);
        assert_eq!(
            governed.report.scheduled_comparisons,
            plain.report.scheduled_comparisons
        );
        assert_eq!(governed.report.shed_comparisons, 0);
        assert_eq!(governed.report.skipped_comparisons, 0);
    }

    #[test]
    fn tiny_memory_budget_sheds_blocks_instead_of_aborting() {
        let ds = dataset();
        let plain = Pipeline::builder().build().run(&ds.collection);
        let governed = Pipeline::builder()
            .resource_limits(ResourceLimits::none().with_memory_bytes(4096))
            .build()
            .run(&ds.collection);
        assert!(
            governed.report.shed_comparisons > 0,
            "a 4 KiB budget must shed: {:?}",
            governed.report
        );
        assert!(governed.report.blocked_comparisons < plain.report.blocked_comparisons);
        assert!(
            governed.report.blocked_comparisons > 0,
            "smallest blocks fit"
        );
    }

    #[test]
    fn zero_stage_deadline_truncates_matching_not_panics() {
        let ds = dataset();
        let governed = Pipeline::builder()
            .resource_limits(ResourceLimits::none().with_stage_timeout(Duration::ZERO))
            .build()
            .run(&ds.collection);
        assert_eq!(
            governed.report.skipped_comparisons,
            governed.report.scheduled_comparisons
        );
        assert!(governed.report.scheduled_comparisons > 0);
        assert_eq!(governed.report.matched_comparisons, 0);
        assert!(governed.matches.is_empty());
        // Every entity survives as a singleton cluster.
        assert_eq!(governed.clusters.len(), ds.collection.len());
    }

    fn ooc_tmp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "er-pipeline-ooc-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn out_of_core_run_is_bit_identical_to_default() {
        let ds = dataset();
        let plain = Pipeline::builder().build().run(&ds.collection);
        let dir = ooc_tmp_dir("forced");
        for threads in [1, 4] {
            let ooc = Pipeline::builder()
                .parallelism(Parallelism::threads(threads))
                .segment_dir(&dir)
                .out_of_core(true)
                .build()
                .run(&ds.collection);
            assert_eq!(ooc.matches, plain.matches, "{threads} threads");
            assert_eq!(ooc.clusters, plain.clusters, "{threads} threads");
            assert_eq!(
                ooc.report.scheduled_comparisons, plain.report.scheduled_comparisons,
                "{threads} threads"
            );
            assert_eq!(ooc.report.shed_comparisons, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_core_run_records_colstore_metrics() {
        let ds = dataset();
        let dir = ooc_tmp_dir("metrics");
        let p = Pipeline::builder()
            .observability(Obs::enabled())
            .segment_dir(&dir)
            .out_of_core(true)
            .build();
        p.run(&ds.collection);
        let snap = p.metrics();
        let written = snap.counter("colstore.segments_written").unwrap_or(0);
        assert!(written > 0, "forced ooc must write segments: {snap:?}");
        assert!(snap.counter("colstore.segment_bytes").unwrap_or(0) > 0);
        assert!(snap.counter("colstore.runs_merged").unwrap_or(0) >= written);
        assert_eq!(
            snap.gauge("colstore.resident_bytes"),
            Some(0.0),
            "all pages released after the run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_budget_with_segment_dir_rescues_instead_of_shedding() {
        let ds = dataset();
        let plain = Pipeline::builder().build().run(&ds.collection);
        let dir = ooc_tmp_dir("rescue");
        let obs = Obs::enabled();
        let rescued = Pipeline::builder()
            .observability(obs.clone())
            .resource_limits(ResourceLimits::none().with_memory_bytes(4096))
            .segment_dir(&dir)
            .build()
            .run(&ds.collection);
        // The same 4 KiB budget that sheds without a segment dir (see
        // `tiny_memory_budget_sheds_blocks_instead_of_aborting`) now resolves
        // bit-identically with zero recall loss.
        assert_eq!(rescued.report.shed_comparisons, 0, "{:?}", rescued.report);
        assert_eq!(rescued.matches, plain.matches);
        assert_eq!(rescued.clusters, plain.clusters);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("colstore.spill_rescues"), Some(1));
        assert!(snap.counter("colstore.segments_written").unwrap_or(0) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generous_budget_with_segment_dir_never_spills() {
        let ds = dataset();
        let dir = ooc_tmp_dir("no-spill");
        let obs = Obs::enabled();
        let res = Pipeline::builder()
            .observability(obs.clone())
            .resource_limits(ResourceLimits::none().with_memory_bytes(1 << 30))
            .segment_dir(&dir)
            .build()
            .run(&ds.collection);
        assert_eq!(res.report.shed_comparisons, 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("colstore.spill_rescues"), None);
        assert_eq!(snap.counter("colstore.segments_written"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_out_of_core_stage_leaves_no_spill_directory() {
        // 256 B cannot hold the 64-record run buffer, so every attempt of
        // the streamed blocking build is refused — once per retry.
        let ds = dataset();
        let dir = ooc_tmp_dir("leak");
        std::fs::create_dir_all(&dir).unwrap();
        let outcome = Pipeline::builder()
            .resource_limits(ResourceLimits::none().with_memory_bytes(256))
            .segment_dir(&dir)
            .out_of_core(true)
            .build()
            .run_with_recovery(&ds.collection, &RecoveryOptions::default());
        assert!(outcome.is_err(), "a starved budget fails the stage");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "spill directories left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let ds = dataset();
        let serial = Pipeline::builder().build().run(&ds.collection);
        for threads in [2, 4, 8] {
            let par = Pipeline::builder()
                .parallelism(Parallelism::threads(threads))
                .build()
                .run(&ds.collection);
            assert_eq!(par.matches, serial.matches, "{threads} threads");
            assert_eq!(par.clusters, serial.clusters, "{threads} threads");
            assert_eq!(
                par.report.scheduled_comparisons, serial.report.scheduled_comparisons,
                "{threads} threads"
            );
        }
    }
}
