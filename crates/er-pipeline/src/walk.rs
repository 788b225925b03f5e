//! The one stage walk of the Fig. 1 workflow.
//!
//! Every entry point of [`Pipeline`] — `run`, `run_with_recovery`,
//! `run_with_matcher`, `candidates`, `run_progressive`, `candidate_quality`
//! — is this walk under a configuration: which recovery [`Hooks`] surround
//! each stage, which matching step scores the schedule, and whether the walk
//! stops after its first half.
//!
//! * the **schedule** half ([`Walk::schedule`]): blocking → cleaning →
//!   budget admission / spill rescue → meta-blocking;
//! * the **resolve** half ([`Walk::resolve`]): matching → clustering → run
//!   counters.
//!
//! The walk alone opens the `pipeline.*` spans, arms the per-stage
//! watchdogs and fills the [`StageReport`]; the stage kernels it calls
//! (`build_blocks`, `meta_block`, `cluster` on [`Pipeline`]) route between
//! the in-memory, out-of-core and subprocess paths.
//!
//! It also owns the run's one tokenization, [`RunProfiles`]: token blocking
//! (every backend, and the spill rescue) transposes it as its key rows, the
//! configured matching stage decides on it and `run_progressive` scores its
//! schedule from it. It is built on first use, under a `pipeline.profiles` span the
//! walk opens before the span of the first stage that needs it.

use crate::recovery::{
    CheckpointStore, Hooks, PipelineError, RecoveryEvent, RecoveryOutcome, STAGE_BLOCKING,
    STAGE_MATCHING, STAGE_META_BLOCKING,
};
use crate::{BlockingStage, MetaBlockingStage, Pipeline, Resolution, StageReport};
use er_blocking::block::BlockCollection;
use er_blocking::sorted_neighborhood::MultiPassSortedNeighborhood;
use er_core::collection::EntityCollection;
use er_core::obs::{Event, Span};
use er_core::pair::Pair;
use er_core::profiles::TokenProfiles;
use er_core::resource::{MemoryBudget, Watchdog};
use er_core::tokenize::Tokenizer;
use er_metablocking::node_scan;
use std::cell::OnceCell;

/// Accepted pairs with their match scores.
pub(crate) type Scored = Vec<(Pair, f64)>;

/// The matching step, the walk's one parameter.
#[derive(Clone, Copy)]
pub(crate) enum Decide<'a> {
    /// The configured matching stage, deciding on the run's token profiles.
    Configured,
    /// A caller's step: the accepted pairs of a candidate slice, decided
    /// pair by pair.
    Caller(&'a dyn Fn(&[Pair]) -> Scored),
}

/// The run's one tokenization: the collection's token profiles under the
/// default tokenizer — the one [`TokenBlocking::new`] and every
/// [`MatchingStage`](crate::MatchingStage) matcher use — built on first use.
///
/// [`TokenBlocking::new`]: er_blocking::TokenBlocking::new
pub(crate) struct RunProfiles<'a> {
    pipeline: &'a Pipeline,
    collection: &'a EntityCollection,
    built: OnceCell<TokenProfiles>,
}

impl RunProfiles<'_> {
    /// The profiles, building them (span `pipeline.profiles`, counters
    /// `profiles.symbols` / `profiles.vocabulary`) on the first call.
    pub(crate) fn get(&self) -> &TokenProfiles {
        self.built.get_or_init(|| {
            let obs = &self.pipeline.obs;
            let span = obs.span("pipeline.profiles");
            let profiles = TokenProfiles::build(
                self.collection,
                &Tokenizer::default(),
                self.pipeline.parallelism,
            );
            span.finish();
            if obs.is_enabled() {
                obs.counter("profiles.symbols")
                    .add(profiles.n_symbols() as u64);
                obs.counter("profiles.vocabulary")
                    .add(profiles.vocabulary().len() as u64);
            }
            profiles
        })
    }
}

/// What the blocking stage hands on.
enum Blocked {
    /// The schedule itself: meta-blocking is skipped.
    Schedule(Vec<Pair>),
    /// Blocks for the meta-blocking stage to prune.
    Blocks(BlockCollection, MetaBlockingStage),
}

/// One walk of one pipeline over one collection.
pub(crate) struct Walk<'a> {
    pipeline: &'a Pipeline,
    collection: &'a EntityCollection,
    hooks: Hooks<'a>,
    report: StageReport,
    budget: MemoryBudget,
    profiles: RunProfiles<'a>,
    /// Closes `pipeline.run` when the walk is dropped.
    _run_span: Span,
}

impl<'a> Walk<'a> {
    /// Opens the run: the `pipeline.run` span and the run's memory budget.
    pub(crate) fn begin(
        pipeline: &'a Pipeline,
        collection: &'a EntityCollection,
        hooks: Hooks<'a>,
    ) -> Self {
        Walk {
            _run_span: pipeline.obs.span("pipeline.run"),
            budget: pipeline.limits.budget(),
            report: StageReport::default(),
            profiles: RunProfiles {
                pipeline,
                collection,
                built: OnceCell::new(),
            },
            pipeline,
            collection,
            hooks,
        }
    }

    /// The run's token profiles (built here if no stage has needed them
    /// yet).
    pub(crate) fn profiles(&self) -> &TokenProfiles {
        self.profiles.get()
    }

    /// The whole walk: the matched checkpoint if there is one, else the
    /// schedule half and the matching stage; then clustering and the run
    /// counters.
    pub(crate) fn resolve(mut self, decide: Decide) -> Result<RecoveryOutcome, PipelineError> {
        if let Some(ckpt) = self
            .hooks
            .load(STAGE_MATCHING, CheckpointStore::load_matched)
        {
            self.report.blocked_comparisons = ckpt.blocked;
            self.report.scheduled_comparisons = ckpt.scheduled;
            self.report.matched_comparisons = ckpt.scheduled;
            return Ok(self.finish(ckpt.scored, None));
        }
        let candidates = self.schedule()?;
        let scored = self.matching(&candidates, decide)?;
        // Clustering reads no token: free the profiles before it allocates.
        self.profiles.built.take();
        Ok(self.finish(scored, Some(candidates)))
    }

    /// The schedule half: the candidate comparisons of blocking, cleaning,
    /// budget admission and meta-blocking — or of the scheduled checkpoint.
    pub(crate) fn schedule(&mut self) -> Result<Vec<Pair>, PipelineError> {
        let candidates = match self
            .hooks
            .load(STAGE_META_BLOCKING, CheckpointStore::load_scheduled)
        {
            Some(ckpt) => {
                self.report.blocked_comparisons = ckpt.blocked;
                ckpt.pairs
            }
            None => {
                let candidates = self.block_and_prune()?;
                // A schedule derived from a budget-shed index is a degraded
                // artifact — don't checkpoint it (see the matched guard).
                if self.report.shed_comparisons == 0 {
                    let blocked = self.report.blocked_comparisons;
                    self.hooks.save(STAGE_META_BLOCKING, |s| {
                        s.save_scheduled(&candidates, blocked)
                    });
                }
                candidates
            }
        };
        self.report.scheduled_comparisons = candidates.len() as u64;
        Ok(candidates)
    }

    /// Blocking (with cleaning and admission) followed by meta-blocking.
    ///
    /// The distinct blocked pairs are enumerated only where they are the
    /// schedule — a pair-producing method, a run without meta-blocking, a
    /// meta-blocking stage that failed. Otherwise meta-blocking prunes the
    /// blocks directly and `blocked_comparisons` is the scan's edge count.
    fn block_and_prune(&mut self) -> Result<Vec<Pair>, PipelineError> {
        let (p, c) = (self.pipeline, self.collection);

        // Token blocking transposes the run's profiles: build them before
        // the stage span opens, so `pipeline.profiles` sits beside it.
        if matches!(p.blocking, BlockingStage::Token) {
            self.profiles.get();
        }
        let span = p.obs.span("pipeline.blocking");
        let watchdog = p.limits.stage_watchdog();
        let blocked = match (&p.blocking, p.meta_blocking) {
            // A pair-producing method: blocking directly yields the
            // schedule, so cleaning and meta-blocking are skipped.
            (BlockingStage::SortedNeighborhood(keys, window), _) => {
                Blocked::Schedule(self.hooks.attempt(STAGE_BLOCKING, || {
                    MultiPassSortedNeighborhood::new(keys.clone(), *window)
                        .candidate_pairs(c, p.parallelism)
                })?)
            }
            (block_based, None) => Blocked::Schedule(self.blocks(block_based)?.distinct_pairs(c)),
            (block_based, Some(mb)) => Blocked::Blocks(self.blocks(block_based)?, mb),
        };
        span.finish();
        self.note_overrun(STAGE_BLOCKING, &watchdog);
        let (blocks, mb) = match blocked {
            Blocked::Schedule(pairs) => {
                self.report.blocked_comparisons = pairs.len() as u64;
                return Ok(pairs);
            }
            Blocked::Blocks(blocks, mb) => (blocks, mb),
        };

        // Never skipped under pressure: pruning *reduces* downstream work,
        // so running it is the cheapest path to the deadline. The node scan
        // runs in every execution mode: it holds nothing worth spilling, and
        // it counts the blocked comparisons without enumerating them.
        let span = p.obs.span("pipeline.meta_blocking");
        let watchdog = p.limits.stage_watchdog();
        let outcome = self.hooks.attempt(STAGE_META_BLOCKING, || {
            let (w, pruning, par) = (mb.weighting, mb.pruning, p.parallelism);
            let pruned = node_scan(c, &blocks, w, pruning, par, &p.obs);
            (pruned.kept, pruned.blocked_comparisons)
        });
        span.finish();
        self.note_overrun(STAGE_META_BLOCKING, &watchdog);
        let (schedule, blocked) = outcome.unwrap_or_else(|err| {
            // Degrade, loudly: recall is preserved because the unpruned
            // blocked comparisons are a superset of anything meta-blocking
            // would schedule. No scan counted them, so enumerate them now.
            let blocked = blocks.distinct_pairs(c);
            p.obs.emit(Event::Warning {
                stage: STAGE_META_BLOCKING.to_string(),
                reason: format!(
                    "{err}; degrading to {} unpruned blocked comparisons",
                    blocked.len()
                ),
            });
            self.hooks
                .events
                .push(RecoveryEvent::MetaBlockingDegraded { error: err.message });
            let n = blocked.len() as u64;
            (blocked, n)
        });
        self.report.blocked_comparisons = blocked;
        Ok(schedule)
    }

    /// The cleaned, budget-admitted blocking collection: the blocked
    /// checkpoint, else a fresh build (checkpointed when complete).
    fn blocks(&mut self, stage: &BlockingStage) -> Result<BlockCollection, PipelineError> {
        if let Some(blocks) = self
            .hooks
            .load(STAGE_BLOCKING, CheckpointStore::load_blocked)
        {
            return Ok(blocks);
        }
        let (p, c, budget, profiles) =
            (self.pipeline, self.collection, &self.budget, &self.profiles);
        let governed = self.hooks.attempt(STAGE_BLOCKING, || {
            p.build_blocks(c, stage, budget, profiles)
        })?;
        self.report.shed_comparisons = governed.shed_comparisons;
        if governed.degraded() {
            self.hooks
                .events
                .push(RecoveryEvent::BlocksShedUnderPressure {
                    shed_blocks: governed.shed_blocks,
                    shed_comparisons: governed.shed_comparisons,
                });
        } else {
            // Only a complete (unshed) index is worth checkpointing: a
            // resume must never silently replay a degraded artifact.
            self.hooks
                .save(STAGE_BLOCKING, |s| s.save_blocked(&governed.blocks));
        }
        Ok(governed.blocks)
    }

    /// Records a stage that finished *after* its deadline. Blocking and
    /// meta-blocking have no safe early-exit point (a partial index is
    /// silently wrong, not degraded), so they run to completion and the
    /// overrun is reported instead: `resource.stage_overruns`, a warning and
    /// a [`RecoveryEvent::StageOverranDeadline`].
    fn note_overrun(&mut self, stage: &'static str, watchdog: &Watchdog) {
        if !watchdog.expired() {
            return;
        }
        let obs = &self.pipeline.obs;
        obs.counter("resource.stage_overruns").incr();
        obs.emit(Event::Warning {
            stage: stage.to_string(),
            reason: "stage overran its wall-clock deadline (completed late)".to_string(),
        });
        self.hooks
            .events
            .push(RecoveryEvent::StageOverranDeadline { stage });
    }

    /// The matching stage over a schedule.
    fn matching(
        &mut self,
        candidates: &[Pair],
        decide: Decide,
    ) -> Result<Vec<(Pair, f64)>, PipelineError> {
        let p = self.pipeline;
        // The configured stage decides on the run's profiles: build them (if
        // blocking did not) before the stage span opens.
        if let Decide::Configured = decide {
            self.profiles.get();
        }
        let span = p.obs.span("pipeline.matching");
        let profiles = &self.profiles;
        let (scored, skipped) = self.hooks.attempt(STAGE_MATCHING, || {
            // A fresh watchdog per attempt: a retried stage gets the full
            // stage deadline again, like an undisturbed run of that attempt.
            let watchdog = p.limits.stage_watchdog();
            match decide {
                Decide::Configured => {
                    p.score_candidates_governed(profiles.get(), candidates, &watchdog)
                }
                Decide::Caller(step) => p.governed_decide(candidates, &watchdog, step),
            }
        })?;
        span.finish();
        self.report.skipped_comparisons = skipped;
        self.report.matched_comparisons = candidates.len() as u64 - skipped;
        if skipped > 0 {
            self.hooks
                .events
                .push(RecoveryEvent::MatchingTruncatedByDeadline {
                    skipped_comparisons: skipped,
                });
        }
        // Never checkpoint a deadline-truncated or shed-derived match set:
        // checkpoints are reserved for complete stage outputs, so a resume
        // can't silently replay a degraded result.
        if skipped == 0 && self.report.shed_comparisons == 0 {
            let (blocked, scheduled) = (
                self.report.blocked_comparisons,
                self.report.scheduled_comparisons,
            );
            self.hooks.save(STAGE_MATCHING, |s| {
                s.save_matched(&scored, blocked, scheduled)
            });
        }
        Ok(scored)
    }

    /// Clustering (cheap; never checkpointed) and the run counters.
    fn finish(self, scored: Vec<(Pair, f64)>, scheduled: Option<Vec<Pair>>) -> RecoveryOutcome {
        let p = self.pipeline;
        let span = p.obs.span("pipeline.clustering");
        let (matches, clusters) = p.cluster(self.collection, scored);
        span.finish();
        p.record_run_counters(&self.report, &matches, &clusters);
        RecoveryOutcome {
            resolution: Resolution {
                matches,
                clusters,
                report: self.report,
            },
            events: self.hooks.events,
            resumed_from: self.hooks.resumed_from,
            scheduled,
        }
    }
}
