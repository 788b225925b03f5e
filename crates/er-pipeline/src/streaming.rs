//! The streaming ingest session: bounded arrival queue → quarantine →
//! incremental blocking index → incremental blocking graph → incremental
//! resolution, as one stateful value.
//!
//! The batch pipeline ([`crate::Pipeline`]) assumes the collection is
//! complete before the first stage runs. Web KBs are not like that — the
//! tutorial's introduction stresses that descriptions keep arriving — so
//! this module maintains the pipeline's state *under* arrivals:
//!
//! 1. raw records enter through a budget-bounded [`ArrivalQueue`] (producers
//!    feel typed back-pressure instead of growing an unbounded buffer);
//! 2. the [`IngestValidator`] quarantines malformed records with typed
//!    reasons — rejects never receive an [`EntityId`], so the accepted
//!    collection (and everything downstream) is bit-identical to a run that
//!    never saw them;
//! 3. accepted entities are staged and indexed in fixed-size batches by the
//!    [`IncrementalTokenIndex`] (snapshots bit-identical to a full
//!    `TokenBlocking` rebuild) and the [`IncrementalGraph`] (integer
//!    statistics exact per batch);
//! 4. each entity is integrated by the [`IncrementalResolver`] under
//!    watchdog coverage;
//! 5. [`StreamingSession::checkpoint`] re-anchors everything against the
//!    batch oracles: a full graph rebuild (bit-exact ARCS) and a guarded
//!    re-resolution of the accepted collection.
//!
//! The equivalence contract is locked by `tests/streaming_equivalence.rs`.

use er_blocking::incremental::IncrementalTokenIndex;
use er_blocking::BlockCollection;
use er_core::collection::{EntityCollection, ResolutionMode};
use er_core::entity::EntityId;
use er_core::ingest::{ArrivalQueue, IngestConfig, IngestValidator, QuarantineReport, RawRecord};
use er_core::merge::SharedTokenMatcher;
use er_core::obs::Obs;
use er_core::parallel::Parallelism;
use er_core::resource::{ResourceError, ResourceLimits};
use er_iterative::incremental::{IncrementalResolver, IncrementalStats};
use er_metablocking::IncrementalGraph;

/// Configuration of a [`StreamingSession`].
#[derive(Clone, Debug)]
pub struct StreamingConfig {
    /// Accepted entities per blocking-index batch.
    pub batch_size: usize,
    /// Batches between automatic graph refreshes (`0` disables automatic
    /// refreshes; [`StreamingSession::checkpoint`] always refreshes).
    pub refresh_every: usize,
    /// Malformed-record policy (oversize limit).
    pub ingest: IngestConfig,
    /// Minimum shared normalized tokens for the incremental matcher.
    pub match_overlap: usize,
    /// Parallelism of the checkpoint rebuilds.
    pub parallelism: Parallelism,
    /// Resolution mode of the accepted collection.
    pub mode: ResolutionMode,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            batch_size: 64,
            refresh_every: 8,
            ingest: IngestConfig::default(),
            match_overlap: 2,
            parallelism: Parallelism::serial(),
            mode: ResolutionMode::Dirty,
        }
    }
}

/// A live streaming ingest session. See the module docs for the data flow.
pub struct StreamingSession {
    config: StreamingConfig,
    limits: ResourceLimits,
    queue: ArrivalQueue,
    validator: IngestValidator,
    collection: EntityCollection,
    index: IncrementalTokenIndex,
    graph: IncrementalGraph,
    resolver: IncrementalResolver<SharedTokenMatcher>,
    /// `collection[..indexed]` is in the blocking index and graph.
    indexed: usize,
    /// `collection[..resolved]` is in the resolver; `resolved ≤ indexed`, and
    /// below it only after a flush the stage watchdog interrupted.
    resolved: usize,
    batches: u64,
    checkpoints: u64,
    obs: Obs,
}

impl StreamingSession {
    /// Creates a session. The arrival queue charges buffered record bytes
    /// against `limits`' memory budget; its watchdog guards checkpoint
    /// re-resolution.
    pub fn new(config: StreamingConfig, limits: ResourceLimits) -> Self {
        Self::with_obs(config, limits, Obs::disabled())
    }

    /// [`new`](StreamingSession::new) with an observability registry: ingest
    /// counters/events, incremental-maintenance counters and streaming spans
    /// are recorded into it.
    pub fn with_obs(config: StreamingConfig, limits: ResourceLimits, obs: Obs) -> Self {
        let queue = ArrivalQueue::with_obs(limits.budget(), &obs);
        let validator = IngestValidator::new(config.ingest.clone()).with_obs(&obs);
        let resolver = IncrementalResolver::new(SharedTokenMatcher::new(config.match_overlap));
        StreamingSession {
            index: IncrementalTokenIndex::new().with_obs(&obs),
            graph: IncrementalGraph::new().with_obs(&obs),
            resolver,
            collection: EntityCollection::new(config.mode),
            indexed: 0,
            resolved: 0,
            batches: 0,
            checkpoints: 0,
            queue,
            validator,
            config,
            limits,
            obs,
        }
    }

    /// A handle to the bounded arrival queue — clone it into producer
    /// threads; [`drain`](StreamingSession::drain) consumes from it.
    pub fn queue(&self) -> ArrivalQueue {
        self.queue.clone()
    }

    /// Offers one raw record directly (the synchronous path, bypassing the
    /// queue): validated, quarantined or accepted, and staged. Returns the
    /// assigned id for accepted records, `None` for quarantined ones.
    pub fn offer(&mut self, record: RawRecord) -> Result<Option<EntityId>, ResourceError> {
        let Some(accepted) = self.validator.admit(record) else {
            return Ok(None);
        };
        let mut builder = er_core::entity::EntityBuilder::new().uri(accepted.id);
        for (name, value) in accepted.attributes {
            builder = builder.attr(name, value);
        }
        let id = self.collection.push_entity(accepted.kb, builder);
        if self.collection.len() - self.indexed >= self.config.batch_size {
            self.flush()?;
        }
        Ok(Some(id))
    }

    /// Drains every record currently buffered in the arrival queue through
    /// [`offer`](StreamingSession::offer), returning how many were taken
    /// (accepted *or* quarantined). Popping releases the records' bytes back
    /// to the budget, unblocking producers.
    pub fn drain(&mut self) -> Result<usize, ResourceError> {
        let mut taken = 0;
        while let Some(record) = self.queue.try_pop() {
            self.offer(record)?;
            taken += 1;
        }
        Ok(taken)
    }

    /// Pushes the staged partial batch through the incremental index, graph
    /// and resolver. A no-op when nothing is staged.
    ///
    /// The stage watchdog can interrupt the resolver between two entities.
    /// The typed error then leaves the batch indexed and its unresolved tail
    /// staged — every accepted entity is in a cluster or still counted by
    /// [`staged_len`](StreamingSession::staged_len) — and the next `flush` or
    /// `checkpoint` resumes at the first unresolved entity.
    pub fn flush(&mut self) -> Result<(), ResourceError> {
        let accepted = self.collection.len();
        if self.resolved == accepted {
            return Ok(());
        }
        let span = self.obs.span("streaming.batch");
        if self.indexed < accepted {
            let delta = self
                .index
                .insert_batch(self.collection.iter().skip(self.indexed));
            self.graph
                .apply_delta(&self.index, &delta, &self.collection);
            if self.obs.is_enabled() {
                self.obs
                    .counter("streaming.entities_indexed")
                    .add((accepted - self.indexed) as u64);
            }
            self.indexed = accepted;
        }
        let watchdog = self.limits.stage_watchdog();
        let before = self.resolver.stats();
        let outcome = self
            .collection
            .iter()
            .skip(self.resolved)
            .try_for_each(|entity| {
                self.resolver.insert_guarded(entity, &watchdog)?;
                self.resolved += 1;
                Ok(())
            });
        let after = self.resolver.stats();
        self.record_resolver_work(
            after.comparisons - before.comparisons,
            after.merges - before.merges,
        );
        outcome?;
        self.batches += 1;
        if self.obs.is_enabled() {
            self.obs.counter("streaming.batches").incr();
        }
        span.finish();
        if self.config.refresh_every > 0
            && self
                .batches
                .is_multiple_of(self.config.refresh_every as u64)
        {
            self.graph.refresh(
                &self.collection,
                &self.index.snapshot_blocks(),
                self.config.parallelism,
            );
        }
        Ok(())
    }

    /// Counts resolver work — incremental inserts and checkpoint rebuilds
    /// alike — into `streaming.resolver_{comparisons,merges}`.
    fn record_resolver_work(&self, comparisons: u64, merges: u64) {
        if self.obs.is_enabled() {
            self.obs
                .counter("streaming.resolver_comparisons")
                .add(comparisons);
            self.obs.counter("streaming.resolver_merges").add(merges);
        }
    }

    /// Checkpoint: flushes staged arrivals, refreshes the blocking graph
    /// against the batch builder (restoring bit-exact ARCS) and re-resolves
    /// the accepted collection under a fresh stage watchdog. On watchdog
    /// expiry the resolver keeps its incremental state — the typed error
    /// reports the interruption, nothing is left half-rebuilt.
    pub fn checkpoint(&mut self) -> Result<IncrementalStats, ResourceError> {
        let span = self.obs.span("streaming.checkpoint");
        self.flush()?;
        self.graph.refresh(
            &self.collection,
            &self.index.snapshot_blocks(),
            self.config.parallelism,
        );
        let watchdog = self.limits.stage_watchdog();
        let stats = self.resolver.re_resolve(&self.collection, &watchdog)?;
        self.record_resolver_work(stats.comparisons, stats.merges);
        self.checkpoints += 1;
        if self.obs.is_enabled() {
            self.obs.counter("streaming.checkpoints").incr();
        }
        span.finish();
        Ok(stats)
    }

    /// The accepted collection (dense ids, arrival order).
    pub fn collection(&self) -> &EntityCollection {
        &self.collection
    }

    /// The current blocking collection over every *flushed* entity —
    /// bit-identical to a full `TokenBlocking` rebuild.
    pub fn blocks(&self) -> BlockCollection {
        self.index.snapshot_blocks()
    }

    /// The incremental blocking index.
    pub fn index(&self) -> &IncrementalTokenIndex {
        &self.index
    }

    /// The incrementally maintained blocking graph.
    pub fn graph(&self) -> &IncrementalGraph {
        &self.graph
    }

    /// Current clusters of the incremental resolver.
    pub fn clusters(&self) -> Vec<Vec<EntityId>> {
        self.resolver.clusters()
    }

    /// Resolver statistics.
    pub fn resolver_stats(&self) -> IncrementalStats {
        self.resolver.stats()
    }

    /// The quarantine ledger so far.
    pub fn quarantine_report(&self) -> &QuarantineReport {
        self.validator.report()
    }

    /// Batches flushed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Checkpoints completed so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Entities accepted but not yet through every incremental stage: not
    /// flushed, or flushed into the index and graph by a flush the watchdog
    /// interrupted before the resolver reached them.
    pub fn staged_len(&self) -> usize {
        self.collection.len() - self.resolved
    }

    /// Finishes the session: closes the queue, drains what is left, flushes
    /// and checkpoints. Returns the final quarantine ledger.
    pub fn finish(mut self) -> Result<(QuarantineReport, Vec<Vec<EntityId>>), ResourceError> {
        self.queue.close();
        self.drain()?;
        self.checkpoint()?;
        let clusters = self.resolver.clusters();
        Ok((self.validator.into_report(), clusters))
    }
}

/// Convenience used by the CLI and tests: wraps an entity (from a file or a
/// generator) back into the raw-record form the validator expects, with the
/// entity's URI (or a dense `e<id>` fallback) as the record id.
pub fn raw_record_from_entity(entity: &er_core::entity::Entity) -> RawRecord {
    let id = entity
        .uri()
        .map(str::to_string)
        .unwrap_or_else(|| format!("e{}", entity.id().0));
    RawRecord::new(
        id,
        entity
            .attributes()
            .iter()
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect(),
    )
    .with_kb(entity.kb())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_blocking::TokenBlocking;
    use er_core::entity::KbId;
    use er_metablocking::BlockingGraph;

    fn missing_id() -> RawRecord {
        RawRecord {
            id: None,
            kb: KbId(0),
            attributes: vec![(b"n".to_vec(), b"orphan".to_vec())],
            truncated: false,
        }
    }

    fn record(id: &str, value: &str) -> RawRecord {
        RawRecord::new(id, vec![("n".to_string(), value.to_string())])
    }

    const VALUES: &[&str] = &[
        "alan turing machine",
        "turing alan m",
        "grace hopper compiler",
        "rear admiral hopper",
        "zeta function riemann",
        "machine learning compiler",
        "alan kay smalltalk",
    ];

    fn batch_collection(values: &[&str]) -> EntityCollection {
        let mut c = EntityCollection::new(ResolutionMode::Dirty);
        for (i, v) in values.iter().enumerate() {
            c.push_entity(
                KbId(0),
                er_core::entity::EntityBuilder::new()
                    .uri(format!("r{i}"))
                    .attr("n", *v),
            );
        }
        c
    }

    #[test]
    fn session_blocks_match_batch_blocking() {
        let mut s = StreamingSession::new(
            StreamingConfig {
                batch_size: 2,
                ..Default::default()
            },
            ResourceLimits::none(),
        );
        for (i, v) in VALUES.iter().enumerate() {
            s.offer(record(&format!("r{i}"), v)).unwrap();
        }
        s.flush().unwrap();
        let batch = batch_collection(VALUES);
        assert_eq!(s.blocks(), TokenBlocking::new().build(&batch));
        assert_eq!(s.collection().len(), VALUES.len());
        assert_eq!(s.quarantine_report().quarantined(), 0);
    }

    #[test]
    fn quarantined_records_do_not_perturb_output() {
        let mut s = StreamingSession::new(StreamingConfig::default(), ResourceLimits::none());
        s.offer(record("a", VALUES[0])).unwrap();
        assert!(s.offer(missing_id()).unwrap().is_none());
        s.offer(record("a", "duplicate id")).unwrap();
        s.offer(record("b", VALUES[1])).unwrap();
        s.flush().unwrap();
        let clean = batch_collection(&VALUES[..2]);
        assert_eq!(s.blocks(), TokenBlocking::new().build(&clean));
        assert_eq!(s.quarantine_report().quarantined(), 2);
        assert_eq!(s.quarantine_report().accepted(), 2);
    }

    #[test]
    fn checkpoint_restores_bit_exact_graph_and_matches_resolution() {
        let mut s = StreamingSession::new(
            StreamingConfig {
                batch_size: 3,
                refresh_every: 0,
                ..Default::default()
            },
            ResourceLimits::none(),
        );
        for (i, v) in VALUES.iter().enumerate() {
            s.offer(record(&format!("r{i}"), v)).unwrap();
        }
        s.checkpoint().unwrap();
        let oracle = BlockingGraph::build(s.collection(), &s.blocks());
        assert_eq!(s.graph().graph(), &oracle);
        let mut from_scratch = IncrementalResolver::new(SharedTokenMatcher::new(2));
        for e in s.collection().iter() {
            from_scratch.insert(e);
        }
        assert_eq!(s.clusters(), from_scratch.clusters());
        assert_eq!(s.checkpoints(), 1);
    }

    #[test]
    fn interrupted_flush_keeps_its_unresolved_tail_staged() {
        // A zero stage deadline interrupts every flush before its first
        // resolver insert: the batch is indexed, and must stay pending.
        let mut s = StreamingSession::new(
            StreamingConfig {
                batch_size: 3,
                ..Default::default()
            },
            ResourceLimits::none().with_stage_timeout(std::time::Duration::ZERO),
        );
        let mut interrupted = 0;
        for (i, v) in VALUES.iter().enumerate() {
            match s.offer(record(&format!("r{i}"), v)) {
                Ok(_) => {}
                Err(ResourceError::DeadlineExceeded { .. }) => interrupted += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(interrupted > 0);
        assert!(matches!(
            s.checkpoint(),
            Err(ResourceError::DeadlineExceeded { .. })
        ));
        let clustered: usize = s.clusters().iter().map(Vec::len).sum();
        assert_eq!(clustered + s.staged_len(), VALUES.len(), "no id dropped");
        assert_eq!(s.batches(), 0, "no flush completed");
        // Retried flushes index nothing twice.
        assert_eq!(
            s.blocks(),
            TokenBlocking::new().build(&batch_collection(VALUES))
        );

        // Generous limits: the same arrivals all resolve, flush by flush.
        let mut s = StreamingSession::new(
            StreamingConfig {
                batch_size: 3,
                ..Default::default()
            },
            ResourceLimits::none().with_stage_timeout(std::time::Duration::from_secs(3600)),
        );
        for (i, v) in VALUES.iter().enumerate() {
            s.offer(record(&format!("r{i}"), v)).unwrap();
            assert_eq!(s.staged_len(), (i + 1) % 3);
        }
        s.flush().unwrap();
        let mut from_scratch = IncrementalResolver::new(SharedTokenMatcher::new(2));
        for e in s.collection().iter() {
            from_scratch.insert(e);
        }
        assert_eq!(s.clusters(), from_scratch.clusters());
        assert_eq!((s.staged_len(), s.batches()), (0, 3));
    }

    #[test]
    fn queue_path_equals_direct_path() {
        let direct = {
            let mut s = StreamingSession::new(StreamingConfig::default(), ResourceLimits::none());
            for (i, v) in VALUES.iter().enumerate() {
                s.offer(record(&format!("r{i}"), v)).unwrap();
            }
            s.flush().unwrap();
            s.blocks()
        };
        let mut s = StreamingSession::new(StreamingConfig::default(), ResourceLimits::none());
        let q = s.queue();
        for (i, v) in VALUES.iter().enumerate() {
            q.push(record(&format!("r{i}"), v)).unwrap();
        }
        assert_eq!(s.drain().unwrap(), VALUES.len());
        s.flush().unwrap();
        assert_eq!(s.blocks(), direct);
        assert!(q.is_empty());
    }

    #[test]
    fn finish_closes_and_reports() {
        let mut s = StreamingSession::new(StreamingConfig::default(), ResourceLimits::none());
        let q = s.queue();
        q.push(record("x", VALUES[0])).unwrap();
        q.push(missing_id()).unwrap();
        s.drain().unwrap();
        let (report, clusters) = s.finish().unwrap();
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.quarantined(), 1);
        assert_eq!(clusters.len(), 1);
    }

    #[test]
    fn raw_record_round_trips_entity() {
        let c = batch_collection(&VALUES[..1]);
        let r = raw_record_from_entity(c.entity(EntityId(0)));
        assert_eq!(r.id.as_deref(), Some("r0"));
        let mut s = StreamingSession::new(StreamingConfig::default(), ResourceLimits::none());
        assert!(s.offer(r).unwrap().is_some());
    }
}
