//! The traced repetition: the same stages `Pipeline::run` and
//! `StreamingSession` walk, called one by one through the layers' public
//! functions with a span around each call, so time can be charged to a
//! layer. The staged result must equal the untraced one (same fingerprint);
//! the caller checks that.
//!
//! Counts come from the values the layers return and, where the program
//! already keeps them, from an `Obs` registry enabled for this repetition
//! only.

use crate::trace::Tracer;
use crate::workload::{
    outcome_of_clusters, outcome_of_resolution, Input, Mode, Outcome, Spec, OOC_BUDGET_BYTES,
};
use er_blocking::block::{Block, BlockCollection};
use er_blocking::{cleaning, IncrementalTokenIndex, TokenBlocking};
use er_core::collection::EntityCollection;
use er_core::colstore::{collection_fingerprint, OocConfig, StoreMetrics};
use er_core::entity::{EntityBuilder, EntityId};
use er_core::ingest::IngestValidator;
use er_core::matching::{par_decide_candidates, ThresholdMatcher};
use er_core::merge::SharedTokenMatcher;
use er_core::obs::Obs;
use er_core::pair::Pair;
use er_core::resource::{MemoryBudget, Watchdog};
use er_core::similarity::SetMeasure;
use er_iterative::incremental::IncrementalResolver;
use er_mapreduce::{run_dist, DistOptions, SubprocessConfig, SubprocessTransport};
use er_metablocking::{BlockingGraph, IncrementalGraph, PruningScheme, WeightingScheme};
use er_pipeline::StreamingConfig;
use std::collections::BTreeMap;
use std::path::Path;

/// A traced repetition's result plus the counts recorded at the layer
/// boundaries, keyed by per-layer metric name.
pub struct Staged {
    pub outcome: Outcome,
    pub counts: BTreeMap<&'static str, f64>,
}

/// Mirrors `Pipeline::ooc_config`: a fresh spill directory per stage, the
/// collection fingerprint, run and page sizes derived from the budget.
fn ooc_config(
    collection: &EntityCollection,
    segment_dir: &Path,
    stage: &str,
    budget: &MemoryBudget,
    obs: &Obs,
) -> OocConfig {
    let limit = budget
        .limit()
        .expect("the out-of-core workload has a budget");
    OocConfig::new(segment_dir.join(format!("staged-{stage}")))
        .with_fingerprint(collection_fingerprint(collection))
        .with_metrics(StoreMetrics::new(obs.clone()))
        .with_run_entries((limit / 64).clamp(64, 64 * 1024) as usize)
        .with_page_bytes((limit / 8).clamp(512, 16 * 1024))
        .with_budget(budget.clone())
}

/// One record per entity, `id \t token \t token …` with the entity's
/// distinct tokens in sorted order: the documented input format of the
/// distributed `token-blocking` job.
fn dist_blocking_records(collection: &EntityCollection) -> Vec<String> {
    let tokenizer = er_core::tokenize::Tokenizer::default();
    collection
        .iter()
        .map(|e| {
            let mut tokens = std::collections::BTreeSet::new();
            for (_, v) in e.attributes() {
                tokens.extend(tokenizer.tokens(v));
            }
            let mut record = e.id().0.to_string();
            for t in &tokens {
                record.push('\t');
                record.push_str(t);
            }
            record
        })
        .collect()
}

/// Rebuilds blocks from the job's key-sorted `(token, "id id …")` output.
fn blocks_from_dist_pairs(pairs: &[(String, String)]) -> Result<BlockCollection, String> {
    let blocks = pairs
        .iter()
        .map(|(key, ids)| {
            let members = ids
                .split(' ')
                .map(|id| id.parse::<u32>().map(EntityId))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("bad entity id in block {key:?}: {e}"))?;
            Ok(Block::new(key.clone(), members))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BlockCollection::new(blocks))
}

/// The batch pipeline, stage by stage (token blocking → auto purge →
/// distinct pairs → ARCS graph → WNP pruning → Jaccard 0.4 → connected
/// components), in the execution mode of `spec`.
pub fn batch(spec: &Spec, input: &Input, t: &mut Tracer) -> Result<Staged, String> {
    let c = &input.dataset.collection;
    let par = spec.parallelism();
    let obs = Obs::enabled();
    let budget = MemoryBudget::bytes(OOC_BUDGET_BYTES);
    let mut counts = BTreeMap::new();
    t.begin_run();
    let root = t.enter("resolve");

    // ---- er-blocking (and er-mapreduce on the subprocess backend) ----------
    let s = t.enter("blocking.build");
    let blocks = match spec.mode {
        Mode::Batch => TokenBlocking::new().par_build_obs(c, par, &obs),
        Mode::OutOfCore => {
            let cfg = ooc_config(c, &input.segment_dir, "blocking", &budget, &obs);
            let blocks = TokenBlocking::new()
                .par_build_ooc_obs(c, par, &obs, &cfg)
                .map_err(|e| e.to_string())?;
            let _ = std::fs::remove_dir(&cfg.segment_dir);
            blocks
        }
        Mode::Subprocess => {
            let records = dist_blocking_records(c);
            let d = t.enter("mapreduce.dist");
            let mut cfg = SubprocessConfig::new(spec.workers);
            cfg.policy = er_core::fault::ExecPolicy::default().with_obs(obs.clone());
            let mut transport = SubprocessTransport::new(cfg);
            let out = run_dist(
                &mut transport,
                "token-blocking",
                &records,
                &DistOptions::for_workers(spec.workers),
            )
            .map_err(|e| e.to_string())?;
            drop(transport); // shuts the worker pool down inside the span
            t.exit(d);
            counts.insert(
                "mapreduce.map_output_records",
                out.stats.map_output_records as f64,
            );
            counts.insert("mapreduce.reduce_groups", out.stats.reduce_groups as f64);
            blocks_from_dist_pairs(&out.pairs)?
        }
        Mode::Stream => unreachable!("stream workloads use staged::stream"),
    };
    t.exit(s);

    let s = t.enter("blocking.purge");
    let purged = spec.purge.then(|| cleaning::auto_purge(&blocks, c));
    let cleaned = purged.as_ref().unwrap_or(&blocks);
    t.exit(s);

    let s = t.enter("blocking.pairs");
    let blocked = cleaned.distinct_pairs(c);
    t.exit(s);
    counts.insert("blocking.blocks", cleaned.len() as f64);
    counts.insert("blocking.postings", cleaned.assignments() as f64);
    counts.insert("blocking.blocked_comparisons", blocked.len() as f64);
    let blocked_comparisons = blocked.len();
    drop(blocked); // `Pipeline::run` only counts them too

    // ---- er-metablocking ----------------------------------------------------
    let s = t.enter("metablocking.graph");
    let graph = if spec.mode == Mode::OutOfCore {
        let cfg = ooc_config(c, &input.segment_dir, "metablocking", &budget, &obs);
        let g = BlockingGraph::par_build_ooc(c, cleaned, par, &cfg).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir(&cfg.segment_dir);
        g
    } else {
        BlockingGraph::par_build(c, cleaned, par)
    };
    t.exit(s);
    let s = t.enter("metablocking.prune");
    let kept = PruningScheme::Wnp.par_prune(&graph, WeightingScheme::Arcs, par);
    t.exit(s);
    counts.insert("metablocking.edges", graph.n_edges() as f64);
    counts.insert(
        "metablocking.edge_sort_bytes",
        graph.edge_sort_bytes() as f64,
    );
    counts.insert("metablocking.kept_comparisons", kept.len() as f64);
    counts.insert(
        "metablocking.kept_ratio",
        kept.len() as f64 / blocked_comparisons.max(1) as f64,
    );
    drop(graph);

    // ---- er-core::matching --------------------------------------------------
    let s = t.enter("matching.decide");
    let matcher = ThresholdMatcher::new(SetMeasure::Jaccard, 0.4);
    let mut matches: Vec<Pair> = par_decide_candidates(c, &matcher, &kept, par)
        .into_iter()
        .filter_map(|(p, d)| d.is_match.then_some(p))
        .collect();
    t.exit(s);
    counts.insert("matching.comparisons", kept.len() as f64);
    counts.insert(
        "matching.match_ratio",
        matches.len() as f64 / kept.len().max(1) as f64,
    );

    // ---- er-core::clusters --------------------------------------------------
    let s = t.enter("clustering.cc");
    matches.sort();
    let clusters = er_core::clusters::components_from_matches(c.len(), &matches);
    t.exit(s);
    t.exit(root);
    counts.insert("clustering.clusters", clusters.len() as f64);
    if spec.mode == Mode::Subprocess && blocks != TokenBlocking::new().par_build(c, par) {
        return Err("distributed token blocks differ from the in-process blocks".to_string());
    }

    let snap = obs.snapshot();
    for name in [
        "worker.spawned",
        "worker.crashed",
        "worker.restarted",
        "colstore.segments_written",
        "colstore.segment_bytes",
        "colstore.runs_merged",
        "colstore.pages_loaded",
        "colstore.pages_evicted",
    ] {
        counts.insert(name, snap.counter(name).unwrap_or(0) as f64);
    }
    let outcome = outcome_of_resolution(&matches, &clusters, 0, c.len(), &input.dataset.truth);
    Ok(Staged { outcome, counts })
}

/// The state a `StreamingSession` owns, held by the benchmark so each layer
/// call can sit in its own span.
struct StagedStream {
    config: StreamingConfig,
    collection: EntityCollection,
    index: IncrementalTokenIndex,
    graph: IncrementalGraph,
    resolver: IncrementalResolver<SharedTokenMatcher>,
    staged: Vec<EntityId>,
    batches: usize,
}

impl StagedStream {
    /// `StreamingSession::flush`: index, graph delta, resolver, and the
    /// periodic graph refresh.
    fn flush(&mut self, t: &mut Tracer) -> Result<(), String> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let b = t.enter("stream.batch");
        let s = t.enter("incindex.insert");
        let entities = self.staged.iter().map(|&id| self.collection.entity(id));
        let delta = self.index.insert_batch(entities);
        t.exit(s);
        let s = t.enter("incgraph.delta");
        self.graph
            .apply_delta(&self.index, &delta, &self.collection);
        t.exit(s);
        let s = t.enter("resolver.insert");
        for &id in &self.staged {
            self.resolver
                .insert_guarded(self.collection.entity(id), &Watchdog::disarmed())
                .map_err(|e| e.to_string())?;
        }
        t.exit(s);
        t.exit(b);
        self.staged.clear();
        self.batches += 1;
        if self.batches.is_multiple_of(self.config.refresh_every) {
            self.refresh(t);
        }
        Ok(())
    }

    fn refresh(&mut self, t: &mut Tracer) {
        let s = t.enter("incgraph.refresh");
        self.graph.refresh(
            &self.collection,
            &self.index.snapshot_blocks(),
            self.config.parallelism,
        );
        t.exit(s);
    }
}

/// The calls `StreamingSession::offer` / `flush` / `checkpoint` make, with a
/// span around each layer: admission, incremental index, incremental graph
/// (delta and periodic refresh), incremental resolver, and the closing
/// re-resolution.
pub fn stream(input: &Input, t: &mut Tracer) -> Result<Staged, String> {
    let config = StreamingConfig::default();
    let records = input.records.clone();
    let offered = records.len() as u64;
    t.begin_run();
    let root = t.enter("resolve");
    let mut validator = IngestValidator::new(config.ingest.clone());
    let mut st = StagedStream {
        collection: EntityCollection::new(config.mode),
        index: IncrementalTokenIndex::new(),
        graph: IncrementalGraph::new(),
        resolver: IncrementalResolver::new(SharedTokenMatcher::new(config.match_overlap)),
        staged: Vec::new(),
        batches: 0,
        config,
    };
    for record in records {
        let s = t.enter("ingest.admit");
        let accepted = validator.admit(record);
        t.exit(s);
        let Some(a) = accepted else { continue };
        let mut builder = EntityBuilder::new().uri(a.id);
        for (name, value) in a.attributes {
            builder = builder.attr(name, value);
        }
        st.staged.push(st.collection.push_entity(a.kb, builder));
        if st.staged.len() >= st.config.batch_size {
            st.flush(t)?;
        }
    }
    // `finish()`: flush the partial batch, then checkpoint (refresh the
    // graph and re-resolve from scratch).
    st.flush(t)?;
    st.refresh(t);
    let s = t.enter("resolver.reresolve");
    st.resolver
        .re_resolve(&st.collection, &Watchdog::disarmed())
        .map_err(|e| e.to_string())?;
    t.exit(s);
    let clusters = st.resolver.clusters();
    t.exit(root);

    let quarantined = validator.report().quarantined();
    let mut counts = BTreeMap::new();
    counts.insert("ingest.quarantined", quarantined as f64);
    counts.insert("stream.batches", st.batches as f64);
    let outcome = outcome_of_clusters(
        &clusters,
        offered,
        quarantined,
        st.collection.len(),
        &input.dataset.truth,
    );
    Ok(Staged { outcome, counts })
}
