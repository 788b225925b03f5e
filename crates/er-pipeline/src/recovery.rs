//! Fault-tolerant pipeline execution: stage retry, checkpoint/resume and
//! graceful degradation.
//!
//! The tutorial's web-scale systems assume the *runtime* masks failures; this
//! module gives the in-process pipeline the same contract. It does not drive
//! the stages itself: the one stage walk (`walk.rs`) calls three hooks around
//! each stage — load its checkpoint, attempt it, save its checkpoint — which
//! are direct calls unless [`RecoveryOptions`] are given
//! ([`Pipeline::run_with_recovery`]):
//!
//! * **Stage retry** — each stage (blocking → meta-blocking → matching) runs
//!   under a [`RetryPolicy`]: per-stage panics and transient errors are
//!   caught and the stage is re-run with deterministic exponential backoff.
//!   Stages are pure functions of the input collection, so a retried run is
//!   bit-identical to an undisturbed one.
//! * **Checkpoint/resume** — with a checkpoint directory configured, the
//!   output of each completed stage is saved (`blocked.ckpt`,
//!   `scheduled.ckpt`, `matched.ckpt`) as one checksummed file of wire
//!   records ([`write()`] / [`read()`]), stage name first, fingerprinted by
//!   the collection and the pipeline configuration. A resumed run loads the
//!   deepest valid checkpoint and skips everything before it; a mismatched,
//!   corrupted or truncated checkpoint, or one naming an entity the
//!   collection lacks (or a self-pair), is rejected with a warning and the
//!   stage runs from scratch instead of crashing. Match scores are stored as their IEEE-754
//!   bit pattern, so a resumed run is bit-identical to an uninterrupted one.
//! * **Graceful degradation** — if meta-blocking fails even after retries,
//!   the run falls back to the unpruned blocked comparisons with a loud
//!   warning instead of aborting: correctness (recall) is preserved at the
//!   price of efficiency. Unrecoverable blocking or matching failures
//!   surface as a typed [`PipelineError`].
//!
//! Every recovery action is recorded as a [`RecoveryEvent`] in the returned
//! [`RecoveryOutcome`], so callers (and tests) can assert on exactly what
//! happened.

use crate::{Pipeline, Resolution};
use er_blocking::block::{Block, BlockCollection};
use er_core::collection::EntityCollection;
use er_core::entity::EntityId;
use er_core::fault::{panic_message, FaultInjector, RetryPolicy};
use er_core::intern::Fnv1a;
use er_core::obs::{Event, Obs};
use er_core::pair::Pair;
use er_core::wire::{put_str, put_u32, put_u64, Decoder, WireError};
use std::fmt;
use std::fs::{self, File};
use std::hash::Hasher;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

/// Stage name used for fault keys, events and errors.
pub const STAGE_BLOCKING: &str = "blocking";
/// Stage name of the meta-blocking / comparison-scheduling stage.
pub const STAGE_META_BLOCKING: &str = "meta-blocking";
/// Stage name of the matching stage.
pub const STAGE_MATCHING: &str = "matching";

/// How a fault-tolerant run executes: retry policy, optional fault injection
/// (tests/demos) and optional checkpointing.
#[derive(Clone, Debug, Default)]
pub struct RecoveryOptions {
    /// Directory for stage checkpoints; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the deepest valid checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// Per-stage retry policy.
    pub retry: RetryPolicy,
    /// Fault injector consulted at every stage attempt (stage × task 0 ×
    /// attempt). `None` runs fault-free.
    pub injector: Option<Arc<FaultInjector>>,
}

impl RecoveryOptions {
    /// Options with the given retry policy and neither checkpointing nor
    /// fault injection.
    pub fn retrying(retry: RetryPolicy) -> Self {
        RecoveryOptions {
            retry,
            ..RecoveryOptions::default()
        }
    }

    /// Enables checkpointing under `dir`.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables resuming from existing checkpoints.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Installs a fault injector.
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }
}

/// One recovery action taken during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A stage attempt failed and was retried.
    StageRetried {
        /// Which stage.
        stage: &'static str,
        /// The attempt that failed (0-based).
        failed_attempt: u32,
        /// The failure message.
        error: String,
    },
    /// Meta-blocking failed unrecoverably; the run fell back to the
    /// unpruned blocked comparisons.
    MetaBlockingDegraded {
        /// The final failure message.
        error: String,
    },
    /// A stage checkpoint was loaded and the stage skipped.
    CheckpointLoaded {
        /// Which stage's checkpoint.
        stage: &'static str,
    },
    /// A stage checkpoint was written.
    CheckpointSaved {
        /// Which stage's checkpoint.
        stage: &'static str,
    },
    /// An existing checkpoint was rejected (corrupt, truncated or from a
    /// different collection/configuration); the run proceeds without it.
    CheckpointRejected {
        /// Which stage's checkpoint.
        stage: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// Writing a checkpoint failed; the run continues uncheckpointed.
    CheckpointWriteFailed {
        /// Which stage's checkpoint.
        stage: &'static str,
        /// The I/O failure.
        reason: String,
    },
    /// Blocking breached the memory budget; oversized blocks were shed
    /// largest-first to fit, and the run continued degraded.
    BlocksShedUnderPressure {
        /// Blocks dropped to fit the budget.
        shed_blocks: u64,
        /// Comparisons the dropped blocks carried — the explicit recall-loss
        /// currency.
        shed_comparisons: u64,
    },
    /// The matching stage hit its wall-clock deadline and skipped the tail
    /// of the schedule.
    MatchingTruncatedByDeadline {
        /// Scheduled comparisons never executed.
        skipped_comparisons: u64,
    },
    /// An index-building stage finished *after* its deadline. It has no safe
    /// early-exit point (a partial index is silently wrong, not degraded),
    /// so it ran to completion and the overrun is reported instead.
    StageOverranDeadline {
        /// Which stage.
        stage: &'static str,
    },
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEvent::StageRetried {
                stage,
                failed_attempt,
                error,
            } => write!(
                f,
                "{stage}: attempt {failed_attempt} failed ({error}); retrying"
            ),
            RecoveryEvent::MetaBlockingDegraded { error } => write!(
                f,
                "meta-blocking failed unrecoverably ({error}); falling back to unpruned blocks"
            ),
            RecoveryEvent::CheckpointLoaded { stage } => {
                write!(f, "{stage}: checkpoint loaded, stage skipped")
            }
            RecoveryEvent::CheckpointSaved { stage } => write!(f, "{stage}: checkpoint saved"),
            RecoveryEvent::CheckpointRejected { stage, reason } => {
                write!(f, "{stage}: checkpoint rejected ({reason})")
            }
            RecoveryEvent::CheckpointWriteFailed { stage, reason } => {
                write!(f, "{stage}: checkpoint write failed ({reason})")
            }
            RecoveryEvent::BlocksShedUnderPressure {
                shed_blocks,
                shed_comparisons,
            } => write!(
                f,
                "blocking: memory budget breach, shed {shed_blocks} block(s) \
                 carrying {shed_comparisons} comparison(s)"
            ),
            RecoveryEvent::MatchingTruncatedByDeadline {
                skipped_comparisons,
            } => write!(
                f,
                "matching: stage deadline expired, skipped {skipped_comparisons} comparison(s)"
            ),
            RecoveryEvent::StageOverranDeadline { stage } => {
                write!(
                    f,
                    "{stage}: overran its wall-clock deadline (completed late)"
                )
            }
        }
    }
}

/// An unrecoverable pipeline failure: a stage exhausted its retry budget.
#[derive(Clone, Debug)]
pub struct PipelineError {
    /// The stage that failed.
    pub stage: &'static str,
    /// Attempts made (including the first).
    pub attempts: u32,
    /// The final failure message.
    pub message: String,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline stage {:?} failed after {} attempt(s): {}",
            self.stage, self.attempts, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

/// The result of a fault-tolerant run.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// The resolution — bit-identical to `Pipeline::run` whenever the run
    /// completes without degradation.
    pub resolution: Resolution,
    /// Every recovery action taken, in order.
    pub events: Vec<RecoveryEvent>,
    /// The deepest stage restored from a checkpoint, if any.
    pub resumed_from: Option<&'static str>,
    /// The scheduled candidate comparisons, for candidate-level quality
    /// reporting. `None` when the run resumed past scheduling (from a
    /// matched checkpoint).
    pub scheduled: Option<Vec<Pair>>,
}

impl RecoveryOutcome {
    /// Whether the result is degraded: meta-blocking fell back to unpruned
    /// blocks, blocking shed blocks under memory pressure, or matching was
    /// truncated by its deadline. (A late-but-complete stage —
    /// [`RecoveryEvent::StageOverranDeadline`] — does not degrade the
    /// result.)
    pub fn degraded(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                RecoveryEvent::MetaBlockingDegraded { .. }
                    | RecoveryEvent::BlocksShedUnderPressure { .. }
                    | RecoveryEvent::MatchingTruncatedByDeadline { .. }
            )
        })
    }

    /// Number of stage retries performed.
    pub fn stage_retries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::StageRetried { .. }))
            .count()
    }
}

/// The three recovery hooks the stage walk ([`crate::walk`]) calls around a
/// stage: load its checkpoint, attempt it, save its checkpoint.
///
/// Built with [`Hooks::none`] every hook is the direct path — `load` finds
/// nothing, `attempt` is a plain call (no `catch_unwind`, so a stage panic
/// propagates) and `save` does no I/O — which is how `Pipeline::run` and
/// `Pipeline::run_with_recovery` are one walk under two configurations.
pub(crate) struct Hooks<'a> {
    obs: &'a Obs,
    opts: Option<&'a RecoveryOptions>,
    store: Option<CheckpointStore>,
    /// Every recovery action (and degradation) of the walk so far, in order.
    pub(crate) events: Vec<RecoveryEvent>,
    /// The deepest stage restored from a checkpoint, if any.
    pub(crate) resumed_from: Option<&'static str>,
}

impl<'a> Hooks<'a> {
    /// No recovery: every hook is the direct path.
    pub(crate) fn none(obs: &'a Obs) -> Self {
        Hooks {
            obs,
            opts: None,
            store: None,
            events: Vec::new(),
            resumed_from: None,
        }
    }

    /// Hooks for one fault-tolerant run of `pipeline` over `collection`.
    pub(crate) fn recovering(
        pipeline: &'a Pipeline,
        collection: &EntityCollection,
        opts: &'a RecoveryOptions,
    ) -> Self {
        // Pre-register the retry counter so a fault-free snapshot reports an
        // explicit 0 instead of a missing key — the CI checker asserts on it.
        pipeline.obs().counter("recovery.stage_retries");
        Hooks {
            opts: Some(opts),
            store: opts
                .checkpoint_dir
                .as_ref()
                .map(|dir| CheckpointStore::new(dir.clone(), pipeline, collection)),
            ..Hooks::none(pipeline.obs())
        }
    }

    /// Loads a stage's checkpoint when resuming. A corrupt, truncated or
    /// foreign checkpoint is rejected with a warning and the stage runs from
    /// scratch.
    pub(crate) fn load<T>(
        &mut self,
        stage: &'static str,
        read: impl FnOnce(&CheckpointStore) -> Result<Option<T>, String>,
    ) -> Option<T> {
        let store = self.store.as_ref()?;
        if !self.opts.is_some_and(|o| o.resume) {
            return None;
        }
        match read(store) {
            Ok(Some(loaded)) => {
                self.events.push(RecoveryEvent::CheckpointLoaded { stage });
                self.resumed_from = Some(stage);
                Some(loaded)
            }
            Ok(None) => None,
            Err(reason) => {
                self.obs.emit(Event::Warning {
                    stage: stage.to_string(),
                    reason: format!(
                        "checkpoint rejected ({reason}); running the stage from scratch"
                    ),
                });
                self.events
                    .push(RecoveryEvent::CheckpointRejected { stage, reason });
                None
            }
        }
    }

    /// Runs one stage: directly without recovery, else under the retry
    /// policy — panics and injected transient faults are caught and the
    /// stage is re-run after a deterministic backoff until it succeeds or
    /// the attempt budget is exhausted. Stages are pure functions of the
    /// collection, so a retried run is bit-identical to an undisturbed one.
    pub(crate) fn attempt<T>(
        &mut self,
        stage: &'static str,
        f: impl Fn() -> T,
    ) -> Result<T, PipelineError> {
        let Some(opts) = self.opts else {
            return Ok(f());
        };
        let max = opts.retry.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 0..max {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(inj) = &opts.injector {
                    inj.fire(stage, 0, attempt)?;
                }
                Ok::<T, er_core::fault::TransientFault>(f())
            }));
            match outcome {
                Ok(Ok(v)) => return Ok(v),
                Ok(Err(transient)) => last_error = transient.to_string(),
                Err(payload) => last_error = panic_message(payload.as_ref()),
            }
            if attempt + 1 < max {
                self.obs.counter("recovery.stage_retries").incr();
                self.events.push(RecoveryEvent::StageRetried {
                    stage,
                    failed_attempt: attempt,
                    error: last_error.clone(),
                });
                let backoff = opts.retry.backoff_for(stage, 0, attempt + 1);
                if !backoff.is_zero() {
                    thread::sleep(backoff);
                }
            }
        }
        Err(PipelineError {
            stage,
            attempts: max,
            message: last_error,
        })
    }

    /// Saves a stage's checkpoint when checkpointing is on; a write failure
    /// warns and the run continues uncheckpointed.
    pub(crate) fn save(
        &mut self,
        stage: &'static str,
        write: impl FnOnce(&CheckpointStore) -> Saved,
    ) {
        let Some(store) = &self.store else {
            return;
        };
        match write(store) {
            Ok(()) => self.events.push(RecoveryEvent::CheckpointSaved { stage }),
            Err(err) => {
                self.obs.emit(Event::Warning {
                    stage: stage.to_string(),
                    reason: format!("checkpoint write failed ({err}); continuing uncheckpointed"),
                });
                self.events.push(RecoveryEvent::CheckpointWriteFailed {
                    stage,
                    reason: err.to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint file format
// ---------------------------------------------------------------------------

/// Header magic of a checkpoint file.
const MAGIC: &[u8; 8] = b"ERSEGMT1";
/// Footer magic of a checkpoint file.
const FOOTER_MAGIC: &[u8; 8] = b"ERSEGEND";
/// The format version a checkpoint header carries.
const VERSION: u32 = 1;
/// The section kind of the one payload section: opaque wire records. The
/// kind and the footer's section count stay in the bytes so that
/// checkpoints written by older builds still read.
const BYTES_SECTION: u32 = 1;
/// Bytes before the payload: the 24-byte header and the 16-byte section
/// header.
const PAYLOAD_AT: usize = 40;

/// A rejected checkpoint file. Every malformed, truncated or mutated file
/// yields one of these — never a panic, never a silent short read — and
/// every kind but [`Io`](CheckpointErrorKind::Io) names the byte offset
/// where the defect was found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError {
    /// The offending file.
    pub path: PathBuf,
    /// What is wrong with it.
    pub kind: CheckpointErrorKind,
}

/// What a [`CheckpointError`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointErrorKind {
    /// The file could not be read, written or renamed.
    Io(String),
    /// A field is cut short or holds a value the format rejects (a section
    /// kind other than bytes, a payload end that disagrees with the file, or
    /// bytes after the footer); the wire error names the offset.
    Wire(WireError),
    /// The header (byte 0) or footer magic is wrong.
    BadMagic {
        /// Offset of the bad magic.
        offset: u64,
    },
    /// The header's version (byte 8) is not the one this build writes.
    Version(u32),
    /// The header's fingerprint (byte 16) belongs to another collection or
    /// configuration.
    Fingerprint {
        /// The fingerprint in the file.
        found: u64,
        /// The fingerprint the reader expected.
        expected: u64,
    },
    /// The footer counts other than one section.
    Sections {
        /// Offset of the count.
        offset: u64,
        /// The count in the footer.
        found: u64,
    },
    /// The footer checksum does not cover the bytes before it.
    Checksum {
        /// Offset of the stored checksum.
        offset: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
        /// Checksum stored in the footer.
        stored: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint {}: ", self.path.display())?;
        match &self.kind {
            CheckpointErrorKind::Io(reason) => write!(f, "i/o error: {reason}"),
            CheckpointErrorKind::Wire(e) => write!(f, "{e}"),
            CheckpointErrorKind::BadMagic { offset } => write!(f, "bad magic at byte {offset}"),
            CheckpointErrorKind::Version(found) => write!(
                f,
                "unsupported version {found} at byte 8 (expected {VERSION})"
            ),
            CheckpointErrorKind::Fingerprint { found, expected } => write!(
                f,
                "fingerprint mismatch at byte 16: found {found:016x}, expected \
                 {expected:016x} (different collection or configuration)"
            ),
            CheckpointErrorKind::Sections { offset, found } => {
                write!(f, "{found} sections at byte {offset}, expected 1")
            }
            CheckpointErrorKind::Checksum {
                offset,
                computed,
                stored,
            } => write!(
                f,
                "checksum mismatch at byte {offset}: computed {computed:016x}, stored \
                 {stored:016x} (file mutated or corrupt)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Writes `payload` to `path` as one checkpoint file under `fingerprint`,
/// atomically: the bytes go to `<path>.tmp`, which is renamed into place, so
/// a crash never leaves a half-written file under the final name.
///
/// ```text
/// header   (24 B)  magic "ERSEGMT1" | version u32 | reserved u32 | fingerprint u64
/// section  (16 B)  kind u32 (1, bytes) | reserved u32 | payload_len u64
/// payload  (var)   wire records
/// footer   (32 B)  magic "ERSEGEND" | section_count u64 (1) | payload_end u64 | checksum u64
/// ```
///
/// All integers are little-endian; the checksum is FNV-1a over every byte
/// before the footer.
pub fn write(path: &Path, fingerprint: u64, payload: &[u8]) -> Result<(), CheckpointError> {
    let io = |e: std::io::Error| CheckpointError {
        path: path.to_path_buf(),
        kind: CheckpointErrorKind::Io(e.to_string()),
    };
    let mut head = Vec::with_capacity(PAYLOAD_AT);
    head.extend_from_slice(MAGIC);
    put_u32(&mut head, VERSION);
    put_u32(&mut head, 0);
    put_u64(&mut head, fingerprint);
    put_u32(&mut head, BYTES_SECTION);
    put_u32(&mut head, 0);
    put_u64(&mut head, payload.len() as u64);
    let mut hash = Fnv1a::default();
    hash.write(&head);
    hash.write(payload);
    let mut foot = FOOTER_MAGIC.to_vec();
    put_u64(&mut foot, 1);
    put_u64(&mut foot, (PAYLOAD_AT + payload.len()) as u64);
    put_u64(&mut foot, hash.finish());
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(io)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp).map_err(io)?;
    for part in [&head[..], payload, &foot] {
        file.write_all(part).map_err(io)?;
    }
    fs::rename(&tmp, path).map_err(io)
}

/// Reads the payload of the checkpoint file at `path`, which must carry
/// `fingerprint`: one read of the whole file, then the header, the section
/// header and the footer through a [`Decoder`], and the checksum over the
/// bytes before the footer. Every defect is a typed [`CheckpointError`].
pub fn read(path: &Path, fingerprint: u64) -> Result<Vec<u8>, CheckpointError> {
    let err = |kind| CheckpointError {
        path: path.to_path_buf(),
        kind,
    };
    let mut bytes = fs::read(path).map_err(|e| err(CheckpointErrorKind::Io(e.to_string())))?;
    let wire = |e| err(CheckpointErrorKind::Wire(e));
    let mut d = Decoder::new(&bytes);
    if d.array::<8>().map_err(wire)? != *MAGIC {
        return Err(err(CheckpointErrorKind::BadMagic { offset: 0 }));
    }
    let version = d.u32().map_err(wire)?;
    if version != VERSION {
        return Err(err(CheckpointErrorKind::Version(version)));
    }
    d.u32().map_err(wire)?;
    let found = d.u64().map_err(wire)?;
    if found != fingerprint {
        let expected = fingerprint;
        return Err(err(CheckpointErrorKind::Fingerprint { found, expected }));
    }
    if d.u32().map_err(wire)? != BYTES_SECTION {
        return Err(wire(WireError::invalid(24, "section kind is not bytes")));
    }
    d.u32().map_err(wire)?;
    let len = d.usize().map_err(wire)?;
    d.slice(len).map_err(wire)?;
    let footer_at = d.offset();
    if d.array::<8>().map_err(wire)? != *FOOTER_MAGIC {
        return Err(err(CheckpointErrorKind::BadMagic { offset: footer_at }));
    }
    let sections = d.u64().map_err(wire)?;
    let payload_end = d.u64().map_err(wire)?;
    let stored = d.u64().map_err(wire)?;
    d.finish().map_err(wire)?;
    if sections != 1 {
        let (offset, found) = (footer_at + 8, sections);
        return Err(err(CheckpointErrorKind::Sections { offset, found }));
    }
    if payload_end != footer_at {
        let reason = format!("payload end {payload_end}, the footer is at byte {footer_at}");
        return Err(wire(WireError::invalid(footer_at + 16, reason)));
    }
    let computed = Fnv1a::hash(&bytes[..footer_at as usize]);
    if computed != stored {
        let offset = footer_at + 24;
        return Err(err(CheckpointErrorKind::Checksum {
            offset,
            computed,
            stored,
        }));
    }
    bytes.truncate(footer_at as usize);
    bytes.drain(..PAYLOAD_AT);
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// Fingerprint binding a checkpoint to one (collection, configuration) pair.
/// Cheap by design — it hashes the collection's size/mode and the pipeline's
/// configuration, not the full data — so it catches the common operator
/// mistakes (different dataset, different flags), not adversarial edits.
fn fingerprint(pipeline: &Pipeline, collection: &EntityCollection) -> u64 {
    // `limits` is part of the configuration: a budget-shed blocking index
    // must never be resumed by a run under different (or no) limits.
    let summary = format!(
        "n={} mode={:?} blocking={:?} cleaning={:?} meta={:?} matching={:?} clustering={:?} \
         limits={:?}",
        collection.len(),
        collection.mode(),
        pipeline.blocking,
        pipeline.cleaning,
        pipeline.meta_blocking,
        pipeline.matching,
        pipeline.clustering,
        pipeline.limits,
    );
    er_core::intern::Fnv1a::hash(summary.as_bytes())
}

/// What saving a checkpoint returns.
type Saved = Result<(), CheckpointError>;

pub(crate) struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
    /// Every entity id a checkpoint names must be below this.
    entities: usize,
}

/// A loaded `scheduled.ckpt`.
pub(crate) struct ScheduledCkpt {
    pub(crate) pairs: Vec<Pair>,
    pub(crate) blocked: u64,
}

/// A loaded `matched.ckpt`.
pub(crate) struct MatchedCkpt {
    pub(crate) scored: Vec<(Pair, f64)>,
    pub(crate) blocked: u64,
    pub(crate) scheduled: u64,
}

impl CheckpointStore {
    fn new(dir: PathBuf, pipeline: &Pipeline, collection: &EntityCollection) -> Self {
        CheckpointStore {
            dir,
            fingerprint: fingerprint(pipeline, collection),
            entities: collection.len(),
        }
    }

    /// Writes `file` as one checkpoint under the store's fingerprint: the
    /// stage name, then the fields `body` appends.
    fn write(&self, file: &str, stage: &str, body: impl FnOnce(&mut Vec<u8>)) -> Saved {
        let mut payload = Vec::new();
        put_str(&mut payload, stage);
        body(&mut payload);
        write(&self.dir.join(file), self.fingerprint, &payload)
    }

    /// Reads `file` back through `decode`: `Ok(None)` when absent, `Err` when
    /// the file, the stage name or a record is wrong. Record offsets name
    /// bytes of the file.
    fn load<T>(
        &self,
        file: &str,
        stage: &str,
        decode: impl FnOnce(&mut Decoder<'_>) -> Result<T, WireError>,
    ) -> Result<Option<T>, String> {
        let path = self.dir.join(file);
        if !path.exists() {
            return Ok(None);
        }
        let payload = read(&path, self.fingerprint).map_err(|e| e.to_string())?;
        let mut d = Decoder::at(&payload, PAYLOAD_AT as u64);
        let found = d.str().map_err(|e| e.to_string())?;
        if found != stage {
            return Err(format!("checkpoint of stage {found:?}, expected {stage:?}"));
        }
        decode(&mut d).map(Some).map_err(|e| e.to_string())
    }

    /// Reads an entity id, which must name an entity of the collection.
    fn entity(&self, d: &mut Decoder<'_>) -> Result<EntityId, WireError> {
        let at = d.offset();
        let id = d.u32()?;
        if id as usize >= self.entities {
            let reason = format!("entity id {id} out of range ({} entities)", self.entities);
            return Err(WireError::invalid(at, reason));
        }
        Ok(EntityId(id))
    }

    /// Reads a pair of two distinct entity ids.
    fn pair(&self, d: &mut Decoder<'_>) -> Result<Pair, WireError> {
        let at = d.offset();
        let (a, b) = (self.entity(d)?, self.entity(d)?);
        Pair::try_new(a, b)
            .ok_or_else(|| WireError::invalid(at, format!("self-pair of entity {}", a.0)))
    }

    pub(crate) fn save_blocked(&self, blocks: &BlockCollection) -> Saved {
        self.write("blocked.ckpt", STAGE_BLOCKING, |out| {
            for b in blocks.blocks() {
                put_str(out, b.key());
                put_u32(out, b.entities().len() as u32);
                for e in b.entities() {
                    put_u32(out, e.0);
                }
            }
        })
    }

    pub(crate) fn load_blocked(&self) -> Result<Option<BlockCollection>, String> {
        self.load("blocked.ckpt", STAGE_BLOCKING, |d| {
            let mut blocks = Vec::new();
            while !d.is_empty() {
                let key = d.str()?.to_string();
                let entities = (0..d.u32()?)
                    .map(|_| self.entity(d))
                    .collect::<Result<Vec<_>, _>>()?;
                blocks.push(Block::new(key, entities));
            }
            Ok(BlockCollection::new(blocks))
        })
    }

    pub(crate) fn save_scheduled(&self, pairs: &[Pair], blocked: u64) -> Saved {
        self.write("scheduled.ckpt", STAGE_META_BLOCKING, |out| {
            put_u64(out, blocked);
            for p in pairs {
                put_u32(out, p.first().0);
                put_u32(out, p.second().0);
            }
        })
    }

    pub(crate) fn load_scheduled(&self) -> Result<Option<ScheduledCkpt>, String> {
        self.load("scheduled.ckpt", STAGE_META_BLOCKING, |d| {
            let blocked = d.u64()?;
            let mut pairs = Vec::new();
            while !d.is_empty() {
                pairs.push(self.pair(d)?);
            }
            Ok(ScheduledCkpt { pairs, blocked })
        })
    }

    pub(crate) fn save_matched(
        &self,
        scored: &[(Pair, f64)],
        blocked: u64,
        scheduled: u64,
    ) -> Saved {
        self.write("matched.ckpt", STAGE_MATCHING, |out| {
            put_u64(out, blocked);
            put_u64(out, scheduled);
            for (p, score) in scored {
                put_u32(out, p.first().0);
                put_u32(out, p.second().0);
                // Scores as IEEE-754 bit patterns: bit-identical round-trip.
                put_u64(out, score.to_bits());
            }
        })
    }

    pub(crate) fn load_matched(&self) -> Result<Option<MatchedCkpt>, String> {
        self.load("matched.ckpt", STAGE_MATCHING, |d| {
            let (blocked, scheduled) = (d.u64()?, d.u64()?);
            let mut scored = Vec::new();
            while !d.is_empty() {
                let pair = self.pair(d)?;
                scored.push((pair, f64::from_bits(d.u64()?)));
            }
            Ok(MatchedCkpt {
                scored,
                blocked,
                scheduled,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::fault::{FaultKind, FaultPlan};
    use er_datagen::{DirtyConfig, DirtyDataset, NoiseModel};
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn dataset() -> DirtyDataset {
        DirtyDataset::generate(&DirtyConfig::sized(200, NoiseModel::light(), 77))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("er-recovery-test-{}-{tag}-{n}", std::process::id()))
    }

    fn tmp_file(tag: &str) -> PathBuf {
        let dir = tmp_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        dir.join("file.ckpt")
    }

    /// `n` wire records of three `u32`s each.
    fn sample_payload(n: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for v in 0..n * 3 {
            put_u32(&mut out, v);
        }
        out
    }

    #[test]
    fn tmp_file_never_survives_a_write() {
        let path = tmp_file("tmpgone");
        write(&path, 5, &sample_payload(4)).unwrap();
        assert!(path.exists());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn truncation_is_a_typed_error_with_offset() {
        let path = tmp_file("trunc");
        write(&path, 3, &sample_payload(64)).unwrap();
        let good = fs::read(&path).unwrap();
        for cut in [0, 10, 24, PAYLOAD_AT, good.len() - 1, good.len() - 40] {
            fs::write(&path, &good[..cut]).unwrap();
            let err = read(&path, 3).unwrap_err();
            match &err.kind {
                CheckpointErrorKind::Wire(e) => assert!(e.offset <= cut as u64, "{err}"),
                CheckpointErrorKind::BadMagic { .. } => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
            assert!(err.to_string().contains("byte"), "offset named: {err}");
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn single_byte_mutations_are_caught() {
        let path = tmp_file("mutate");
        write(&path, 3, &sample_payload(32)).unwrap();
        let good = fs::read(&path).unwrap();
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x41;
            fs::write(&path, &bad).unwrap();
            assert!(
                read(&path, 3).is_err(),
                "mutation at byte {at} must be detected"
            );
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn wrong_fingerprint_and_version_are_typed() {
        let path = tmp_file("fp");
        write(&path, 3, &sample_payload(4)).unwrap();
        assert_eq!(
            read(&path, 4).unwrap_err().kind,
            CheckpointErrorKind::Fingerprint {
                found: 3,
                expected: 4
            }
        );
        let mut bad = fs::read(&path).unwrap();
        bad[8] = 2;
        fs::write(&path, &bad).unwrap();
        assert_eq!(
            read(&path, 3).unwrap_err().kind,
            CheckpointErrorKind::Version(2)
        );
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// The one payload round-trips byte for byte behind exactly the 40 header
    /// bytes and before the 32 footer bytes, and each defect a reader must
    /// catch is a typed error.
    #[test]
    fn bytes_section_round_trips_and_rejects_each_defect() {
        let path = tmp_file("bytes");
        let payload: Vec<u8> = (0..=255u8).chain(*b"tab\tnew\nline").collect();
        write(&path, 9, &payload).unwrap();
        let good = fs::read(&path).unwrap();
        assert_eq!(good.len(), PAYLOAD_AT + payload.len() + 32);
        assert_eq!(&good[PAYLOAD_AT..PAYLOAD_AT + payload.len()], &payload[..]);
        assert_eq!(read(&path, 9).unwrap(), payload);
        // Truncated: the footer is cut.
        fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(matches!(
            read(&path, 9).unwrap_err().kind,
            CheckpointErrorKind::Wire(WireError { .. })
        ));
        // Bytes after the footer.
        fs::write(&path, [&good[..], b"x"].concat()).unwrap();
        assert!(matches!(
            read(&path, 9).unwrap_err().kind,
            CheckpointErrorKind::Wire(WireError { .. })
        ));
        // An empty file is cut at its first field.
        fs::write(&path, b"").unwrap();
        match read(&path, 9).unwrap_err().kind {
            CheckpointErrorKind::Wire(e) => assert_eq!(e.offset, 0),
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// A footer that counts two sections is rejected even when its checksum
    /// covers the bytes: the format holds exactly one.
    #[test]
    fn a_footer_section_count_other_than_one_is_a_typed_error() {
        let path = tmp_file("sections");
        write(&path, 9, &sample_payload(4)).unwrap();
        let mut bad = fs::read(&path).unwrap();
        let footer_at = bad.len() - 32;
        bad[footer_at + 8..footer_at + 16].copy_from_slice(&2u64.to_le_bytes());
        let checksum = Fnv1a::hash(&bad[..footer_at]);
        bad[footer_at + 24..].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bad).unwrap();
        let err = read(&path, 9).unwrap_err();
        assert_eq!(
            err.kind,
            CheckpointErrorKind::Sections {
                offset: footer_at as u64 + 8,
                found: 2
            }
        );
        assert!(err.to_string().contains("2 sections"), "{err}");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn absent_file_is_a_typed_io_error() {
        let err = read(&tmp_dir("absent").join("none.ckpt"), 0).unwrap_err();
        assert!(matches!(err.kind, CheckpointErrorKind::Io(_)), "{err:?}");
    }

    #[test]
    fn transient_stage_faults_are_retried_to_the_same_result() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let plain = p.run(&ds.collection);
        let plan = FaultPlan::none()
            .inject(STAGE_BLOCKING, 0, 0, FaultKind::Transient)
            .inject(STAGE_MATCHING, 0, 0, FaultKind::Panic);
        let opts = RecoveryOptions::retrying(RetryPolicy::attempts(3))
            .with_injector(Arc::new(FaultInjector::new(plan)));
        let out = p.run_with_recovery(&ds.collection, &opts).unwrap();
        assert_eq!(out.resolution.matches, plain.matches);
        assert_eq!(out.resolution.clusters, plain.clusters);
        assert_eq!(out.stage_retries(), 2);
    }

    #[test]
    fn exhausted_blocking_retries_surface_as_error() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let plan = FaultPlan::none().inject_all_attempts(STAGE_BLOCKING, 0, 3, FaultKind::Panic);
        let opts = RecoveryOptions::retrying(RetryPolicy::attempts(3))
            .with_injector(Arc::new(FaultInjector::new(plan)));
        let err = p.run_with_recovery(&ds.collection, &opts).unwrap_err();
        assert_eq!(err.stage, STAGE_BLOCKING);
        assert_eq!(err.attempts, 3);
        assert!(err.message.contains("panic"), "{}", err.message);
    }

    #[test]
    fn meta_blocking_failure_degrades_to_unpruned_blocks() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let plan =
            FaultPlan::none().inject_all_attempts(STAGE_META_BLOCKING, 0, 2, FaultKind::Transient);
        let opts = RecoveryOptions::retrying(RetryPolicy::attempts(2))
            .with_injector(Arc::new(FaultInjector::new(plan)));
        let out = p.run_with_recovery(&ds.collection, &opts).unwrap();
        assert!(out.degraded());
        // The degraded run schedules every blocked comparison — a superset
        // of the pruned schedule, so recall cannot drop.
        assert_eq!(
            out.resolution.report.scheduled_comparisons,
            out.resolution.report.blocked_comparisons
        );
        let reference = Pipeline::builder()
            .no_meta_blocking()
            .build()
            .run(&ds.collection);
        assert_eq!(out.resolution.matches, reference.matches);
    }

    #[test]
    fn checkpoints_resume_to_identical_output() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let plain = p.run(&ds.collection);
        let dir = tmp_dir("resume");
        let opts = RecoveryOptions::default().checkpoint_dir(&dir);
        let first = p.run_with_recovery(&ds.collection, &opts).unwrap();
        assert_eq!(first.resolution.matches, plain.matches);
        // All three stage checkpoints exist now; a resumed run restores the
        // deepest (matched) and skips everything.
        let resumed = p
            .run_with_recovery(&ds.collection, &opts.resume(true))
            .unwrap();
        assert_eq!(resumed.resumed_from, Some(STAGE_MATCHING));
        assert_eq!(resumed.resolution.matches, plain.matches);
        assert_eq!(resumed.resolution.clusters, plain.clusters);
        assert_eq!(
            resumed.resolution.report.scheduled_comparisons,
            plain.report.scheduled_comparisons
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_clean_run() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let plain = p.run(&ds.collection);
        let dir = tmp_dir("corrupt");
        let opts = RecoveryOptions::default().checkpoint_dir(&dir);
        p.run_with_recovery(&ds.collection, &opts).unwrap();
        // Truncate matched.ckpt (cut into its segment footer) and scribble
        // over scheduled.ckpt.
        let matched = dir.join("matched.ckpt");
        let contents = fs::read(&matched).unwrap();
        fs::write(&matched, &contents[..contents.len() - 1]).unwrap();
        fs::write(dir.join("scheduled.ckpt"), "garbage\n").unwrap();
        let out = p
            .run_with_recovery(&ds.collection, &opts.resume(true))
            .unwrap();
        let rejected = out
            .events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::CheckpointRejected { .. }))
            .count();
        assert_eq!(
            rejected, 2,
            "matched + scheduled rejected: {:?}",
            out.events
        );
        assert_eq!(
            out.resumed_from,
            Some(STAGE_BLOCKING),
            "blocked.ckpt still valid"
        );
        assert_eq!(out.resolution.matches, plain.matches);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_rejects_checkpoints_from_other_configurations() {
        let ds = dataset();
        let dir = tmp_dir("fingerprint");
        let p = Pipeline::builder().build();
        let opts = RecoveryOptions::default().checkpoint_dir(&dir);
        p.run_with_recovery(&ds.collection, &opts).unwrap();
        // A different matching threshold must not accept the old snapshots.
        let other = Pipeline::builder()
            .matching(crate::MatchingStage::jaccard(0.7))
            .build();
        let out = other
            .run_with_recovery(&ds.collection, &opts.resume(true))
            .unwrap();
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::CheckpointRejected { .. })),
            "{:?}",
            out.events
        );
        assert_eq!(out.resolution.matches, other.run(&ds.collection).matches);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_shedding_is_a_flagged_degradation_not_an_error() {
        use er_core::resource::ResourceLimits;
        let ds = dataset();
        let p = Pipeline::builder()
            .resource_limits(ResourceLimits::none().with_memory_bytes(4096))
            .build();
        let dir = tmp_dir("shed");
        let opts = RecoveryOptions::default().checkpoint_dir(&dir);
        let out = p.run_with_recovery(&ds.collection, &opts).unwrap();
        assert!(out.degraded());
        assert!(out.events.iter().any(|e| matches!(
            e,
            RecoveryEvent::BlocksShedUnderPressure { shed_comparisons, .. } if *shed_comparisons > 0
        )));
        assert!(out.resolution.report.shed_comparisons > 0);
        // Degraded artifacts are never checkpointed: a resume must not
        // silently replay a shed index or the schedule/matches built on it.
        assert!(!dir.join("blocked.ckpt").exists());
        assert!(!dir.join("scheduled.ckpt").exists());
        assert!(!dir.join("matched.ckpt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_deadline_truncates_matching_with_flagged_events() {
        use er_core::resource::ResourceLimits;
        use std::time::Duration;
        let ds = dataset();
        let p = Pipeline::builder()
            .resource_limits(ResourceLimits::none().with_stage_timeout(Duration::ZERO))
            .build();
        let out = p
            .run_with_recovery(&ds.collection, &RecoveryOptions::default())
            .unwrap();
        assert!(out.degraded());
        assert!(out.events.iter().any(|e| matches!(
            e,
            RecoveryEvent::MatchingTruncatedByDeadline { skipped_comparisons } if *skipped_comparisons > 0
        )));
        // The index-building stages completed late rather than partially.
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::StageOverranDeadline { .. })));
        assert!(out.resolution.matches.is_empty());
        assert_eq!(out.resolution.report.matched_comparisons, 0);
    }

    #[test]
    fn generous_limits_recovery_run_is_undegraded_and_bit_identical() {
        use er_core::resource::ResourceLimits;
        use std::time::Duration;
        let ds = dataset();
        let plain = Pipeline::builder().build().run(&ds.collection);
        let p = Pipeline::builder()
            .resource_limits(
                ResourceLimits::none()
                    .with_memory_bytes(1 << 30)
                    .with_stage_timeout(Duration::from_secs(3600)),
            )
            .build();
        let out = p
            .run_with_recovery(&ds.collection, &RecoveryOptions::default())
            .unwrap();
        assert!(!out.degraded());
        assert!(out.events.is_empty());
        assert_eq!(out.resolution.matches, plain.matches);
        assert_eq!(out.resolution.clusters, plain.clusters);
    }

    #[test]
    fn limits_are_part_of_the_checkpoint_fingerprint() {
        use er_core::resource::ResourceLimits;
        let ds = dataset();
        let dir = tmp_dir("limits-fp");
        let unlimited = Pipeline::builder().build();
        let opts = RecoveryOptions::default().checkpoint_dir(&dir);
        unlimited.run_with_recovery(&ds.collection, &opts).unwrap();
        // A governed pipeline must not accept the ungoverned checkpoints.
        let governed = Pipeline::builder()
            .resource_limits(ResourceLimits::none().with_memory_bytes(1 << 30))
            .build();
        let out = governed
            .run_with_recovery(&ds.collection, &opts.resume(true))
            .unwrap();
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, RecoveryEvent::CheckpointRejected { .. })),
            "{:?}",
            out.events
        );
        assert_eq!(out.resumed_from, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_key_escaping_round_trips() {
        // Block keys are length-prefixed wire strings: any byte a key holds
        // survives the checkpoint, with nothing to escape.
        let dir = tmp_dir("keys");
        let store = CheckpointStore::new(
            dir.clone(),
            &Pipeline::builder().build(),
            &dataset().collection,
        );
        let keys = [
            "plain",
            "tab\there",
            "multi\nline",
            "back\\slash",
            "",
            "ünï\r",
        ];
        let blocks = BlockCollection::new(
            keys.iter()
                .map(|k| Block::new(k.to_string(), vec![EntityId(0), EntityId(2)]))
                .collect(),
        );
        store.save_blocked(&blocks).unwrap();
        let loaded = store.load_blocked().unwrap().unwrap();
        let got: Vec<&str> = loaded.blocks().iter().map(|b| b.key()).collect();
        let want: Vec<&str> = blocks.blocks().iter().map(|b| b.key()).collect();
        assert_eq!(got, want);
        assert_eq!(loaded.blocks()[0].entities(), &[EntityId(0), EntityId(2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint naming an entity the collection lacks, or pairing an
    /// entity with itself, is written with a valid fingerprint and checksum
    /// through the store's own writer. Loading it must reject it (never
    /// panic, never fail matching later), and the resumed run must equal
    /// the undisturbed one.
    #[test]
    fn checkpoints_with_bad_records_are_rejected_not_trusted() {
        let ds = dataset();
        let p = Pipeline::builder().build();
        let plain = p.run(&ds.collection);
        let n = ds.collection.len() as u32;
        let dir = tmp_dir("bad-records");
        let opts = RecoveryOptions::default().checkpoint_dir(&dir);
        let store = CheckpointStore::new(dir.clone(), &p, &ds.collection);
        // (file, stage, bad record appended to the valid body, deeper
        // checkpoints to remove so this one is the deepest).
        let cases: [(&str, &str, Vec<u32>, &[&str]); 6] = [
            (
                "scheduled.ckpt",
                STAGE_META_BLOCKING,
                vec![0, 0],
                &["matched.ckpt"],
            ),
            (
                "scheduled.ckpt",
                STAGE_META_BLOCKING,
                vec![0, n],
                &["matched.ckpt"],
            ),
            ("matched.ckpt", STAGE_MATCHING, vec![1, 1, 0, 0], &[]),
            ("matched.ckpt", STAGE_MATCHING, vec![0, n + 98, 0, 0], &[]),
            (
                "blocked.ckpt",
                STAGE_BLOCKING,
                // Block key "" (length 0) with entities {0, n}.
                vec![0, 2, 0, n],
                &["matched.ckpt", "scheduled.ckpt"],
            ),
            (
                "blocked.ckpt",
                STAGE_BLOCKING,
                vec![0, 1, u32::MAX],
                &["matched.ckpt", "scheduled.ckpt"],
            ),
        ];
        for (file, stage, record, deeper) in cases {
            let _ = fs::remove_dir_all(&dir);
            p.run_with_recovery(&ds.collection, &opts).unwrap();
            let payload = read(&dir.join(file), store.fingerprint).unwrap();
            // The body follows the stage name (a `u32` length, then its bytes).
            let body = &payload[4 + stage.len()..];
            store
                .write(file, stage, |out| {
                    out.extend_from_slice(body);
                    for w in &record {
                        put_u32(out, *w);
                    }
                })
                .unwrap();
            for d in deeper {
                fs::remove_file(dir.join(d)).unwrap();
            }
            let out = p
                .run_with_recovery(&ds.collection, &opts.clone().resume(true))
                .unwrap();
            let cell = format!("{file} + {record:?}");
            assert!(
                out.events.iter().any(|e| matches!(
                    e,
                    RecoveryEvent::CheckpointRejected { stage: s, .. } if *s == stage
                )),
                "{cell}: {:?}",
                out.events
            );
            assert_eq!(out.resolution.matches, plain.matches, "{cell}");
            assert_eq!(out.resolution.clusters, plain.clusters, "{cell}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
