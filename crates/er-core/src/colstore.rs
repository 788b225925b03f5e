//! Out-of-core columnar segment store.
//!
//! The compact layouts of PR 5 made the hot structures of blocking and
//! meta-blocking *flat*: interned dictionaries, `(Symbol, EntityId)` posting
//! vectors, `(Pair, EdgeInfo)` edge vectors. This module puts those flat
//! columns into a **versioned, fingerprinted, length-prefixed segment file**
//! so the external-sort builders (`er_blocking::ooc`,
//! `er_metablocking::ooc`) can stream over sorted on-disk runs instead of
//! materializing the full vectors — the ROADMAP's "dataset 10× RAM resolves
//! to bit-identical output at graceful slowdown" operating point.
//!
//! ## File format (all integers little-endian)
//!
//! ```text
//! header   (24 B)  magic "ERSEGMT1" | version u32 | reserved u32 | fingerprint u64
//! section  (16 B)  kind u32 | reserved u32 | payload_len u64        ┐ repeated
//! payload  (var)   kind-specific payload                            ┘ section_count times
//! footer   (32 B)  magic "ERSEGEND" | section_count u64 | payload_end u64 | checksum u64
//! ```
//!
//! The checksum is FNV-1a over every byte before the footer, so truncation,
//! single-byte mutation and byte-soup corruption are all caught at open.
//! Writes are atomic (temp file + rename). Every fixed-width field — header,
//! section headers, footer, run records — is read through the one bounded
//! [`wire::Decoder`](crate::wire::Decoder).
//!
//! Section payloads:
//!
//! * `BYTES` (1) — opaque [`wire`](crate::wire) records, read whole
//!   ([`Segment::bytes`]): the `er-dist` shuffle segments and the pipeline's
//!   stage checkpoints are one-section segments of this kind.
//! * `POSTINGS` (2) — one sorted `(Symbol, EntityId)` run: `count u64`, then
//!   `count × (u32, u32)` — the PR 5 flat posting vector, one `memcpy` away.
//! * `EDGES` (3) — one pair-sorted edge run: `count u64`, then
//!   `count × (u32, u32, u32, u64)` with the `f64` ARCS weight stored as
//!   raw bits ([`f64::to_bits`]) for bit-exact round-trips.
//!
//! Kind 4 is unassigned; every kind keeps its number so a segment's bytes do
//! not depend on which kinds exist.
//!
//! The two run kinds share one fixed-width codec ([`RunRecord`]), one writer
//! method ([`SegmentWriter::run`]), one cursor ([`RunCursor`]) and one
//! external sort ([`ExternalSorter`]).
//!
//! ## "mmap" without `unsafe`
//!
//! The workspace forbids `unsafe` and vendors no mmap crate, so segments are
//! *demand-paged in safe code*: an explicit page cache over positional
//! [`FileExt::read_at`] reads. This is deliberately **better** than a real
//! `mmap` for governance — resident bytes are charged against the shared
//! [`MemoryBudget`] as pages load and released as they evict, so the PR 4
//! pressure ladder sees file-backed pages exactly, deterministically, and
//! on every platform, instead of guessing at kernel page-cache behavior.
//! The `colstore.resident_bytes` gauge mirrors the account and must drain
//! to zero when the last reader drops.

use crate::entity::EntityId;
use crate::intern::{Fnv1a, Symbol};
use crate::obs::Obs;
use crate::resource::{MemoryBudget, ResourceError};
use crate::wire::{put_u32, put_u64, Decoder, WireError};
use crate::{EntityCollection, ResolutionMode};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::fs::{self, File};
use std::hash::Hasher;
use std::io::{BufWriter, Write};
use std::marker::PhantomData;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Header magic of a segment file.
pub const MAGIC: &[u8; 8] = b"ERSEGMT1";
/// Footer magic of a segment file.
pub const FOOTER_MAGIC: &[u8; 8] = b"ERSEGEND";
/// Current format version.
pub const VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 24;
/// Fixed per-section header length in bytes.
pub const SECTION_HEADER_LEN: u64 = 16;
/// Fixed footer length in bytes.
pub const FOOTER_LEN: u64 = 32;
/// Default page size of the demand-paged reader.
pub const DEFAULT_PAGE_BYTES: u64 = 64 * 1024;

/// Section kind: opaque [`wire`](crate::wire) records, read whole.
pub const KIND_BYTES: u32 = 1;
/// Section kind: sorted `(Symbol, EntityId)` posting run.
pub const KIND_POSTINGS: u32 = 2;
/// Section kind: pair-sorted edge run with bit-exact `f64` weights.
pub const KIND_EDGES: u32 = 3;

/// A typed segment defect. Every malformed, truncated or mutated input
/// yields one of these — never a panic, never a silent short read — and
/// every variant that concerns file content names the byte offset where the
/// defect was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// An I/O failure at a known byte offset.
    Io {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the failed access.
        offset: u64,
        /// Stringified OS error.
        reason: String,
    },
    /// The file ends before the structure it promises.
    Truncated {
        /// Offending file.
        path: PathBuf,
        /// Byte offset where content is missing.
        offset: u64,
        /// What was expected there.
        expected: String,
    },
    /// Header or footer magic bytes are wrong.
    BadMagic {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the bad magic.
        offset: u64,
    },
    /// The format version is not [`VERSION`].
    Version {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header (at byte offset 8).
        found: u32,
    },
    /// The producer fingerprint does not match the reader's.
    Fingerprint {
        /// Offending file.
        path: PathBuf,
        /// Fingerprint found in the header (at byte offset 16).
        found: u64,
        /// Fingerprint the reader expected.
        expected: u64,
    },
    /// The footer checksum does not cover the bytes on disk.
    Checksum {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the stored checksum.
        offset: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
        /// Checksum stored in the footer.
        stored: u64,
    },
    /// Structurally invalid content at a known byte offset.
    Malformed {
        /// Offending file.
        path: PathBuf,
        /// Byte offset of the defect.
        offset: u64,
        /// What is wrong there.
        reason: String,
    },
    /// Resource governance stopped the operation: the memory budget refused
    /// a page the reader needed, or a stage watchdog expired mid-merge.
    Resource(ResourceError),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io {
                path,
                offset,
                reason,
            } => write!(
                f,
                "segment {}: i/o error at byte {offset}: {reason}",
                path.display()
            ),
            SegmentError::Truncated {
                path,
                offset,
                expected,
            } => write!(
                f,
                "segment {}: truncated at byte {offset} (expected {expected})",
                path.display()
            ),
            SegmentError::BadMagic { path, offset } => {
                write!(f, "segment {}: bad magic at byte {offset}", path.display())
            }
            SegmentError::Version { path, found } => write!(
                f,
                "segment {}: unsupported version {found} at byte 8 (expected {VERSION})",
                path.display()
            ),
            SegmentError::Fingerprint {
                path,
                found,
                expected,
            } => write!(
                f,
                "segment {}: fingerprint mismatch at byte 16: found {found:016x}, \
                 expected {expected:016x} (different collection or configuration)",
                path.display()
            ),
            SegmentError::Checksum {
                path,
                offset,
                computed,
                stored,
            } => write!(
                f,
                "segment {}: checksum mismatch at byte {offset}: computed {computed:016x}, \
                 stored {stored:016x} (file mutated or corrupt)",
                path.display()
            ),
            SegmentError::Malformed {
                path,
                offset,
                reason,
            } => write!(
                f,
                "segment {}: malformed at byte {offset}: {reason}",
                path.display()
            ),
            SegmentError::Resource(e) => write!(f, "segment store governed: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<ResourceError> for SegmentError {
    fn from(e: ResourceError) -> SegmentError {
        SegmentError::Resource(e)
    }
}

impl SegmentError {
    /// A failed field read of `path`, at the offset the decoder named.
    fn wire(path: &Path, e: WireError) -> SegmentError {
        SegmentError::Malformed {
            path: path.to_path_buf(),
            offset: e.offset,
            reason: e.to_string(),
        }
    }
}

/// The `colstore.*` observability series, shared by writers, readers and
/// merge drivers. Cloneable; clones share one resident-bytes account so the
/// `colstore.resident_bytes` gauge reflects *all* open segments of a run
/// and drains to zero when the last reader drops.
#[derive(Clone, Debug, Default)]
pub struct StoreMetrics {
    obs: Obs,
    resident: Arc<AtomicU64>,
}

impl StoreMetrics {
    /// Metrics recording into `obs` (pass [`Obs::disabled`] for no-ops).
    pub fn new(obs: Obs) -> StoreMetrics {
        StoreMetrics {
            obs,
            resident: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The no-op handle.
    pub fn disabled() -> StoreMetrics {
        StoreMetrics::default()
    }

    /// Records one finished segment of `bytes` bytes
    /// (`colstore.segments_written`, `colstore.segment_bytes`).
    pub fn segment_written(&self, bytes: u64) {
        self.obs.counter("colstore.segments_written").incr();
        self.obs.counter("colstore.segment_bytes").add(bytes);
    }

    /// Records `runs` sorted runs consumed by a k-way merge
    /// (`colstore.runs_merged`).
    pub fn runs_merged(&self, runs: u64) {
        self.obs.counter("colstore.runs_merged").add(runs);
    }

    /// Currently resident file-backed bytes across all readers sharing this
    /// handle.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    fn page_loaded(&self, bytes: u64) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.obs.counter("colstore.pages_loaded").incr();
        self.obs.gauge("colstore.resident_bytes").set(now as f64);
    }

    fn page_released(&self, bytes: u64) {
        let before = self.resident.fetch_sub(bytes, Ordering::Relaxed);
        let now = before.saturating_sub(bytes);
        self.obs.gauge("colstore.resident_bytes").set(now as f64);
    }
}

/// One on-disk edge record: a canonical pair, its CBS count, and the ARCS
/// weight as raw `f64` bits — the bit-exact currency the streamed graph
/// build merges. (Defined here rather than in `er-metablocking` so the
/// codec stays dependency-free; the graph layer maps to/from `EdgeInfo`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRecord {
    /// First endpoint (canonical: `a < b`).
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// Common-block count contribution.
    pub count: u32,
    /// ARCS weight contribution, as [`f64::to_bits`].
    pub weight_bits: u64,
}

/// A fixed-width record of a sorted-run section — the one codec behind
/// [`SegmentWriter::run`], [`RunCursor`] and [`ExternalSorter`].
pub trait RunRecord: Copy {
    /// Section kind its runs are written as.
    const KIND: u32;
    /// Bytes of one on-disk record.
    const BYTES: usize;
    /// Whether records with equal keys are one record: a sorted run then
    /// keeps the first of equal neighbours, and the merge drops cross-run
    /// repeats. Records that carry a payload beyond their key must not
    /// coalesce.
    const COALESCE: bool;
    /// What runs are sorted and merged by.
    type Key: Ord + Copy;
    /// The record's sort key.
    fn key(&self) -> Self::Key;
    /// Appends the [`BYTES`](Self::BYTES) little-endian bytes of the record.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one record ([`BYTES`](Self::BYTES) bytes) from `d`.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError>;
}

/// A token-blocking posting: a [`KIND_POSTINGS`] record, `(u32, u32)`.
impl RunRecord for (Symbol, EntityId) {
    const KIND: u32 = KIND_POSTINGS;
    const BYTES: usize = 8;
    const COALESCE: bool = true;
    type Key = (Symbol, EntityId);

    fn key(&self) -> Self::Key {
        *self
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0 .0);
        put_u32(out, self.1 .0);
    }

    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok((Symbol(d.u32()?), EntityId(d.u32()?)))
    }
}

/// An edge contribution: a [`KIND_EDGES`] record, `(u32, u32, u32, u64)`,
/// keyed by its pair. Contributions of one pair stay apart — the graph fold
/// adds them in arrival order.
impl RunRecord for EdgeRecord {
    const KIND: u32 = KIND_EDGES;
    const BYTES: usize = 20;
    const COALESCE: bool = false;
    type Key = (u32, u32);

    fn key(&self) -> Self::Key {
        (self.a, self.b)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.a);
        put_u32(out, self.b);
        put_u32(out, self.count);
        put_u64(out, self.weight_bits);
    }

    #[inline]
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(EdgeRecord {
            a: d.u32()?,
            b: d.u32()?,
            count: d.u32()?,
            weight_bits: d.u64()?,
        })
    }
}

/// Atomic writer for one segment file: accumulates sections into
/// `<path>.tmp` under a running checksum, then [`finish`](Self::finish)
/// seals the footer and renames into place — a crash can never leave a
/// half-written file under the final name.
pub struct SegmentWriter {
    path: PathBuf,
    tmp: PathBuf,
    out: BufWriter<File>,
    hash: Fnv1a,
    offset: u64,
    sections: u64,
}

impl SegmentWriter {
    /// Creates the temp file and writes the fingerprinted header.
    pub fn create(
        path: impl Into<PathBuf>,
        fingerprint: u64,
    ) -> Result<SegmentWriter, SegmentError> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| SegmentError::Io {
                path: path.clone(),
                offset: 0,
                reason: e.to_string(),
            })?;
        }
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        let tmp = path.with_file_name(name);
        let file = File::create(&tmp).map_err(|e| SegmentError::Io {
            path: tmp.clone(),
            offset: 0,
            reason: e.to_string(),
        })?;
        let mut w = SegmentWriter {
            path,
            tmp,
            out: BufWriter::new(file),
            hash: Fnv1a::default(),
            offset: 0,
            sections: 0,
        };
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        put_u32(&mut header, VERSION);
        put_u32(&mut header, 0);
        put_u64(&mut header, fingerprint);
        w.put(&header)?;
        Ok(w)
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), SegmentError> {
        self.out.write_all(bytes).map_err(|e| SegmentError::Io {
            path: self.tmp.clone(),
            offset: self.offset,
            reason: e.to_string(),
        })?;
        self.hash.write(bytes);
        self.offset += bytes.len() as u64;
        Ok(())
    }

    fn section(&mut self, kind: u32, payload: &[u8]) -> Result<(), SegmentError> {
        let mut header = Vec::with_capacity(SECTION_HEADER_LEN as usize);
        put_u32(&mut header, kind);
        put_u32(&mut header, 0);
        put_u64(&mut header, payload.len() as u64);
        self.put(&header)?;
        self.put(payload)?;
        self.sections += 1;
        Ok(())
    }

    /// Appends one sorted run as an `R::KIND` section: `count u64`, then the
    /// fixed-width records.
    pub fn run<R: RunRecord>(&mut self, run: &[R]) -> Result<(), SegmentError> {
        let mut payload = Vec::with_capacity(8 + run.len() * R::BYTES);
        put_u64(&mut payload, run.len() as u64);
        for r in run {
            r.encode(&mut payload);
        }
        self.section(R::KIND, &payload)
    }

    /// Appends `payload` — encoded [`wire`](crate::wire) records — as one
    /// [`KIND_BYTES`] section.
    pub fn bytes(&mut self, payload: &[u8]) -> Result<(), SegmentError> {
        self.section(KIND_BYTES, payload)
    }

    /// Seals the footer (section count, payload end, checksum), flushes, and
    /// atomically renames the temp file into place. Returns the final file
    /// size in bytes.
    pub fn finish(mut self) -> Result<u64, SegmentError> {
        let payload_end = self.offset;
        let sections = self.sections;
        let checksum = self.hash.finish();
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        footer.extend_from_slice(FOOTER_MAGIC);
        put_u64(&mut footer, sections);
        put_u64(&mut footer, payload_end);
        put_u64(&mut footer, checksum);
        self.out.write_all(&footer).map_err(|e| SegmentError::Io {
            path: self.tmp.clone(),
            offset: payload_end,
            reason: e.to_string(),
        })?;
        self.out.flush().map_err(|e| SegmentError::Io {
            path: self.tmp.clone(),
            offset: payload_end,
            reason: e.to_string(),
        })?;
        fs::rename(&self.tmp, &self.path).map_err(|e| SegmentError::Io {
            path: self.path.clone(),
            offset: 0,
            reason: e.to_string(),
        })?;
        Ok(payload_end + FOOTER_LEN)
    }
}

/// One section of an open segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section kind (`KIND_*`).
    pub kind: u32,
    /// Byte offset of the payload within the file.
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
}

/// Open options for [`Segment::open`].
#[derive(Clone, Debug)]
pub struct SegmentOptions {
    /// Producer fingerprint the file must carry.
    pub fingerprint: u64,
    /// Budget charged by resident pages (unlimited for none).
    pub budget: MemoryBudget,
    /// The `colstore.*` metrics handle.
    pub metrics: StoreMetrics,
    /// Page size of the demand-paged reader.
    pub page_bytes: u64,
}

impl SegmentOptions {
    /// Defaults: the given fingerprint, no budget, no metrics, 64 KiB pages.
    pub fn new(fingerprint: u64) -> SegmentOptions {
        SegmentOptions {
            fingerprint,
            budget: MemoryBudget::unlimited(),
            metrics: StoreMetrics::disabled(),
            page_bytes: DEFAULT_PAGE_BYTES,
        }
    }

    /// Charges resident pages against `budget`.
    pub fn with_budget(mut self, budget: MemoryBudget) -> SegmentOptions {
        self.budget = budget;
        self
    }

    /// Records reader activity into `metrics`.
    pub fn with_metrics(mut self, metrics: StoreMetrics) -> SegmentOptions {
        self.metrics = metrics;
        self
    }

    /// Overrides the page size (clamped to ≥ 512 B).
    pub fn with_page_bytes(mut self, page_bytes: u64) -> SegmentOptions {
        self.page_bytes = page_bytes.max(512);
        self
    }
}

/// A loaded page and its LRU tick.
struct PageSlot {
    data: Arc<Vec<u8>>,
    tick: u64,
}

/// The demand-paged reader state: an explicit page cache whose resident
/// bytes are charged against the budget — the safe-code mmap emulation.
struct Pager {
    file: File,
    path: PathBuf,
    file_len: u64,
    page_bytes: u64,
    budget: MemoryBudget,
    metrics: StoreMetrics,
    cache: Mutex<PagerCache>,
}

/// Every update keeps `pages` and `resident` in step with nothing fallible
/// between them, so a lock poisoned by a panicking reader still guards a
/// valid cache and is recovered with `PoisonError::into_inner`.
#[derive(Default)]
struct PagerCache {
    pages: HashMap<u64, PageSlot>,
    resident: u64,
    tick: u64,
}

impl Pager {
    fn page_len(&self, page: u64) -> u64 {
        let start = page * self.page_bytes;
        self.page_bytes.min(self.file_len.saturating_sub(start))
    }

    /// Loads (or returns the cached) page, evicting least-recently-used
    /// pages when the budget refuses the reservation. With every page
    /// evicted and the budget still refusing, the typed
    /// [`SegmentError::Resource`] verdict surfaces — never a panic.
    fn page(&self, page: u64) -> Result<Arc<Vec<u8>>, SegmentError> {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(slot) = cache.pages.get_mut(&page) {
            slot.tick = tick;
            return Ok(Arc::clone(&slot.data));
        }
        let len = self.page_len(page);
        loop {
            match self.budget.try_reserve("colstore", len) {
                Ok(()) => break,
                Err(e) => {
                    // Evict the least-recently-used page and retry; an empty
                    // cache means the budget is exhausted by other holders.
                    let lru = cache
                        .pages
                        .iter()
                        .min_by_key(|(_, slot)| slot.tick)
                        .map(|(&p, _)| p);
                    match lru {
                        Some(p) => self.evict(&mut cache, p),
                        None => return Err(SegmentError::Resource(e)),
                    }
                }
            }
        }
        let start = page * self.page_bytes;
        let mut data = vec![0u8; len as usize];
        if let Err(e) = self.file.read_exact_at(&mut data, start) {
            self.budget.release(len);
            return Err(SegmentError::Io {
                path: self.path.clone(),
                offset: start,
                reason: e.to_string(),
            });
        }
        let data = Arc::new(data);
        cache.pages.insert(
            page,
            PageSlot {
                data: Arc::clone(&data),
                tick,
            },
        );
        cache.resident += len;
        self.metrics.page_loaded(len);
        Ok(data)
    }

    fn evict(&self, cache: &mut PagerCache, page: u64) {
        if cache.pages.remove(&page).is_some() {
            let len = self.page_len(page);
            cache.resident = cache.resident.saturating_sub(len);
            self.budget.release(len);
            self.metrics.page_released(len);
            self.obs_evicted();
        }
    }

    fn obs_evicted(&self) {
        self.metrics.obs.counter("colstore.pages_evicted").incr();
    }

    /// Releases every cached page and its budget reservation. Sequential
    /// readers (the run cursors) call this after copying a refill out of the
    /// cache: a cursor never revisits bytes behind its position, so keeping
    /// them resident would let a k-way merge pin one page per run and
    /// starve tiny budgets. Not counted as `pages_evicted` — that counter
    /// means eviction under budget pressure.
    fn release_cached(&self) {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.resident > 0 {
            self.budget.release(cache.resident);
            self.metrics.page_released(cache.resident);
            cache.pages.clear();
            cache.resident = 0;
        }
    }

    /// Copies `buf.len()` bytes starting at `offset` out of the page cache.
    fn read_exact(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        let end = offset
            .checked_add(buf.len() as u64)
            .filter(|&e| e <= self.file_len)
            .ok_or_else(|| SegmentError::Truncated {
                path: self.path.clone(),
                offset: self.file_len,
                expected: format!("{} byte(s) at byte {offset}", buf.len()),
            })?;
        let mut pos = offset;
        let mut filled = 0usize;
        while pos < end {
            let page = pos / self.page_bytes;
            let data = self.page(page)?;
            let in_page = (pos - page * self.page_bytes) as usize;
            let take = (data.len() - in_page).min((end - pos) as usize);
            buf[filled..filled + take].copy_from_slice(&data[in_page..in_page + take]);
            filled += take;
            pos += take as u64;
        }
        Ok(())
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        self.release_cached();
    }
}

/// An open, validated segment file with a demand-paged read path.
pub struct Segment {
    sections: Vec<SectionInfo>,
    pager: Pager,
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.pager.path)
            .field("sections", &self.sections)
            .finish_non_exhaustive()
    }
}

impl Segment {
    /// Opens and fully validates a segment: header magic/version/fingerprint,
    /// footer magic and geometry, a streaming checksum pass over the payload
    /// (bounded buffer — validation never materializes the file), and the
    /// section table. Every defect is a typed [`SegmentError`] with the byte
    /// offset where it was found.
    pub fn open(path: impl Into<PathBuf>, opts: SegmentOptions) -> Result<Segment, SegmentError> {
        let path = path.into();
        let file = File::open(&path).map_err(|e| SegmentError::Io {
            path: path.clone(),
            offset: 0,
            reason: e.to_string(),
        })?;
        let file_len = file
            .metadata()
            .map_err(|e| SegmentError::Io {
                path: path.clone(),
                offset: 0,
                reason: e.to_string(),
            })?
            .len();
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(SegmentError::Truncated {
                path,
                offset: file_len,
                expected: format!("at least {} header+footer byte(s)", HEADER_LEN + FOOTER_LEN),
            });
        }
        let read_at = |offset: u64, buf: &mut [u8]| -> Result<(), SegmentError> {
            file.read_exact_at(buf, offset)
                .map_err(|e| SegmentError::Io {
                    path: path.clone(),
                    offset,
                    reason: e.to_string(),
                })
        };
        let wire = |e: WireError| SegmentError::wire(&path, e);
        // Header.
        let mut header = [0u8; HEADER_LEN as usize];
        read_at(0, &mut header)?;
        let mut d = Decoder::new(&header);
        if d.array::<8>().map_err(wire)? != *MAGIC {
            return Err(SegmentError::BadMagic { path, offset: 0 });
        }
        let version = d.u32().map_err(wire)?;
        let _reserved = d.u32().map_err(wire)?;
        let fingerprint = d.u64().map_err(wire)?;
        if version != VERSION {
            return Err(SegmentError::Version {
                path,
                found: version,
            });
        }
        if fingerprint != opts.fingerprint {
            return Err(SegmentError::Fingerprint {
                path,
                found: fingerprint,
                expected: opts.fingerprint,
            });
        }
        // Footer.
        let footer_at = file_len - FOOTER_LEN;
        let mut footer = [0u8; FOOTER_LEN as usize];
        read_at(footer_at, &mut footer)?;
        let mut d = Decoder::at(&footer, footer_at);
        if d.array::<8>().map_err(wire)? != *FOOTER_MAGIC {
            return Err(SegmentError::Truncated {
                path,
                offset: footer_at,
                expected: "the segment footer magic".to_string(),
            });
        }
        let section_count = d.u64().map_err(wire)?;
        let payload_end = d.u64().map_err(wire)?;
        let stored_checksum = d.u64().map_err(wire)?;
        if payload_end != footer_at || payload_end < HEADER_LEN {
            return Err(SegmentError::Malformed {
                path,
                offset: footer_at + 16,
                reason: format!(
                    "footer payload_end {payload_end} disagrees with file length {file_len}"
                ),
            });
        }
        // Streaming checksum over [0, payload_end), in bounded chunks.
        let mut hasher = Fnv1a::default();
        let mut buf = vec![0u8; 64 * 1024];
        let mut at = 0u64;
        while at < payload_end {
            let take = buf.len().min((payload_end - at) as usize);
            read_at(at, &mut buf[..take])?;
            hasher.write(&buf[..take]);
            at += take as u64;
        }
        let computed = hasher.finish();
        if computed != stored_checksum {
            return Err(SegmentError::Checksum {
                path,
                offset: footer_at + 24,
                computed,
                stored: stored_checksum,
            });
        }
        // Section table walk.
        let mut sections = Vec::new();
        let mut off = HEADER_LEN;
        for i in 0..section_count {
            if off + SECTION_HEADER_LEN > payload_end {
                return Err(SegmentError::Truncated {
                    path,
                    offset: off,
                    expected: format!("header of section {i}"),
                });
            }
            let mut sh = [0u8; SECTION_HEADER_LEN as usize];
            read_at(off, &mut sh)?;
            let mut d = Decoder::at(&sh, off);
            let kind = d.u32().map_err(wire)?;
            let _reserved = d.u32().map_err(wire)?;
            let payload_len = d.u64().map_err(wire)?;
            let payload_offset = off + SECTION_HEADER_LEN;
            if payload_len > payload_end - payload_offset {
                return Err(SegmentError::Malformed {
                    path,
                    offset: off + 8,
                    reason: format!(
                        "section {i} claims {payload_len} payload byte(s), only {} remain",
                        payload_end - payload_offset
                    ),
                });
            }
            sections.push(SectionInfo {
                kind,
                payload_offset,
                payload_len,
            });
            off = payload_offset + payload_len;
        }
        if off != payload_end {
            return Err(SegmentError::Malformed {
                path,
                offset: off,
                reason: format!(
                    "{} trailing byte(s) after the last section",
                    payload_end - off
                ),
            });
        }
        Ok(Segment {
            sections,
            pager: Pager {
                file,
                path,
                file_len,
                page_bytes: opts.page_bytes,
                budget: opts.budget,
                metrics: opts.metrics,
                cache: Mutex::new(PagerCache::default()),
            },
        })
    }

    /// The validated section table.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.pager.path
    }

    /// Currently resident (cached) bytes of this segment's pager.
    pub fn resident_bytes(&self) -> u64 {
        self.pager
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .resident
    }

    fn section_checked(&self, index: usize, kind: u32) -> Result<SectionInfo, SegmentError> {
        let info = *self
            .sections
            .get(index)
            .ok_or_else(|| SegmentError::Malformed {
                path: self.pager.path.clone(),
                offset: self.pager.file_len,
                reason: format!("no section at index {index}"),
            })?;
        if info.kind != kind {
            return Err(SegmentError::Malformed {
                path: self.pager.path.clone(),
                offset: info.payload_offset - SECTION_HEADER_LEN,
                reason: format!("section {index} has kind {}, expected {kind}", info.kind),
            });
        }
        Ok(info)
    }

    /// The record count and record area of a run section whose payload is
    /// `count u64` followed by `count × record_bytes`.
    fn run_geometry(
        &self,
        info: SectionInfo,
        record_bytes: u64,
    ) -> Result<(u64, u64), SegmentError> {
        if info.payload_len < 8 {
            return Err(SegmentError::Truncated {
                path: self.pager.path.clone(),
                offset: info.payload_offset,
                expected: "an 8-byte record count".to_string(),
            });
        }
        let mut count_buf = [0u8; 8];
        self.pager.read_exact(info.payload_offset, &mut count_buf)?;
        let count = u64::from_le_bytes(count_buf);
        let body = count
            .checked_mul(record_bytes)
            .and_then(|b| b.checked_add(8));
        if body != Some(info.payload_len) {
            return Err(SegmentError::Malformed {
                path: self.pager.path.clone(),
                offset: info.payload_offset,
                reason: format!(
                    "record count {count} disagrees with payload length {}",
                    info.payload_len
                ),
            });
        }
        // The count header's page is dead weight once decoded — release it
        // so opening many runs for a k-way merge pins nothing per segment.
        self.pager.release_cached();
        Ok((count, info.payload_offset + 8))
    }

    /// The whole payload of the [`KIND_BYTES`] section `index`. The pages it
    /// passed through are released before it returns.
    pub fn bytes(&self, index: usize) -> Result<Vec<u8>, SegmentError> {
        let info = self.section_checked(index, KIND_BYTES)?;
        let mut payload = vec![0u8; info.payload_len as usize];
        let read = self.pager.read_exact(info.payload_offset, &mut payload);
        self.pager.release_cached();
        read.map(|()| payload)
    }

    /// A streaming cursor over the sorted run in section `index`.
    pub fn run<R: RunRecord>(&self, index: usize) -> Result<RunCursor<'_, R>, SegmentError> {
        let info = self.section_checked(index, R::KIND)?;
        let (count, start) = self.run_geometry(info, R::BYTES as u64)?;
        Ok(RunCursor {
            seg: self,
            offset: start,
            remaining: count,
            buf: Vec::new(),
            pos: 0,
            record: PhantomData,
        })
    }
}

/// Records decoded per cursor refill.
pub const CURSOR_CHUNK: u64 = 4096;

/// Streaming, buffered cursor over one sorted run. Decodes
/// [`CURSOR_CHUNK`] records per page-cache visit and releases the pages
/// behind its position.
pub struct RunCursor<'a, R> {
    seg: &'a Segment,
    offset: u64,
    remaining: u64,
    buf: Vec<u8>,
    pos: usize,
    record: PhantomData<R>,
}

impl<R> fmt::Debug for RunCursor<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunCursor")
            .field("path", &self.seg.pager.path)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl<R: RunRecord> RunCursor<'_, R> {
    /// The next record, or `None` at end of run.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<R>, SegmentError> {
        if self.pos >= self.buf.len() {
            if self.remaining == 0 {
                return Ok(None);
            }
            let take = self.remaining.min(CURSOR_CHUNK);
            self.buf.resize(take as usize * R::BYTES, 0);
            self.seg.pager.read_exact(self.offset, &mut self.buf)?;
            self.seg.pager.release_cached();
            self.offset += take * R::BYTES as u64;
            self.remaining -= take;
            self.pos = 0;
        }
        // The record's file offset (the refill ends at `self.offset`).
        let at = self.offset - (self.buf.len() - self.pos) as u64;
        let mut d = Decoder::at(&self.buf[self.pos..self.pos + R::BYTES], at);
        let record = R::decode(&mut d).map_err(|e| SegmentError::wire(&self.seg.pager.path, e))?;
        self.pos += R::BYTES;
        Ok(Some(record))
    }
}

/// Configuration of an [`ExternalSorter`] and so of the out-of-core builders
/// in `er-blocking` and `er-metablocking`: where spill segments live, how
/// large a sorted run may grow, and which governance handles (budget,
/// watchdog, metrics) the spill/merge machinery reports to.
#[derive(Clone, Debug)]
pub struct OocConfig {
    /// Directory holding this run's spill segments.
    pub segment_dir: PathBuf,
    /// Records buffered per sorted run before spilling (postings for the
    /// blocking build, edge contributions for the graph build). The run
    /// buffer is charged against the budget and adaptively halved — never
    /// below a floor — when the reservation fails.
    pub run_entries: usize,
    /// Producer fingerprint stamped into every segment
    /// (see [`collection_fingerprint`]).
    pub fingerprint: u64,
    /// Budget charged by run buffers and resident pages.
    pub budget: MemoryBudget,
    /// Stage watchdog checked at spill boundaries and mid-merge.
    pub watchdog: crate::resource::Watchdog,
    /// The `colstore.*` metrics handle.
    pub metrics: StoreMetrics,
    /// Page size of the demand-paged merge readers. Smaller than
    /// [`DEFAULT_PAGE_BYTES`] because a k-way merge keeps one hot page per
    /// run resident.
    pub page_bytes: u64,
}

/// Default records per sorted run.
pub const DEFAULT_RUN_ENTRIES: usize = 64 * 1024;
/// Default merge-reader page size.
pub const DEFAULT_MERGE_PAGE_BYTES: u64 = 16 * 1024;

impl OocConfig {
    /// Defaults: 64 Ki records per run, no budget, no watchdog, no metrics,
    /// 16 KiB merge pages, zero fingerprint.
    pub fn new(segment_dir: impl Into<PathBuf>) -> OocConfig {
        OocConfig {
            segment_dir: segment_dir.into(),
            run_entries: DEFAULT_RUN_ENTRIES,
            fingerprint: 0,
            budget: MemoryBudget::unlimited(),
            watchdog: crate::resource::Watchdog::disarmed(),
            metrics: StoreMetrics::disabled(),
            page_bytes: DEFAULT_MERGE_PAGE_BYTES,
        }
    }

    /// Overrides the run size (clamped to ≥ 64 records).
    pub fn with_run_entries(mut self, run_entries: usize) -> OocConfig {
        self.run_entries = run_entries.max(64);
        self
    }

    /// Stamps segments with `fingerprint`.
    pub fn with_fingerprint(mut self, fingerprint: u64) -> OocConfig {
        self.fingerprint = fingerprint;
        self
    }

    /// Charges run buffers and resident pages against `budget`.
    pub fn with_budget(mut self, budget: MemoryBudget) -> OocConfig {
        self.budget = budget;
        self
    }

    /// Checks `watchdog` at spill boundaries and mid-merge.
    pub fn with_watchdog(mut self, watchdog: crate::resource::Watchdog) -> OocConfig {
        self.watchdog = watchdog;
        self
    }

    /// Records spill/merge activity into `metrics`.
    pub fn with_metrics(mut self, metrics: StoreMetrics) -> OocConfig {
        self.metrics = metrics;
        self
    }

    /// Overrides the merge-reader page size (clamped to ≥ 512 B).
    pub fn with_page_bytes(mut self, page_bytes: u64) -> OocConfig {
        self.page_bytes = page_bytes.max(512);
        self
    }

    /// The [`SegmentOptions`] for opening one of this run's segments.
    pub fn segment_options(&self) -> SegmentOptions {
        SegmentOptions::new(self.fingerprint)
            .with_budget(self.budget.clone())
            .with_metrics(self.metrics.clone())
            .with_page_bytes(self.page_bytes)
    }
}

/// Floor of the adaptive run-buffer shrink.
const MIN_RUN_ENTRIES: usize = 64;

/// Merge steps between watchdog checks.
const MERGE_CHECK_EVERY: u64 = 4096;

/// The external sort both out-of-core builders stream through: records
/// accumulate in a bounded, budget-charged run buffer; each full buffer is
/// stable-sorted by [`RunRecord::key`] and spilled as one run segment under
/// `cfg.segment_dir`; [`merge`](Self::merge) streams the runs back in
/// `(key, run index)` order. The merged stream is therefore the **stable
/// sort of the pushed sequence** — runs are contiguous windows of it, so
/// records with equal keys come out in arrival order (coalesced to one when
/// [`RunRecord::COALESCE`]). Run files are removed and the buffer's
/// reservation returned when the sorter drops, on success and on error.
pub struct ExternalSorter<'a, R: RunRecord> {
    cfg: &'a OocConfig,
    /// Names the budget reservation, the watchdog checks and the run files.
    stage: &'static str,
    /// The run buffer; `reserved` bytes of the budget are held for it.
    buf: Vec<R>,
    reserved: u64,
    /// Run size after the adaptive shrink.
    run_entries: usize,
    /// Spilled run segments, in spill order.
    runs: Vec<PathBuf>,
}

impl<'a, R: RunRecord> ExternalSorter<'a, R> {
    /// Creates the spill directory and reserves the run buffer, halving it
    /// until the budget admits it — a typed error below the 64-record floor.
    pub fn new(cfg: &'a OocConfig, stage: &'static str) -> Result<Self, SegmentError> {
        fs::create_dir_all(&cfg.segment_dir).map_err(|e| SegmentError::Io {
            path: cfg.segment_dir.clone(),
            offset: 0,
            reason: e.to_string(),
        })?;
        let mut run_entries = cfg.run_entries.max(MIN_RUN_ENTRIES);
        let reserved = loop {
            let bytes = (run_entries * std::mem::size_of::<R>()) as u64;
            match cfg.budget.try_reserve(stage, bytes) {
                Ok(()) => break bytes,
                Err(e) if run_entries == MIN_RUN_ENTRIES => return Err(e.into()),
                Err(_) => run_entries = (run_entries / 2).max(MIN_RUN_ENTRIES),
            }
        };
        Ok(ExternalSorter {
            cfg,
            stage,
            buf: Vec::with_capacity(run_entries),
            reserved,
            run_entries,
            runs: Vec::new(),
        })
    }

    /// Appends records in arrival order, spilling at each run boundary.
    /// Checks the watchdog once per call and at every spill.
    pub fn push_all(&mut self, records: impl IntoIterator<Item = R>) -> Result<(), SegmentError> {
        self.cfg.watchdog.check(self.stage)?;
        for record in records {
            if self.buf.len() >= self.run_entries {
                self.spill()?;
            }
            self.buf.push(record);
        }
        Ok(())
    }

    /// Sorts the buffered records and spills them as one run segment.
    fn spill(&mut self) -> Result<(), SegmentError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.cfg.watchdog.check(self.stage)?;
        self.buf.sort_by_key(R::key);
        if R::COALESCE {
            self.buf.dedup_by_key(|r| r.key());
        }
        let name = format!("{}-run-{:05}.seg", self.stage, self.runs.len());
        let path = self.cfg.segment_dir.join(name);
        let mut w = SegmentWriter::create(&path, self.cfg.fingerprint)?;
        w.run(&self.buf)?;
        self.cfg.metrics.segment_written(w.finish()?);
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Spills the last partial run — a non-empty input always writes at
    /// least one segment — and streams every record to `sink` in sorted
    /// order. On `Err` the caller must discard whatever `sink` accumulated.
    pub fn merge(mut self, mut sink: impl FnMut(R)) -> Result<(), SegmentError> {
        self.spill()?;
        // The merge no longer needs the run buffer: hand its bytes back
        // before the page cache starts charging.
        self.cfg.budget.release(std::mem::take(&mut self.reserved));
        if self.runs.is_empty() {
            return Ok(());
        }
        let cfg = self.cfg;
        cfg.metrics.runs_merged(self.runs.len() as u64);
        let segments: Vec<Segment> = self
            .runs
            .iter()
            .map(|p| Segment::open(p, cfg.segment_options()))
            .collect::<Result<_, _>>()?;
        let mut cursors = Vec::with_capacity(segments.len());
        for seg in &segments {
            cursors.push(seg.run::<R>(0)?);
        }
        // Min-heap on (key, run index); `heads[run]` is the record behind
        // the heap entry of `run`. Runs are contiguous arrival windows, so
        // draining equal keys in run order replays global arrival order.
        let mut heap: BinaryHeap<Reverse<(R::Key, usize)>> = BinaryHeap::new();
        let mut heads: Vec<Option<R>> = Vec::with_capacity(cursors.len());
        for (run, cursor) in cursors.iter_mut().enumerate() {
            let head = cursor.next()?;
            if let Some(r) = &head {
                heap.push(Reverse((r.key(), run)));
            }
            heads.push(head);
        }
        let mut last: Option<R::Key> = None;
        let mut steps: u64 = 0;
        while let Some(Reverse((key, run))) = heap.pop() {
            steps += 1;
            if steps.is_multiple_of(MERGE_CHECK_EVERY) {
                cfg.watchdog.check(self.stage)?;
            }
            let next = cursors[run].next()?;
            if let Some(r) = &next {
                heap.push(Reverse((r.key(), run)));
            }
            let head = std::mem::replace(&mut heads[run], next);
            if R::COALESCE && last.replace(key) == Some(key) {
                continue; // cross-run repeat
            }
            if let Some(record) = head {
                sink(record);
            }
        }
        Ok(())
    }
}

impl<R: RunRecord> Drop for ExternalSorter<'_, R> {
    fn drop(&mut self) {
        self.cfg.budget.release(self.reserved);
        for path in &self.runs {
            let _ = fs::remove_file(path);
        }
    }
}

/// A cheap structural fingerprint of a collection (mode, cardinality, and
/// the per-entity KB/arity shape), stamped into spill segments so a reader
/// can never merge runs produced from a different collection.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as SeqCounter;

    fn tmp_seg(tag: &str) -> PathBuf {
        static SEQ: SeqCounter = SeqCounter::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("er-colstore-{}-{tag}-{n}.seg", std::process::id()))
    }

    fn sample_postings(n: u32) -> Vec<(Symbol, EntityId)> {
        (0..n)
            .flat_map(|s| (0..3u32).map(move |e| (Symbol(s), EntityId(s * 3 + e))))
            .collect()
    }

    #[test]
    fn postings_round_trip_bit_exact() {
        let path = tmp_seg("postings");
        let run = sample_postings(100);
        let mut w = SegmentWriter::create(&path, 42).unwrap();
        w.run(&run).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes, fs::metadata(&path).unwrap().len());
        let seg = Segment::open(&path, SegmentOptions::new(42)).unwrap();
        assert_eq!(seg.sections().len(), 1);
        assert_eq!(seg.sections()[0].kind, KIND_POSTINGS);
        let mut cursor = seg.run::<(Symbol, EntityId)>(0).unwrap();
        let mut got = Vec::new();
        while let Some(p) = cursor.next().unwrap() {
            got.push(p);
        }
        assert_eq!(got, run);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn edge_runs_round_trip_f64_bits() {
        let path = tmp_seg("edges");
        let run: Vec<EdgeRecord> = (0..50u32)
            .map(|i| EdgeRecord {
                a: i,
                b: i + 1,
                count: i % 7,
                weight_bits: (1.0 / f64::from(i + 1)).to_bits(),
            })
            .collect();
        let mut w = SegmentWriter::create(&path, 7).unwrap();
        w.run(&run).unwrap();
        w.finish().unwrap();
        let seg = Segment::open(&path, SegmentOptions::new(7)).unwrap();
        let mut cursor = seg.run::<EdgeRecord>(0).unwrap();
        let mut got = Vec::new();
        while let Some(e) = cursor.next().unwrap() {
            got.push(e);
        }
        assert_eq!(got, run);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn tmp_file_never_survives_finish() {
        let path = tmp_seg("tmpgone");
        let mut w = SegmentWriter::create(&path, 5).unwrap();
        w.run(&sample_postings(4)).unwrap();
        w.finish().unwrap();
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(".tmp");
        assert!(!path.with_file_name(name).exists());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncation_is_a_typed_error_with_offset() {
        let path = tmp_seg("trunc");
        let mut w = SegmentWriter::create(&path, 3).unwrap();
        w.run(&sample_postings(64)).unwrap();
        w.finish().unwrap();
        let good = fs::read(&path).unwrap();
        for cut in [0, 10, HEADER_LEN as usize, good.len() - 1, good.len() - 40] {
            fs::write(&path, &good[..cut]).unwrap();
            let err = Segment::open(&path, SegmentOptions::new(3)).unwrap_err();
            match err {
                SegmentError::Truncated { .. }
                | SegmentError::Checksum { .. }
                | SegmentError::Malformed { .. }
                | SegmentError::BadMagic { .. } => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
            assert!(err.to_string().contains("byte"), "offset named: {err}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn single_byte_mutations_are_caught() {
        let path = tmp_seg("mutate");
        let mut w = SegmentWriter::create(&path, 3).unwrap();
        w.run(&sample_postings(32)).unwrap();
        w.finish().unwrap();
        let good = fs::read(&path).unwrap();
        let step = (good.len() / 23).max(1);
        for at in (0..good.len()).step_by(step) {
            let mut bad = good.clone();
            bad[at] ^= 0x41;
            fs::write(&path, &bad).unwrap();
            assert!(
                Segment::open(&path, SegmentOptions::new(3)).is_err(),
                "mutation at byte {at} must be detected"
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wrong_fingerprint_and_version_are_typed() {
        let path = tmp_seg("fp");
        let mut w = SegmentWriter::create(&path, 3).unwrap();
        w.run(&sample_postings(4)).unwrap();
        w.finish().unwrap();
        match Segment::open(&path, SegmentOptions::new(4)).unwrap_err() {
            SegmentError::Fingerprint {
                found, expected, ..
            } => {
                assert_eq!((found, expected), (3, 4));
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    /// The one-section bytes segment shuffle segments and checkpoints are
    /// written as: the payload round-trips byte for byte, the tmp file is
    /// gone, and each defect a reader must catch is a typed error.
    #[test]
    fn bytes_section_round_trips_and_rejects_each_defect() {
        let path = tmp_seg("bytes");
        let payload: Vec<u8> = (0..=255u8).chain(*b"tab\tnew\nline").collect();
        let mut w = SegmentWriter::create(&path, 9).unwrap();
        w.bytes(&payload).unwrap();
        w.finish().unwrap();
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(".tmp");
        assert!(!path.with_file_name(name).exists());
        let seg = Segment::open(&path, SegmentOptions::new(9)).unwrap();
        assert_eq!(seg.sections()[0].kind, KIND_BYTES);
        assert_eq!(seg.bytes(0).unwrap(), payload);
        assert_eq!(seg.resident_bytes(), 0, "the read released its pages");
        // A run cursor over a bytes section, and a bytes read of a run
        // section, are kind mismatches.
        assert!(matches!(
            seg.run::<(Symbol, EntityId)>(0).unwrap_err(),
            SegmentError::Malformed { .. }
        ));
        assert!(matches!(
            seg.bytes(1).unwrap_err(),
            SegmentError::Malformed { .. }
        ));
        drop(seg);
        let good = fs::read(&path).unwrap();
        // Truncated: the footer is cut.
        fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(matches!(
            Segment::open(&path, SegmentOptions::new(9)).unwrap_err(),
            SegmentError::Truncated { .. }
        ));
        // Wrong fingerprint, wrong version, empty file.
        fs::write(&path, &good).unwrap();
        assert!(matches!(
            Segment::open(&path, SegmentOptions::new(8)).unwrap_err(),
            SegmentError::Fingerprint { .. }
        ));
        let mut bad = good;
        bad[8] = 2;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Segment::open(&path, SegmentOptions::new(9)).unwrap_err(),
            SegmentError::Version { found: 2, .. }
        ));
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            Segment::open(&path, SegmentOptions::new(9)).unwrap_err(),
            SegmentError::Truncated { offset: 0, .. }
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn absent_file_is_a_typed_io_error() {
        let err = Segment::open(tmp_seg("absent"), SegmentOptions::new(0)).unwrap_err();
        assert!(matches!(err, SegmentError::Io { .. }), "{err:?}");
    }

    #[test]
    fn pager_charges_and_drains_the_budget() {
        let path = tmp_seg("budget");
        let mut w = SegmentWriter::create(&path, 11).unwrap();
        w.run(&sample_postings(10_000)).unwrap();
        w.finish().unwrap();
        let budget = MemoryBudget::bytes(8 * 1024);
        let metrics = StoreMetrics::new(Obs::enabled());
        {
            let seg = Segment::open(
                &path,
                SegmentOptions::new(11)
                    .with_budget(budget.clone())
                    .with_metrics(metrics.clone())
                    .with_page_bytes(2048),
            )
            .unwrap();
            let mut cursor = seg.run::<(Symbol, EntityId)>(0).unwrap();
            let mut n = 0u64;
            while cursor.next().unwrap().is_some() {
                n += 1;
                assert!(budget.used() <= 8 * 1024, "resident pages within budget");
            }
            assert_eq!(n, 30_000);
            let snap = metrics.obs.snapshot();
            assert!(
                snap.counter("colstore.pages_loaded").unwrap_or(0) > 1,
                "the scan demand-paged: {snap:?}"
            );
            // Sequential scans release consumed pages at every refill, so
            // nothing stays resident between reads — the property that lets
            // a k-way merge over many runs live inside a tiny budget.
            assert_eq!(metrics.resident_bytes(), 0, "refills drain the cache");
            assert_eq!(budget.used(), metrics.resident_bytes());
        }
        assert_eq!(budget.used(), 0, "drop releases every page");
        assert_eq!(metrics.resident_bytes(), 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn starved_budget_is_a_typed_error_not_a_panic() {
        let path = tmp_seg("starved");
        let mut w = SegmentWriter::create(&path, 11).unwrap();
        w.run(&sample_postings(1000)).unwrap();
        w.finish().unwrap();
        // A budget smaller than one page: the pager can never reserve.
        let budget = MemoryBudget::bytes(64);
        let seg = Segment::open(
            &path,
            SegmentOptions::new(11)
                .with_budget(budget)
                .with_page_bytes(4096),
        )
        .unwrap();
        let err = seg.run::<(Symbol, EntityId)>(0).unwrap_err();
        assert!(matches!(err, SegmentError::Resource(_)), "{err:?}");
    }

    // ------------------------------------------------------ ExternalSorter
    //
    // The mechanism tests of the one external sort. They replace the
    // per-builder copies that `er-blocking::ooc` / `er-metablocking::ooc`
    // carried while each had its own spill/merge loop:
    //
    // * `…::ooc_build_records_metrics_and_charges_budget` (blocking) and
    //   `…::ooc_build_drains_budget_and_records_metrics` (meta-blocking)
    //   → `sorted_stream_is_the_stable_sort_of_the_input`
    // * `…::starved_budget_is_a_typed_error` (blocking)
    //   → `run_buffer_shrinks_to_fit_and_a_starved_budget_is_typed`
    // * `…::expired_watchdog_is_a_typed_error_not_partial_output` (both)
    //   → `expired_watchdog_is_typed_never_partial_and_leaves_no_runs`

    fn files_in(dir: &Path) -> usize {
        fs::read_dir(dir).map_or(0, |d| d.count())
    }

    /// Seeded 64-bit LCG (Knuth's MMIX constants), high bits returned.
    fn lcg(state: &mut u64) -> u32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as u32
    }

    fn random_postings(seed: u64, n: usize) -> Vec<(Symbol, EntityId)> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                (
                    Symbol(lcg(&mut state) % 200),
                    EntityId(lcg(&mut state) % 40),
                )
            })
            .collect()
    }

    /// Few distinct pairs, every weight distinct: equal pairs are only told
    /// apart by their arrival position.
    fn random_edges(seed: u64, n: usize) -> Vec<EdgeRecord> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                let a = lcg(&mut state) % 12;
                EdgeRecord {
                    a,
                    b: a + 1 + lcg(&mut state) % 4,
                    count: 1,
                    weight_bits: (1.0 / (i + 1) as f64).to_bits(),
                }
            })
            .collect()
    }

    fn sorted_by<R: RunRecord>(cfg: &OocConfig, input: &[R]) -> Result<Vec<R>, SegmentError> {
        let mut sorter = ExternalSorter::new(cfg, "sorter-test")?;
        // Several calls: arrival order spans `push_all` boundaries.
        for part in input.chunks(1000) {
            sorter.push_all(part.iter().copied())?;
        }
        let mut out = Vec::new();
        sorter.merge(|r| out.push(r))?;
        Ok(out)
    }

    #[test]
    fn sorted_stream_is_the_stable_sort_of_the_input() {
        const N: usize = 10_000;
        for seed in [1u64, 0xE9, 0xfeed_beef] {
            for run_entries in [64usize, 65, 4096] {
                let dir = tmp_seg("sorter-stable");
                let obs = Obs::enabled();
                let metrics = StoreMetrics::new(obs.clone());
                let budget = MemoryBudget::bytes(1 << 20);
                let cfg = OocConfig::new(&dir)
                    .with_run_entries(run_entries)
                    .with_budget(budget.clone())
                    .with_metrics(metrics.clone());
                let cell = format!("seed {seed} run {run_entries}");

                // Postings coalesce: the stream is sort + dedup.
                let postings = random_postings(seed, N);
                let mut want = postings.clone();
                want.sort();
                want.dedup();
                assert!(want.len() < N, "{cell}: the input has repeats");
                assert_eq!(sorted_by(&cfg, &postings).unwrap(), want, "{cell}");

                // Edge records do not: equal pairs with distinct weights come
                // out in arrival order — what ARCS bit-identity rests on.
                let edges = random_edges(seed, N);
                let mut want = edges.clone();
                want.sort_by_key(|r| (r.a, r.b));
                assert_eq!(sorted_by(&cfg, &edges).unwrap(), want, "{cell}");

                let runs = 2 * N.div_ceil(run_entries) as u64;
                let snap = obs.snapshot();
                assert_eq!(snap.counter("colstore.segments_written"), Some(runs));
                assert_eq!(snap.counter("colstore.runs_merged"), Some(runs));
                assert!(snap.counter("colstore.segment_bytes").unwrap() > 0);
                assert_eq!(budget.used(), 0, "{cell}: reservations drained");
                assert_eq!(metrics.resident_bytes(), 0, "{cell}: pages released");
                assert_eq!(files_in(&dir), 0, "{cell}: run files removed");
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn run_buffer_shrinks_to_fit_and_a_starved_budget_is_typed() {
        // 4096 postings × 8 B do not fit 4 KiB; 512 do. The merge then
        // streams 20 runs through 512 B pages inside the same budget.
        let dir = tmp_seg("sorter-shrink");
        let obs = Obs::enabled();
        let budget = MemoryBudget::bytes(4096);
        let cfg = OocConfig::new(&dir)
            .with_run_entries(4096)
            .with_page_bytes(512)
            .with_budget(budget.clone())
            .with_metrics(StoreMetrics::new(obs.clone()));
        let postings = random_postings(7, 10_000);
        let got = sorted_by(&cfg, &postings).unwrap();
        assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        let written = obs.snapshot().counter("colstore.segments_written");
        assert_eq!(written, Some(10_000u64.div_ceil(512)));
        assert_eq!(budget.used(), 0);

        // Below the 64-record floor there is no buffer to build with.
        let starved = OocConfig::new(&dir).with_budget(MemoryBudget::bytes(16));
        let err = sorted_by(&starved, &postings).unwrap_err();
        assert!(
            matches!(
                err,
                SegmentError::Resource(ResourceError::BudgetExhausted { .. })
            ),
            "{err:?}"
        );
        assert_eq!(
            files_in(&dir),
            0,
            "run files removed after success and error"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_watchdog_is_typed_never_partial_and_leaves_no_runs() {
        use crate::resource::Watchdog;
        use std::time::Duration;
        let edges = random_edges(3, 5_000);
        let deadline = |err: SegmentError| {
            assert!(
                matches!(
                    err,
                    SegmentError::Resource(ResourceError::DeadlineExceeded { .. })
                ),
                "{err:?}"
            );
        };

        // Expired before the first record.
        let dir = tmp_seg("sorter-watchdog");
        let cfg = OocConfig::new(&dir)
            .with_run_entries(64)
            .with_watchdog(Watchdog::timeout(Duration::ZERO));
        deadline(sorted_by(&cfg, &edges).unwrap_err());
        assert_eq!(files_in(&dir), 0);

        // Expired between spill and merge: runs are on disk, the merge
        // still refuses and hands `sink` nothing.
        let budget = MemoryBudget::bytes(1 << 20);
        let cfg = OocConfig::new(&dir)
            .with_run_entries(64)
            .with_budget(budget.clone())
            .with_watchdog(Watchdog::timeout(Duration::from_millis(250)));
        let mut sorter = ExternalSorter::new(&cfg, "sorter-test").unwrap();
        let mut delivered = 0u64;
        let outcome = sorter.push_all(edges.iter().copied()).and_then(|()| {
            assert!(files_in(&dir) > 1, "runs spilled before the deadline");
            std::thread::sleep(Duration::from_millis(300));
            sorter.merge(|_| delivered += 1)
        });
        // (On a machine too slow to spill 5k records in 250 ms the push
        // itself hits the deadline — the same typed refusal.)
        deadline(outcome.unwrap_err());
        assert_eq!(delivered, 0, "never partial output");
        assert_eq!(files_in(&dir), 0, "run files removed on error");
        assert_eq!(budget.used(), 0, "reservation returned on error");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_record_segments_and_runs() {
        let obs = Obs::enabled();
        let metrics = StoreMetrics::new(obs.clone());
        metrics.segment_written(100);
        metrics.segment_written(28);
        metrics.runs_merged(3);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("colstore.segments_written"), Some(2));
        assert_eq!(snap.counter("colstore.segment_bytes"), Some(128));
        assert_eq!(snap.counter("colstore.runs_merged"), Some(3));
    }
}
