//! Columnar segment store: the on-disk format of the pipeline's stage
//! checkpoints.
//!
//! This module puts [`wire`](crate::wire) records into a **versioned,
//! fingerprinted, length-prefixed segment file**: a checkpointed run writes
//! each stage's result as one.
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
//! section headers and footer — is read through the one bounded
//! [`wire::Decoder`](crate::wire::Decoder).
//!
//! Section payloads:
//!
//! * `BYTES` (1) — opaque [`wire`](crate::wire) records, read whole
//!   ([`Segment::bytes`]): the pipeline's stage checkpoints are one-section
//!   segments of this kind.
//!
//! Kinds 2 (the retired posting runs of the MapReduce shuffle, which now
//! rides in worker frames), 3 (the retired edge runs of an out-of-core graph
//! build) and 4 are unassigned; every kind keeps its number so a segment's
//! bytes do not depend on which kinds exist.
//!
//! ## Reads without `mmap`
//!
//! The workspace forbids `unsafe` and vendors no mmap crate, and every
//! reader of a segment reads a whole section, so each read goes straight
//! from the file into the caller's buffer with one positional
//! [`FileExt::read_exact_at`] call; nothing is cached.

use crate::intern::Fnv1a;
use crate::obs::Obs;
use crate::resource::MemoryBudget;
use crate::wire::{put_u32, put_u64, Decoder, WireError};
use crate::{EntityCollection, ResolutionMode};
use std::fmt;
use std::fs::{self, File};
use std::hash::Hasher;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

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

/// Section kind: opaque [`wire`](crate::wire) records, read whole.
pub const KIND_BYTES: u32 = 1;

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
        }
    }
}

impl std::error::Error for SegmentError {}

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

/// The positional reader under every segment read. It holds no pages:
/// each read goes straight into the caller's buffer.
struct Reader {
    file: File,
    path: PathBuf,
    file_len: u64,
}

impl Reader {
    /// Reads `buf.len()` bytes starting at `offset` in one positional read;
    /// a range past the end of the file is [`SegmentError::Truncated`].
    fn read_exact(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        let end = offset.checked_add(buf.len() as u64);
        if end.is_none_or(|end| end > self.file_len) {
            return Err(SegmentError::Truncated {
                path: self.path.clone(),
                offset: self.file_len,
                expected: format!("{} byte(s) at byte {offset}", buf.len()),
            });
        }
        self.file
            .read_exact_at(buf, offset)
            .map_err(|e| SegmentError::Io {
                path: self.path.clone(),
                offset,
                reason: e.to_string(),
            })
    }
}

/// An open, validated segment file.
pub struct Segment {
    sections: Vec<SectionInfo>,
    reader: Reader,
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.reader.path)
            .field("sections", &self.sections)
            .finish_non_exhaustive()
    }
}

impl Segment {
    /// Opens and fully validates a segment: header magic/version/fingerprint,
    /// footer magic and geometry, a streaming checksum pass over the payload
    /// (bounded buffer — validation never materializes the file), and the
    /// section table. Every defect is a typed [`SegmentError`] with the byte
    /// offset where it was found. `fingerprint` is the producer fingerprint
    /// the file must carry.
    pub fn open(path: impl Into<PathBuf>, fingerprint: u64) -> Result<Segment, SegmentError> {
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
        let found = d.u64().map_err(wire)?;
        if version != VERSION {
            return Err(SegmentError::Version {
                path,
                found: version,
            });
        }
        if found != fingerprint {
            return Err(SegmentError::Fingerprint {
                path,
                found,
                expected: fingerprint,
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
            reader: Reader {
                file,
                path,
                file_len,
            },
        })
    }

    /// The validated section table.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.reader.path
    }

    fn section_checked(&self, index: usize, kind: u32) -> Result<SectionInfo, SegmentError> {
        let info = *self
            .sections
            .get(index)
            .ok_or_else(|| SegmentError::Malformed {
                path: self.reader.path.clone(),
                offset: self.reader.file_len,
                reason: format!("no section at index {index}"),
            })?;
        if info.kind != kind {
            return Err(SegmentError::Malformed {
                path: self.reader.path.clone(),
                offset: info.payload_offset - SECTION_HEADER_LEN,
                reason: format!("section {index} has kind {}, expected {kind}", info.kind),
            });
        }
        Ok(info)
    }

    /// The whole payload of the [`KIND_BYTES`] section `index`.
    pub fn bytes(&self, index: usize) -> Result<Vec<u8>, SegmentError> {
        let info = self.section_checked(index, KIND_BYTES)?;
        let mut payload = vec![0u8; info.payload_len as usize];
        self.reader.read_exact(info.payload_offset, &mut payload)?;
        Ok(payload)
    }
}

/// The configuration of the retired out-of-core blocking build, kept only
/// because `bench/` names it; delete with ROADMAP direction 1. Its builders
/// discard their arguments, and nothing reads it: the token transpose
/// spills nothing (see `docs/out_of_core.md`).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_seg(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("er-colstore-{}-{tag}-{n}.seg", std::process::id()))
    }

    /// `n` wire records of three `u32`s each.
    fn sample_payload(n: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for s in 0..n {
            for e in 0..3u32 {
                put_u32(&mut out, s * 3 + e);
            }
        }
        out
    }

    #[test]
    fn tmp_file_never_survives_finish() {
        let path = tmp_seg("tmpgone");
        let mut w = SegmentWriter::create(&path, 5).unwrap();
        w.bytes(&sample_payload(4)).unwrap();
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
        w.bytes(&sample_payload(64)).unwrap();
        w.finish().unwrap();
        let good = fs::read(&path).unwrap();
        for cut in [0, 10, HEADER_LEN as usize, good.len() - 1, good.len() - 40] {
            fs::write(&path, &good[..cut]).unwrap();
            let err = Segment::open(&path, 3).unwrap_err();
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
        w.bytes(&sample_payload(32)).unwrap();
        w.finish().unwrap();
        let good = fs::read(&path).unwrap();
        let step = (good.len() / 23).max(1);
        for at in (0..good.len()).step_by(step) {
            let mut bad = good.clone();
            bad[at] ^= 0x41;
            fs::write(&path, &bad).unwrap();
            assert!(
                Segment::open(&path, 3).is_err(),
                "mutation at byte {at} must be detected"
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wrong_fingerprint_and_version_are_typed() {
        let path = tmp_seg("fp");
        let mut w = SegmentWriter::create(&path, 3).unwrap();
        w.bytes(&sample_payload(4)).unwrap();
        w.finish().unwrap();
        match Segment::open(&path, 4).unwrap_err() {
            SegmentError::Fingerprint {
                found, expected, ..
            } => {
                assert_eq!((found, expected), (3, 4));
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    /// The one-section bytes segment checkpoints are written as: the payload
    /// round-trips byte for byte, `finish` returns the file's length, the
    /// tmp file is gone, and each defect a reader must catch is a typed
    /// error.
    #[test]
    fn bytes_section_round_trips_and_rejects_each_defect() {
        let path = tmp_seg("bytes");
        let payload: Vec<u8> = (0..=255u8).chain(*b"tab\tnew\nline").collect();
        let mut w = SegmentWriter::create(&path, 9).unwrap();
        w.bytes(&payload).unwrap();
        let len = w.finish().unwrap();
        assert_eq!(len, fs::metadata(&path).unwrap().len());
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(".tmp");
        assert!(!path.with_file_name(name).exists());
        let seg = Segment::open(&path, 9).unwrap();
        assert_eq!(seg.sections()[0].kind, KIND_BYTES);
        assert_eq!(seg.bytes(0).unwrap(), payload);
        // A bytes read past the last section is malformed.
        assert!(matches!(
            seg.bytes(1).unwrap_err(),
            SegmentError::Malformed { .. }
        ));
        drop(seg);
        let good = fs::read(&path).unwrap();
        // Truncated: the footer is cut.
        fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(matches!(
            Segment::open(&path, 9).unwrap_err(),
            SegmentError::Truncated { .. }
        ));
        // Wrong fingerprint, wrong version, empty file.
        fs::write(&path, &good).unwrap();
        assert!(matches!(
            Segment::open(&path, 8).unwrap_err(),
            SegmentError::Fingerprint { .. }
        ));
        let mut bad = good;
        bad[8] = 2;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            Segment::open(&path, 9).unwrap_err(),
            SegmentError::Version { found: 2, .. }
        ));
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            Segment::open(&path, 9).unwrap_err(),
            SegmentError::Truncated { offset: 0, .. }
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn absent_file_is_a_typed_io_error() {
        let err = Segment::open(tmp_seg("absent"), 0).unwrap_err();
        assert!(matches!(err, SegmentError::Io { .. }), "{err:?}");
    }
}
