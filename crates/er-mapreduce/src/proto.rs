//! Length-prefixed framed worker protocol.
//!
//! The multi-process backend (Dedoop \[18\] direction, §II) speaks this
//! protocol between the coordinator and each worker child process over the
//! worker's stdin/stdout. It reuses the escaping discipline of
//! [`er_core::codec`]: a frame payload is one UTF-8 line of tab-separated,
//! [`escape`]d fields, the first field being the frame kind tag. On the wire
//! every payload is preceded by a `u32` big-endian byte length, so the stream
//! is self-delimiting and a killed writer leaves a cleanly detectable
//! truncation instead of a garbled tail.
//!
//! Decoding is total: EOF mid-frame, an oversized length prefix, invalid
//! UTF-8, and malformed payloads are all typed [`FrameError`]s carrying the
//! byte offset of the offending frame — never a panic, and never an
//! allocation sized by untrusted input (the length is validated against
//! [`MAX_FRAME_BYTES`] *before* any buffer is reserved).

use er_core::codec::{escape, unescape};
use std::io::{Read, Write};

/// Protocol revision; bumped whenever the frame schema changes. A handshake
/// between binaries speaking different revisions is rejected.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame payload. A length prefix above this is a
/// typed [`FrameError::Oversized`], not an allocation attempt: a corrupt or
/// adversarial prefix must not be able to reserve gigabytes.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Fingerprint of the protocol schema + crate version. Exchanged in the
/// handshake so a coordinator never drives a worker built from different
/// sources: frames would still parse, but task payload semantics could
/// silently diverge — exactly the failure the fingerprint rejects.
pub fn protocol_fingerprint() -> u64 {
    // FNV-1a over the schema-identifying facts; stable across processes of
    // the same build, different across protocol or crate revisions.
    let schema = format!(
        "er-worker-proto v{PROTOCOL_VERSION} crate={} frames=hello,hello-ack,hello-rej,task,result,task-err,heartbeat,shutdown",
        env!("CARGO_PKG_VERSION")
    );
    er_core::intern::Fnv1a::hash(schema.as_bytes())
}

/// A typed framing error. Every variant carries `offset`: the byte position
/// in the stream where the offending frame begins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside a length prefix or payload.
    Truncated {
        /// Stream offset of the frame whose bytes ran out.
        offset: u64,
        /// Bytes the frame still owed when the stream ended.
        missing: u64,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Stream offset of the oversized frame.
        offset: u64,
        /// The declared (rejected) payload length.
        declared: u32,
    },
    /// The payload is not valid UTF-8 or does not parse as a known frame.
    Malformed {
        /// Stream offset of the malformed frame.
        offset: u64,
        /// What failed to parse.
        reason: String,
    },
    /// The underlying reader or writer failed.
    Io {
        /// Stream offset at the time of the I/O failure.
        offset: u64,
        /// Error description.
        reason: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { offset, missing } => {
                write!(f, "truncated frame at byte {offset} ({missing} byte(s) missing)")
            }
            FrameError::Oversized { offset, declared } => write!(
                f,
                "oversized frame at byte {offset}: declared {declared} bytes > max {MAX_FRAME_BYTES}"
            ),
            FrameError::Malformed { offset, reason } => {
                write!(f, "malformed frame at byte {offset}: {reason}")
            }
            FrameError::Io { offset, reason } => {
                write!(f, "frame i/o error at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Coordinator → worker: opens the session and proposes terms.
    Hello {
        /// Coordinator's [`PROTOCOL_VERSION`].
        version: u32,
        /// Coordinator's [`protocol_fingerprint`].
        fingerprint: u64,
        /// Identifier the coordinator assigned this worker.
        worker_id: u64,
        /// Per-worker memory allotment in bytes (0 = unlimited); the
        /// worker's share of the job's budget, negotiated here instead of a
        /// shared atomic account.
        budget_bytes: u64,
        /// Requested heartbeat cadence in milliseconds.
        heartbeat_ms: u64,
    },
    /// Worker → coordinator: terms accepted.
    HelloAck {
        /// Echo of the assigned worker id.
        worker_id: u64,
        /// Worker OS process id.
        pid: u32,
        /// Budget the worker accepted (echo of the allotment).
        budget_bytes: u64,
    },
    /// Worker → coordinator: terms rejected; the worker exits after sending.
    HelloRej {
        /// Why the handshake failed (version/fingerprint mismatch).
        reason: String,
    },
    /// Coordinator → worker: run one task attempt.
    Task {
        /// Registered job name (see `dist::TaskRegistry`).
        job: String,
        /// Stage within the job (`"map"` or `"reduce"`).
        stage: String,
        /// Task index within the stage.
        task: usize,
        /// Attempt number (0-based; retries and speculative backups bump it).
        attempt: u32,
        /// Opaque task payload (already line-escaped by the sender).
        payload: String,
    },
    /// Worker → coordinator: a task attempt succeeded.
    TaskResult {
        /// Echo of the task index.
        task: usize,
        /// Echo of the attempt number.
        attempt: u32,
        /// Opaque result payload.
        payload: String,
    },
    /// Worker → coordinator: a task attempt failed (typed, not a crash).
    TaskError {
        /// Echo of the task index.
        task: usize,
        /// Echo of the attempt number.
        attempt: u32,
        /// Failure description.
        message: String,
    },
    /// Worker → coordinator: liveness signal.
    Heartbeat {
        /// Heartbeat sequence number (monotonic per worker).
        seq: u64,
    },
    /// Coordinator → worker: finish up and exit cleanly.
    Shutdown,
}

impl Frame {
    /// Encodes the frame payload as one escaped, tab-separated line
    /// (without the length prefix).
    pub fn encode_payload(&self) -> String {
        match self {
            Frame::Hello {
                version,
                fingerprint,
                worker_id,
                budget_bytes,
                heartbeat_ms,
            } => format!(
                "hello\t{version}\t{fingerprint:016x}\t{worker_id}\t{budget_bytes}\t{heartbeat_ms}"
            ),
            Frame::HelloAck {
                worker_id,
                pid,
                budget_bytes,
            } => format!("hello-ack\t{worker_id}\t{pid}\t{budget_bytes}"),
            Frame::HelloRej { reason } => format!("hello-rej\t{}", escape(reason)),
            Frame::Task {
                job,
                stage,
                task,
                attempt,
                payload,
            } => format!(
                "task\t{}\t{}\t{task}\t{attempt}\t{}",
                escape(job),
                escape(stage),
                escape(payload)
            ),
            Frame::TaskResult {
                task,
                attempt,
                payload,
            } => format!("result\t{task}\t{attempt}\t{}", escape(payload)),
            Frame::TaskError {
                task,
                attempt,
                message,
            } => format!("task-err\t{task}\t{attempt}\t{}", escape(message)),
            Frame::Heartbeat { seq } => format!("heartbeat\t{seq}"),
            Frame::Shutdown => "shutdown".to_string(),
        }
    }

    /// Parses a frame payload line produced by
    /// [`encode_payload`](Frame::encode_payload). `offset` is only used to
    /// tag errors.
    pub fn decode_payload(line: &str, offset: u64) -> Result<Frame, FrameError> {
        let malformed = |reason: String| FrameError::Malformed { offset, reason };
        let mut fields = line.split('\t');
        let kind = fields.next().unwrap_or("");
        let mut rest: Vec<&str> = fields.collect();
        let mut take_exact = |n: usize| -> Result<Vec<&str>, FrameError> {
            if rest.len() != n {
                return Err(malformed(format!(
                    "frame {kind:?} expects {n} field(s), got {}",
                    rest.len()
                )));
            }
            Ok(std::mem::take(&mut rest))
        };
        let parse_u64 = |s: &str, what: &str| -> Result<u64, FrameError> {
            s.parse::<u64>()
                .map_err(|_| malformed(format!("bad {what}: {s:?}")))
        };
        match kind {
            "hello" => {
                let f = take_exact(5)?;
                Ok(Frame::Hello {
                    version: parse_u64(f[0], "version")? as u32,
                    fingerprint: u64::from_str_radix(f[1], 16)
                        .map_err(|_| malformed(format!("bad fingerprint: {:?}", f[1])))?,
                    worker_id: parse_u64(f[2], "worker_id")?,
                    budget_bytes: parse_u64(f[3], "budget_bytes")?,
                    heartbeat_ms: parse_u64(f[4], "heartbeat_ms")?,
                })
            }
            "hello-ack" => {
                let f = take_exact(3)?;
                Ok(Frame::HelloAck {
                    worker_id: parse_u64(f[0], "worker_id")?,
                    pid: parse_u64(f[1], "pid")? as u32,
                    budget_bytes: parse_u64(f[2], "budget_bytes")?,
                })
            }
            "hello-rej" => {
                let f = take_exact(1)?;
                Ok(Frame::HelloRej {
                    reason: unescape(f[0]).map_err(&malformed)?.into_owned(),
                })
            }
            "task" => {
                let f = take_exact(5)?;
                Ok(Frame::Task {
                    job: unescape(f[0]).map_err(&malformed)?.into_owned(),
                    stage: unescape(f[1]).map_err(&malformed)?.into_owned(),
                    task: parse_u64(f[2], "task")? as usize,
                    attempt: parse_u64(f[3], "attempt")? as u32,
                    payload: unescape(f[4]).map_err(&malformed)?.into_owned(),
                })
            }
            "result" => {
                let f = take_exact(3)?;
                Ok(Frame::TaskResult {
                    task: parse_u64(f[0], "task")? as usize,
                    attempt: parse_u64(f[1], "attempt")? as u32,
                    payload: unescape(f[2]).map_err(&malformed)?.into_owned(),
                })
            }
            "task-err" => {
                let f = take_exact(3)?;
                Ok(Frame::TaskError {
                    task: parse_u64(f[0], "task")? as usize,
                    attempt: parse_u64(f[1], "attempt")? as u32,
                    message: unescape(f[2]).map_err(&malformed)?.into_owned(),
                })
            }
            "heartbeat" => {
                let f = take_exact(1)?;
                Ok(Frame::Heartbeat {
                    seq: parse_u64(f[0], "seq")?,
                })
            }
            "shutdown" => {
                take_exact(0)?;
                Ok(Frame::Shutdown)
            }
            other => Err(malformed(format!("unknown frame kind {other:?}"))),
        }
    }
}

/// Writes frames with a `u32` big-endian length prefix, tracking the stream
/// offset for error reporting.
pub struct FrameWriter<W: Write> {
    inner: W,
    offset: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a writer at stream offset 0.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter { inner, offset: 0 }
    }

    /// Encodes, length-prefixes, writes, and flushes one frame.
    pub fn write(&mut self, frame: &Frame) -> Result<(), FrameError> {
        let payload = frame.encode_payload();
        let bytes = payload.as_bytes();
        if bytes.len() as u64 > u64::from(MAX_FRAME_BYTES) {
            return Err(FrameError::Oversized {
                offset: self.offset,
                declared: u32::try_from(bytes.len()).unwrap_or(u32::MAX),
            });
        }
        let io = |offset: u64| {
            move |e: std::io::Error| FrameError::Io {
                offset,
                reason: e.to_string(),
            }
        };
        self.inner
            .write_all(&(bytes.len() as u32).to_be_bytes())
            .map_err(io(self.offset))?;
        self.inner.write_all(bytes).map_err(io(self.offset))?;
        self.inner.flush().map_err(io(self.offset))?;
        self.offset += 4 + bytes.len() as u64;
        Ok(())
    }
}

/// Reads length-prefixed frames, tracking the stream offset so every error
/// names the byte where the offending frame begins.
pub struct FrameReader<R: Read> {
    inner: R,
    offset: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a reader at stream offset 0.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner, offset: 0 }
    }

    /// Current stream offset (bytes consumed so far).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads the next frame. `Ok(None)` on clean EOF (stream ends exactly on
    /// a frame boundary); EOF anywhere inside a frame is
    /// [`FrameError::Truncated`].
    pub fn read(&mut self) -> Result<Option<Frame>, FrameError> {
        let frame_start = self.offset;
        let mut prefix = [0u8; 4];
        match read_exact_or_eof(&mut self.inner, &mut prefix) {
            Ok(0) => return Ok(None),
            Ok(4) => {}
            Ok(got) => {
                return Err(FrameError::Truncated {
                    offset: frame_start,
                    missing: 4 - got as u64,
                })
            }
            Err(e) => {
                return Err(FrameError::Io {
                    offset: frame_start,
                    reason: e.to_string(),
                })
            }
        }
        self.offset += 4;
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized {
                offset: frame_start,
                declared: len,
            });
        }
        // The cap above bounds this allocation; an adversarial prefix can
        // never reserve more than MAX_FRAME_BYTES.
        let mut payload = vec![0u8; len as usize];
        match read_exact_or_eof(&mut self.inner, &mut payload) {
            Ok(got) if got == len as usize => {}
            Ok(got) => {
                return Err(FrameError::Truncated {
                    offset: frame_start,
                    missing: u64::from(len) - got as u64,
                })
            }
            Err(e) => {
                return Err(FrameError::Io {
                    offset: frame_start,
                    reason: e.to_string(),
                })
            }
        }
        self.offset += u64::from(len);
        let line = std::str::from_utf8(&payload).map_err(|e| FrameError::Malformed {
            offset: frame_start,
            reason: format!("payload is not UTF-8: {e}"),
        })?;
        Frame::decode_payload(line, frame_start).map(Some)
    }
}

/// Like `read_exact`, but reports how many bytes arrived before EOF instead
/// of failing with an untyped error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                fingerprint: protocol_fingerprint(),
                worker_id: 3,
                budget_bytes: 1 << 20,
                heartbeat_ms: 50,
            },
            Frame::HelloAck {
                worker_id: 3,
                pid: 4242,
                budget_bytes: 1 << 20,
            },
            Frame::HelloRej {
                reason: "version\tmismatch\n".to_string(),
            },
            Frame::Task {
                job: "wordcount".to_string(),
                stage: "map".to_string(),
                task: 7,
                attempt: 2,
                payload: "line one\nline\ttwo\\three".to_string(),
            },
            Frame::TaskResult {
                task: 7,
                attempt: 2,
                payload: "k\tv\r\n".to_string(),
            },
            Frame::TaskError {
                task: 1,
                attempt: 0,
                message: "injected\nfault".to_string(),
            },
            Frame::Heartbeat { seq: 99 },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            for f in &frames {
                w.write(f).unwrap();
            }
        }
        let mut r = FrameReader::new(&buf[..]);
        for f in &frames {
            assert_eq!(r.read().unwrap().as_ref(), Some(f));
        }
        assert_eq!(r.read().unwrap(), None);
        assert_eq!(r.offset(), buf.len() as u64);
    }

    #[test]
    fn truncation_is_typed_with_offset() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .write(&Frame::Heartbeat { seq: 1 })
            .unwrap();
        let full = buf.clone();
        // Cut at every byte: either a clean EOF (cut at 0) or Truncated at
        // offset 0 naming the missing byte count.
        for cut in 0..full.len() {
            let mut r = FrameReader::new(&full[..cut]);
            match r.read() {
                Ok(None) => assert_eq!(cut, 0),
                Err(FrameError::Truncated { offset, missing }) => {
                    assert_eq!(offset, 0);
                    // Inside the prefix only the prefix remainder is known
                    // to be missing; past it, the rest of the payload is.
                    let expected = if cut < 4 { 4 - cut } else { full.len() - cut };
                    assert_eq!(missing, expected as u64, "cut at {cut}");
                }
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
        // Truncation of the *second* frame reports the second frame's offset.
        let mut two = full.clone();
        FrameWriter::new(&mut two)
            .write(&Frame::Heartbeat { seq: 2 })
            .unwrap();
        let mut r = FrameReader::new(&two[..full.len() + 2]);
        assert!(r.read().unwrap().is_some());
        match r.read() {
            Err(FrameError::Truncated { offset, .. }) => assert_eq!(offset, full.len() as u64),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        match FrameReader::new(&buf[..]).read() {
            Err(FrameError::Oversized { offset, declared }) => {
                assert_eq!(offset, 0);
                assert_eq!(declared, MAX_FRAME_BYTES + 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // u32::MAX — ~4 GiB declared — must also be a typed error, instantly.
        let buf = u32::MAX.to_be_bytes().to_vec();
        assert!(matches!(
            FrameReader::new(&buf[..]).read(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn malformed_payloads_are_typed() {
        // Unknown kind.
        let mut buf = Vec::new();
        let payload = b"nonsense\t1";
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(payload);
        assert!(matches!(
            FrameReader::new(&buf[..]).read(),
            Err(FrameError::Malformed { offset: 0, .. })
        ));
        // Invalid UTF-8.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            FrameReader::new(&buf[..]).read(),
            Err(FrameError::Malformed { offset: 0, .. })
        ));
        // Wrong field count.
        assert!(Frame::decode_payload("heartbeat\t1\t2", 0).is_err());
        // Dangling escape in a payload field.
        assert!(Frame::decode_payload("result\t0\t0\tbad\\q", 0).is_err());
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(protocol_fingerprint(), protocol_fingerprint());
        assert_ne!(protocol_fingerprint(), 0);
    }
}
