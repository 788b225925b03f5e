//! Length-prefixed framed worker protocol.
//!
//! The multi-process backend (Dedoop \[18\] direction, §II) speaks this
//! protocol between the coordinator and each worker child process over the
//! worker's stdin/stdout. A frame payload is a one-byte kind tag, then the
//! frame's [`er_core::wire`] fields: integers at their declared width,
//! strings and task payload bytes behind a `u32` length (no escaping, no
//! nesting). On the wire every payload is preceded by a `u32` big-endian
//! byte length, so the stream is self-delimiting and a killed writer leaves
//! a cleanly detectable truncation instead of a garbled tail.
//!
//! Decoding is total: EOF mid-frame, an oversized length prefix, a payload
//! cut short or carrying a byte past its last field, a non-UTF-8 string and
//! an unknown tag are all typed [`FrameError`]s carrying the byte offset of
//! the offending frame — never a panic, and never an allocation sized by
//! untrusted input (the length is validated against [`MAX_FRAME_BYTES`]
//! *before* any buffer is reserved).

use er_core::wire::{put_bytes, put_str, put_u32, put_u64, Decoder, WireError};
use std::io::{Read, Write};

/// Protocol revision; bumped whenever the frame schema changes. A handshake
/// between binaries speaking different revisions is rejected.
pub const PROTOCOL_VERSION: u32 = 3;

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
    /// The payload does not decode as a known frame: an unknown tag, a
    /// field cut short, a string that is not UTF-8, or bytes past the last
    /// field.
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
        /// Requested heartbeat cadence in milliseconds.
        heartbeat_ms: u64,
    },
    /// Worker → coordinator: terms accepted.
    HelloAck {
        /// Echo of the assigned worker id.
        worker_id: u64,
        /// Worker OS process id.
        pid: u32,
    },
    /// Worker → coordinator: terms rejected; the worker exits after sending.
    HelloRej {
        /// Why the handshake failed (version/fingerprint mismatch).
        reason: String,
    },
    /// Coordinator → worker: run one task attempt.
    Task {
        /// Job name (`dist::KEY_TRANSPOSE`, the one job a worker runs).
        job: String,
        /// Stage within the job (`"map"` or `"reduce"`).
        stage: String,
        /// Task index within the stage.
        task: usize,
        /// Attempt number (0-based; retries and speculative backups bump it).
        attempt: u32,
        /// Opaque task payload (`dist`'s wire-encoded map or reduce task).
        payload: Vec<u8>,
    },
    /// Worker → coordinator: a task attempt succeeded.
    TaskResult {
        /// Echo of the task index.
        task: usize,
        /// Echo of the attempt number.
        attempt: u32,
        /// Opaque result payload.
        payload: Vec<u8>,
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

// Frame kind tags: the first byte of every payload.
const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_HELLO_REJ: u8 = 3;
const TAG_TASK: u8 = 4;
const TAG_RESULT: u8 = 5;
const TAG_TASK_ERR: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;

impl Frame {
    /// The encoded length of a [`Frame::Task`] of `job` and `stage` carrying
    /// `payload` bytes — what [`encode_payload`](Self::encode_payload)
    /// returns — computed without encoding it: the tag, the job and stage
    /// strings, the task and attempt fields, and the payload behind its
    /// length.
    pub fn task_len(job: &str, stage: &str, payload: usize) -> u64 {
        (1 + 4 + job.len() + 4 + stage.len() + 8 + 4 + 4) as u64 + payload as u64
    }

    /// Encodes the frame payload (without the length prefix): the kind tag,
    /// then the frame's [`wire`](er_core::wire) fields in declaration order.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello {
                version,
                fingerprint,
                worker_id,
                heartbeat_ms,
            } => {
                out.push(TAG_HELLO);
                put_u32(&mut out, *version);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *worker_id);
                put_u64(&mut out, *heartbeat_ms);
            }
            Frame::HelloAck { worker_id, pid } => {
                out.push(TAG_HELLO_ACK);
                put_u64(&mut out, *worker_id);
                put_u32(&mut out, *pid);
            }
            Frame::HelloRej { reason } => {
                out.push(TAG_HELLO_REJ);
                put_str(&mut out, reason);
            }
            Frame::Task {
                job,
                stage,
                task,
                attempt,
                payload,
            } => {
                out.push(TAG_TASK);
                put_str(&mut out, job);
                put_str(&mut out, stage);
                put_u64(&mut out, *task as u64);
                put_u32(&mut out, *attempt);
                put_bytes(&mut out, payload);
            }
            Frame::TaskResult {
                task,
                attempt,
                payload,
            } => {
                out.push(TAG_RESULT);
                put_u64(&mut out, *task as u64);
                put_u32(&mut out, *attempt);
                put_bytes(&mut out, payload);
            }
            Frame::TaskError {
                task,
                attempt,
                message,
            } => {
                out.push(TAG_TASK_ERR);
                put_u64(&mut out, *task as u64);
                put_u32(&mut out, *attempt);
                put_str(&mut out, message);
            }
            Frame::Heartbeat { seq } => {
                out.push(TAG_HEARTBEAT);
                put_u64(&mut out, *seq);
            }
            Frame::Shutdown => out.push(TAG_SHUTDOWN),
        }
        out
    }

    /// Decodes a payload produced by [`encode_payload`](Frame::encode_payload).
    /// Every field is read at its declared width and the payload must end
    /// with the frame's last field; any defect is
    /// [`FrameError::Malformed`] at `offset`, the start of the frame.
    pub fn decode_payload(payload: &[u8], offset: u64) -> Result<Frame, FrameError> {
        let mut d = Decoder::new(payload);
        let mut decode = || -> Result<Frame, WireError> {
            let frame = match d.u8()? {
                TAG_HELLO => Frame::Hello {
                    version: d.u32()?,
                    fingerprint: d.u64()?,
                    worker_id: d.u64()?,
                    heartbeat_ms: d.u64()?,
                },
                TAG_HELLO_ACK => Frame::HelloAck {
                    worker_id: d.u64()?,
                    pid: d.u32()?,
                },
                TAG_HELLO_REJ => Frame::HelloRej {
                    reason: d.str()?.to_string(),
                },
                TAG_TASK => Frame::Task {
                    job: d.str()?.to_string(),
                    stage: d.str()?.to_string(),
                    task: d.usize()?,
                    attempt: d.u32()?,
                    payload: d.bytes()?.to_vec(),
                },
                TAG_RESULT => Frame::TaskResult {
                    task: d.usize()?,
                    attempt: d.u32()?,
                    payload: d.bytes()?.to_vec(),
                },
                TAG_TASK_ERR => Frame::TaskError {
                    task: d.usize()?,
                    attempt: d.u32()?,
                    message: d.str()?.to_string(),
                },
                TAG_HEARTBEAT => Frame::Heartbeat { seq: d.u64()? },
                TAG_SHUTDOWN => Frame::Shutdown,
                other => return Err(WireError::invalid(0, format!("unknown frame kind {other}"))),
            };
            d.finish().map(|()| frame)
        };
        decode().map_err(|e| FrameError::Malformed {
            offset,
            reason: format!("payload {e}"),
        })
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
        let offset = self.offset;
        let declared = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        if declared > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized { offset, declared });
        }
        let io = |e: std::io::Error| FrameError::Io {
            offset,
            reason: e.to_string(),
        };
        self.inner.write_all(&declared.to_be_bytes()).map_err(io)?;
        self.inner.write_all(&payload).map_err(io)?;
        self.inner.flush().map_err(io)?;
        self.offset += 4 + u64::from(declared);
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
        let start = self.offset;
        let mut prefix = [0u8; 4];
        if !self.fill(&mut prefix, start, true)? {
            return Ok(None);
        }
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized {
                offset: start,
                declared: len,
            });
        }
        // The cap above bounds this allocation; an adversarial prefix can
        // never reserve more than MAX_FRAME_BYTES.
        let mut payload = vec![0u8; len as usize];
        self.fill(&mut payload, start, false)?;
        Frame::decode_payload(&payload, start).map(Some)
    }

    /// Fills `buf` from the stream for the frame at `start`. EOF before the
    /// first byte is `Ok(false)` when `eof_ok` (a frame boundary); any other
    /// short read is [`FrameError::Truncated`] naming the bytes missing.
    fn fill(&mut self, buf: &mut [u8], start: u64, eof_ok: bool) -> Result<bool, FrameError> {
        let mut got = 0;
        while got < buf.len() {
            match self.inner.read(&mut buf[got..]) {
                Ok(0) if got == 0 && eof_ok => return Ok(false),
                Ok(0) => {
                    let missing = (buf.len() - got) as u64;
                    return Err(FrameError::Truncated {
                        offset: start,
                        missing,
                    });
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let reason = e.to_string();
                    return Err(FrameError::Io {
                        offset: start,
                        reason,
                    });
                }
            }
        }
        self.offset += got as u64;
        Ok(true)
    }
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
                heartbeat_ms: 50,
            },
            Frame::HelloAck {
                worker_id: 3,
                pid: 4242,
            },
            Frame::HelloRej {
                reason: "version\tmismatch\n".to_string(),
            },
            Frame::Task {
                job: crate::dist::KEY_TRANSPOSE.to_string(),
                stage: "map".to_string(),
                task: 7,
                attempt: 2,
                payload: b"line one\nline\ttwo\\three\xff".to_vec(),
            },
            Frame::TaskResult {
                task: 7,
                attempt: 2,
                payload: b"k\tv\r\n".to_vec(),
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
        // The coordinator sizes task frames without encoding them.
        for f in &frames {
            if let Frame::Task {
                job,
                stage,
                payload,
                ..
            } = f
            {
                let len = f.encode_payload().len() as u64;
                assert_eq!(Frame::task_len(job, stage, payload.len()), len);
            }
        }
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
        // A field past the frame's last, a field cut short, a string that is
        // not UTF-8: each is typed at the frame's offset.
        let mut heartbeat = Frame::Heartbeat { seq: 1 }.encode_payload();
        heartbeat.push(2);
        assert!(matches!(
            Frame::decode_payload(&heartbeat, 9),
            Err(FrameError::Malformed { offset: 9, .. })
        ));
        assert!(matches!(
            Frame::decode_payload(&heartbeat[..5], 9),
            Err(FrameError::Malformed { offset: 9, .. })
        ));
        let mut err = vec![TAG_TASK_ERR];
        err.extend_from_slice(&[0; 12]);
        er_core::wire::put_bytes(&mut err, &[0xff]);
        assert!(matches!(
            Frame::decode_payload(&err, 0),
            Err(FrameError::Malformed { offset: 0, .. })
        ));
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(protocol_fingerprint(), protocol_fingerprint());
        assert_ne!(protocol_fingerprint(), 0);
    }
}
