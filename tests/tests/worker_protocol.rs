//! Worker-protocol conformance: frame codec round-trips, hostile byte
//! streams, handshake rejection against a real child process, and
//! double-spawn isolation.
//!
//! The framing contract under test (see `docs/distributed.md`):
//!
//! 1. **Round-trip identity** — any frame, including payloads full of tabs,
//!    newlines and backslashes, survives `FrameWriter` → `FrameReader`
//!    bit-exactly, alone and in streams.
//! 2. **Hostile bytes are typed errors** — truncation mid-prefix or
//!    mid-payload is `FrameError::Truncated` with the byte offset of the
//!    damaged frame; a length prefix past `MAX_FRAME_BYTES` is
//!    `FrameError::Oversized` *before* any allocation; garbage payloads, and
//!    payloads cut short or extended past their last field, are
//!    `FrameError::Malformed`. Never a panic.
//! 3. **Mismatched binaries cannot join a pool** — a worker process served a
//!    wrong protocol version or fingerprint answers `HelloRej` and the run
//!    fails with a typed handshake error instead of restarting forever.
//! 4. **Pools do not cross-talk** — two coordinators running concurrently
//!    over the same spill root produce their own correct, independent
//!    results.
//! 5. **A pool exits when told** — dropping a transport ends every worker on
//!    `Shutdown` and reaps it on EOF, without waiting out a heartbeat.

use er_core::fault::ExecPolicy;
use er_core::obs::Obs;
use er_core::profiles::KeyRows;
use er_integration_tests::{key_rows_of_lines, serial_transpose};
use er_mapreduce::proto::{
    protocol_fingerprint, Frame, FrameError, FrameReader, FrameWriter, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use er_mapreduce::{run_key_transpose, DistOptions, SubprocessConfig, SubprocessTransport};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The dedicated worker executable built from this package (test harnesses
/// cannot re-exec themselves, so `program` must point at a real worker).
fn worker_program() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_er-test-worker"))
}

fn encode_frames(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    {
        let mut w = FrameWriter::new(&mut bytes);
        for f in frames {
            w.write(f).unwrap();
        }
    }
    bytes
}

fn decode_all(bytes: &[u8]) -> Result<Vec<Frame>, FrameError> {
    let mut r = FrameReader::new(bytes);
    let mut frames = Vec::new();
    while let Some(f) = r.read()? {
        frames.push(f);
    }
    Ok(frames)
}

/// A hostile string: raw bytes through lossy UTF-8, so it exercises tabs,
/// newlines, backslashes and replacement chars. Task payloads take the raw
/// bytes themselves.
fn payload_from(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// One frame of every variant, with payload-bearing fields drawn from the
/// hostile alphabet.
fn frame_menu(raw: &[u8], a: u64, b: u64) -> Vec<Frame> {
    let s = payload_from(raw);
    vec![
        Frame::Hello {
            version: a as u32,
            fingerprint: b,
            worker_id: a ^ b,
            heartbeat_ms: (a % 10_000).max(1),
        },
        Frame::HelloAck {
            worker_id: a,
            pid: b as u32,
        },
        Frame::HelloRej { reason: s.clone() },
        Frame::Task {
            job: format!("job-{}", a % 7),
            stage: if a & 1 == 0 { "map" } else { "reduce" }.to_string(),
            task: (b % 1024) as usize,
            attempt: (a % 5) as u32,
            payload: raw.to_vec(),
        },
        Frame::TaskResult {
            task: (a % 1024) as usize,
            attempt: (b % 5) as u32,
            payload: raw.to_vec(),
        },
        Frame::TaskError {
            task: (b % 1024) as usize,
            attempt: (a % 5) as u32,
            message: s,
        },
        Frame::Heartbeat { seq: a },
        Frame::Shutdown,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (1) Every frame variant round-trips bit-exactly through the writer
    /// and reader, alone and as a stream, for payloads drawn from the full
    /// escape alphabet (tabs, newlines, backslashes, invalid UTF-8 runs).
    #[test]
    fn frames_round_trip_bit_exactly(
        raw in proptest::collection::vec(any::<u8>(), 0..200),
        a in 0u64..=u64::MAX,
        b in 0u64..=u64::MAX,
    ) {
        let frames = frame_menu(&raw, a, b);
        for f in &frames {
            prop_assert_eq!(&decode_all(&encode_frames(std::slice::from_ref(f))).unwrap()[0], f);
        }
        // The whole menu as one stream: order and content preserved.
        prop_assert_eq!(decode_all(&encode_frames(&frames)).unwrap(), frames);
    }

    /// (2a) Truncating a valid stream at any byte boundary yields
    /// `Truncated` carrying the offset of the frame whose bytes ran out —
    /// unless the cut lands exactly between frames, which is clean EOF.
    #[test]
    fn truncation_is_a_typed_error_with_the_frame_offset(
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        a in 0u64..=u64::MAX,
        cut_seed in 0u64..=u64::MAX,
    ) {
        let frames = frame_menu(&raw, a, !a);
        let full = encode_frames(&frames);
        // Frame boundaries: offsets where a cut is clean EOF, not damage.
        let mut boundaries = vec![0u64];
        let mut acc = 0u64;
        for f in &frames {
            acc += 4 + f.encode_payload().len() as u64;
            boundaries.push(acc);
        }
        let cut = (cut_seed % full.len() as u64) as usize;
        match decode_all(&full[..cut]) {
            Ok(decoded) => {
                prop_assert!(
                    boundaries.contains(&(cut as u64)),
                    "cut {cut} decoded cleanly but is not a frame boundary"
                );
                let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
                prop_assert_eq!(decoded.len(), whole);
            }
            Err(FrameError::Truncated { offset, missing }) => {
                // The damaged frame starts at the last boundary before the cut.
                let start = *boundaries.iter().filter(|&&b| b <= cut as u64).max().unwrap();
                prop_assert_eq!(offset, start);
                prop_assert!(missing > 0);
            }
            Err(other) => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }

    /// (2b) Flipping one byte anywhere in a valid stream parses or fails
    /// with a typed `FrameError` — never a panic, and payload damage inside
    /// the frame body surfaces as `Malformed` with that frame's offset.
    #[test]
    fn single_byte_corruption_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        a in 0u64..=u64::MAX,
        pos_seed in 0u64..=u64::MAX,
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_frames(&frame_menu(&raw, a, a.rotate_left(13)));
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;
        match decode_all(&bytes) {
            Ok(_) => {} // flip landed in a payload and stayed parseable
            Err(FrameError::Truncated { .. })
            | Err(FrameError::Oversized { .. })
            | Err(FrameError::Malformed { .. }) => {}
            Err(FrameError::Io { .. }) => prop_assert!(false, "in-memory reads cannot be I/O errors"),
        }
    }
}

/// (2d) Every frame kind, with a length prefix that matches its payload:
/// cutting the payload at any byte, or appending one byte after its last
/// field, is `Malformed` at that frame's offset — the payload's fields are
/// read at their declared widths and must end exactly where it ends. Never
/// a panic, never a frame decoded from a damaged payload.
#[test]
fn every_cut_or_extended_payload_is_malformed_at_its_frame() {
    // Values past `u32` in the 64-bit fields.
    let frames = frame_menu(b"p\tq\n\xff", 0x1_0000_0001, 0xffff_ffff_0000_0002);
    let lead = encode_frames(&[Frame::Heartbeat { seq: 5 }]);
    for frame in &frames {
        let payload = frame.encode_payload();
        let damaged = (0..payload.len())
            .map(|cut| payload[..cut].to_vec())
            .chain([[&payload[..], &[0x2a]].concat()]);
        for bad in damaged {
            let mut stream = lead.clone();
            stream.extend_from_slice(&(bad.len() as u32).to_be_bytes());
            stream.extend_from_slice(&bad);
            let mut r = FrameReader::new(&stream[..]);
            assert_eq!(r.read().unwrap(), Some(Frame::Heartbeat { seq: 5 }));
            match r.read() {
                Err(FrameError::Malformed { offset, .. }) => {
                    assert_eq!(offset, lead.len() as u64, "{frame:?} as {bad:?}")
                }
                other => panic!("{frame:?} as {bad:?}: expected Malformed, got {other:?}"),
            }
        }
    }
}

/// (2c) An oversized length prefix is rejected before allocation, with the
/// declared size and the offset of the offending frame — including when it
/// follows valid frames.
#[test]
fn oversized_prefix_is_rejected_with_offset() {
    let declared = MAX_FRAME_BYTES + 1;
    let mut bytes = declared.to_be_bytes().to_vec();
    bytes.extend_from_slice(b"whatever");
    match decode_all(&bytes) {
        Err(FrameError::Oversized {
            offset: 0,
            declared: d,
        }) => assert_eq!(d, declared),
        other => panic!("expected Oversized at 0, got {other:?}"),
    }

    let mut stream = encode_frames(&[Frame::Heartbeat { seq: 9 }]);
    let first_len = stream.len() as u64;
    stream.extend_from_slice(&u32::MAX.to_be_bytes());
    match decode_all(&stream) {
        Err(FrameError::Oversized {
            offset,
            declared: d,
        }) => {
            assert_eq!(offset, first_len);
            assert_eq!(d, u32::MAX);
        }
        other => panic!("expected Oversized after first frame, got {other:?}"),
    }
}

/// `n` key rows over five tokens and one key every row shares.
fn tb_rows(n: u32) -> KeyRows {
    let lines: Vec<String> = (0..n)
        .map(|i| format!("{i}\ttok{}\ttok{}\tshared", i % 5, (i + 1) % 5))
        .collect();
    key_rows_of_lines(&lines)
}

fn subprocess_cfg(workers: usize) -> SubprocessConfig {
    let mut cfg = SubprocessConfig::new(workers);
    cfg.program = Some(worker_program());
    cfg
}

/// (3) A coordinator whose `Hello` carries the wrong protocol version gets
/// `HelloRej` from the real worker process, the run fails with a typed
/// handshake error, and the rejected worker is reaped — no zombie, no
/// restart loop.
#[test]
fn version_mismatch_handshake_is_a_typed_error() {
    let mut cfg = subprocess_cfg(2);
    cfg.handshake_overrides = Some((PROTOCOL_VERSION + 1, protocol_fingerprint()));
    let mut t = SubprocessTransport::new(cfg);
    let monitor = t.monitor();
    let err = run_key_transpose(&mut t, &tb_rows(10), &DistOptions::for_workers(2))
        .expect_err("mismatched version must not run tasks");
    assert_eq!(err.stage, "handshake", "{err}");
    assert!(err.message.contains("version"), "{err}");
    drop(t);
    assert!(
        monitor.live_pids().is_empty(),
        "rejected workers must be reaped"
    );
}

/// (3) Same for a fingerprint mismatch (same version, different binary).
#[test]
fn fingerprint_mismatch_handshake_is_a_typed_error() {
    let mut cfg = subprocess_cfg(2);
    cfg.handshake_overrides = Some((PROTOCOL_VERSION, protocol_fingerprint() ^ 0xbad_c0de));
    let mut t = SubprocessTransport::new(cfg);
    let err = run_key_transpose(&mut t, &tb_rows(10), &DistOptions::for_workers(2))
        .expect_err("mismatched fingerprint must not run tasks");
    assert_eq!(err.stage, "handshake", "{err}");
    assert!(err.message.contains("fingerprint"), "{err}");
}

/// (3) A handshake rejection latches: the next stage on the same transport
/// fails fast with the same typed error instead of respawning into the same
/// mismatch.
#[test]
fn handshake_rejection_latches_across_stages() {
    let mut cfg = subprocess_cfg(1);
    cfg.handshake_overrides = Some((PROTOCOL_VERSION + 7, protocol_fingerprint()));
    let mut t = SubprocessTransport::new(cfg);
    let opts = DistOptions::for_workers(1);
    let first = run_key_transpose(&mut t, &tb_rows(4), &opts).unwrap_err();
    let second = run_key_transpose(&mut t, &tb_rows(4), &opts).unwrap_err();
    assert!(second.message.contains("rejected handshake"), "{second}");
    assert_eq!(first.message, second.message, "the latched error is stable");
}

/// (4) Two coordinators running concurrently — same worker binary, same
/// spill root — never cross-talk: each gets exactly the serial transpose of
/// its own rows.
#[test]
fn double_spawn_pools_do_not_cross_talk() {
    let handles: Vec<_> = [(2usize, 40u32), (3, 55)]
        .into_iter()
        .map(|(workers, n)| {
            std::thread::spawn(move || {
                let rows = tb_rows(n);
                let opts = DistOptions::for_workers(workers);
                let mut t = SubprocessTransport::new(subprocess_cfg(workers));
                let got = run_key_transpose(&mut t, &rows, &opts).unwrap();
                assert_eq!(
                    got.blocks,
                    serial_transpose(&rows),
                    "workers={workers} n={n}"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no pool may panic");
    }
}

/// (5) Dropping a pool after a stage returns as soon as its workers exit:
/// `Shutdown` ends each worker at once instead of after its next heartbeat
/// (5 s here), and the coordinator reaps on EOF instead of polling. Every
/// worker counts as a clean exit — none is killed at the grace deadline.
#[test]
fn dropping_a_pool_reaps_its_workers_without_waiting_out_a_heartbeat() {
    let obs = Obs::enabled();
    let mut cfg = subprocess_cfg(2);
    cfg.heartbeat = Duration::from_secs(5);
    cfg.policy = ExecPolicy::default().with_obs(obs.clone());
    let mut t = SubprocessTransport::new(cfg);
    run_key_transpose(&mut t, &tb_rows(10), &DistOptions::for_workers(2)).unwrap();
    let started = Instant::now();
    drop(t);
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "dropping the pool took {took:?}"
    );
    let snapshot = obs.snapshot();
    assert_eq!(snapshot.counter("worker.exited"), Some(2));
    assert_eq!(snapshot.counter("worker.crashed").unwrap_or(0), 0);
}
