//! Worker process entry point.
//!
//! A worker is a child process the coordinator spawned with its stdin/stdout
//! wired to the framed protocol of [`proto`](crate::proto). Its life cycle:
//!
//! 1. read `Hello`, validate protocol version and fingerprint (rejecting
//!    mismatched binaries with `HelloRej` + nonzero exit),
//! 2. answer `HelloAck` with its pid and the accepted budget allotment,
//! 3. start a heartbeat thread,
//! 4. loop: run `Task` frames through [`run_task`]
//!    (panics caught and converted to `TaskError`), answer `TaskResult` /
//!    `TaskError`,
//! 5. exit 0 on `Shutdown` or clean EOF; any protocol violation exits
//!    nonzero, which the coordinator observes as a crash.

use crate::dist::{run_task, TaskRegistry};
use crate::proto::{protocol_fingerprint, Frame, FrameReader, FrameWriter, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Runs the worker protocol over arbitrary streams (tests drive this with
/// in-memory pipes). Returns the process exit code.
pub fn worker_loop<R, W>(registry: &TaskRegistry, input: R, output: W) -> i32
where
    R: Read,
    W: Write + Send + 'static,
{
    let mut reader = FrameReader::new(input);
    let writer = Arc::new(Mutex::new(FrameWriter::new(output)));
    let send = |frame: &Frame| -> bool {
        writer
            .lock()
            .map(|mut w| w.write(frame).is_ok())
            .unwrap_or(false)
    };

    // ---- handshake ---------------------------------------------------------
    let (budget_bytes, heartbeat_ms) = match reader.read() {
        Ok(Some(Frame::Hello {
            version,
            fingerprint,
            worker_id,
            budget_bytes,
            heartbeat_ms,
        })) => {
            if version != PROTOCOL_VERSION {
                send(&Frame::HelloRej {
                    reason: format!(
                        "protocol version mismatch: coordinator v{version}, worker v{PROTOCOL_VERSION}"
                    ),
                });
                return 3;
            }
            let own = protocol_fingerprint();
            if fingerprint != own {
                send(&Frame::HelloRej {
                    reason: format!(
                        "protocol fingerprint mismatch: coordinator {fingerprint:016x}, worker {own:016x} (mismatched binaries)"
                    ),
                });
                return 3;
            }
            if !send(&Frame::HelloAck {
                worker_id,
                pid: std::process::id(),
                budget_bytes,
            }) {
                return 2;
            }
            (budget_bytes, heartbeat_ms)
        }
        Ok(Some(other)) => {
            send(&Frame::HelloRej {
                reason: format!("expected hello, got {other:?}"),
            });
            return 3;
        }
        Ok(None) => return 0, // coordinator went away before saying hello
        Err(e) => {
            eprintln!("er-worker: handshake frame error: {e}");
            return 2;
        }
    };

    // ---- heartbeats --------------------------------------------------------
    // The thread waits on a channel instead of sleeping: dropping `stop` when
    // the task loop ends wakes it at once, whatever the interval.
    let (stop, stopped) = mpsc::channel::<()>();
    let hb_writer = Arc::clone(&writer);
    let hb = std::thread::spawn(move || {
        let mut seq: u64 = 0;
        let interval = Duration::from_millis(heartbeat_ms.max(1));
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
            seq += 1;
            let ok = hb_writer
                .lock()
                .map(|mut w| w.write(&Frame::Heartbeat { seq }).is_ok())
                .unwrap_or(false);
            if !ok {
                break; // coordinator went away; the main loop will see EOF
            }
        }
    });

    // ---- task loop ---------------------------------------------------------
    let code = loop {
        match reader.read() {
            Ok(Some(Frame::Task {
                job,
                stage,
                task,
                attempt,
                payload,
            })) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_task(registry, &job, &stage, &payload, budget_bytes)
                }))
                .unwrap_or_else(|p| Err(crate::engine::panic_message(p.as_ref())));
                let reply = match outcome {
                    Ok(payload) => Frame::TaskResult {
                        task,
                        attempt,
                        payload,
                    },
                    Err(message) => Frame::TaskError {
                        task,
                        attempt,
                        message,
                    },
                };
                if !send(&reply) {
                    break 2;
                }
            }
            Ok(Some(Frame::Shutdown)) | Ok(None) => break 0,
            Ok(Some(other)) => {
                eprintln!("er-worker: unexpected frame {other:?}");
                break 2;
            }
            Err(e) => {
                eprintln!("er-worker: frame error: {e}");
                break 2;
            }
        }
    };
    drop(stop);
    let _ = hb.join();
    code
}

/// Production worker entry: speaks the protocol over this process's
/// stdin/stdout and returns the exit code for the caller to pass to
/// [`std::process::exit`].
pub fn worker_main(registry: &TaskRegistry) -> i32 {
    worker_loop(registry, std::io::stdin().lock(), std::io::stdout())
}

/// Re-exec guard: if the process was invoked as a worker (first argument
/// `--worker`), run the worker protocol and exit — never returns in that
/// case. Call this first in `main` of any binary that can act as its own
/// worker pool (the CLI, benches).
pub fn maybe_worker_entry(registry: &TaskRegistry) {
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        std::process::exit(worker_main(registry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::default_registry;
    use crate::proto::{Frame, FrameReader, FrameWriter};

    /// Drives one worker session over in-memory buffers.
    fn session(frames: &[Frame]) -> (i32, Vec<Frame>) {
        let mut input = Vec::new();
        {
            let mut w = FrameWriter::new(&mut input);
            for f in frames {
                w.write(f).unwrap();
            }
        }
        let out = Arc::new(Mutex::new(Vec::new()));
        let sink = SharedSink(Arc::clone(&out));
        let code = worker_loop(&default_registry(), &input[..], sink);
        let bytes = out.lock().unwrap().clone();
        let mut r = FrameReader::new(&bytes[..]);
        let mut replies = Vec::new();
        while let Some(f) = r.read().unwrap() {
            replies.push(f);
        }
        (code, replies)
    }

    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn hello() -> Frame {
        Frame::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: protocol_fingerprint(),
            worker_id: 1,
            budget_bytes: 0,
            heartbeat_ms: 10_000, // quiet during unit tests
        }
    }

    #[test]
    fn handshake_then_shutdown_exits_cleanly() {
        let (code, replies) = session(&[hello(), Frame::Shutdown]);
        assert_eq!(code, 0);
        assert!(matches!(replies[0], Frame::HelloAck { worker_id: 1, .. }));
    }

    #[test]
    fn shutdown_ends_the_worker_without_waiting_out_its_heartbeat() {
        let (input, mut feed) = std::io::pipe().unwrap();
        let mut w = FrameWriter::new(&mut feed);
        w.write(&hello()).unwrap(); // a 10 s heartbeat interval
        w.write(&Frame::Shutdown).unwrap();
        // `feed` stays open: the worker must exit on `Shutdown`, not on EOF.
        let started = std::time::Instant::now();
        let sink = SharedSink(Arc::new(Mutex::new(Vec::new())));
        assert_eq!(worker_loop(&default_registry(), input, sink), 0);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "worker took {took:?} to exit"
        );
        drop(feed);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut h = hello();
        if let Frame::Hello { version, .. } = &mut h {
            *version += 1;
        }
        let (code, replies) = session(&[h]);
        assert_eq!(code, 3);
        match &replies[0] {
            Frame::HelloRej { reason } => assert!(reason.contains("version"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let mut h = hello();
        if let Frame::Hello { fingerprint, .. } = &mut h {
            *fingerprint ^= 0xdead_beef;
        }
        let (code, replies) = session(&[h]);
        assert_eq!(code, 3);
        match &replies[0] {
            Frame::HelloRej { reason } => {
                assert!(reason.contains("fingerprint"), "{reason}");
                assert!(reason.contains("mismatched binaries"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn tasks_run_and_errors_are_typed_not_fatal() {
        let dir = std::env::temp_dir().join(format!("er-worker-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = Frame::Task {
            job: "wordcount".to_string(),
            stage: "map".to_string(),
            task: 0,
            attempt: 0,
            payload: crate::dist::encode_map_task(1, 0, 7, &dir, &["a b a".to_string()]),
        };
        let bad = Frame::Task {
            job: "wordcount".to_string(),
            stage: "map".to_string(),
            task: 1,
            attempt: 0,
            payload: b"garbage".to_vec(),
        };
        let (code, replies) = session(&[hello(), good, bad, Frame::Shutdown]);
        assert_eq!(code, 0);
        assert!(matches!(replies[1], Frame::TaskResult { task: 0, .. }));
        assert!(
            matches!(&replies[2], Frame::TaskError { task: 1, message, .. } if message.contains("bad map task header"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eof_before_hello_is_a_clean_exit() {
        let (code, replies) = session(&[]);
        assert_eq!(code, 0);
        assert!(replies.is_empty());
    }
}
