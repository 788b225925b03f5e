//! Worker executable for the process-backend integration suites.
//!
//! Test harness binaries own `main`, so integration tests cannot re-exec
//! themselves the way the `er` CLI does; instead the suites point
//! `SubprocessConfig::program` at this binary (via the
//! `CARGO_BIN_EXE_er-test-worker` env var Cargo sets for sibling tests).
//! It speaks the framed worker protocol on stdin/stdout and nothing else.

fn main() {
    std::process::exit(er_mapreduce::worker_main());
}
