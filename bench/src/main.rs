//! The end-to-end benchmark of the ER pipeline: five named workloads, four
//! end-to-end metrics, and a traced per-layer run. See `bench/README.md`.
//!
//! ```text
//! er-e2e-bench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! er-e2e-bench [--smoke | --agree] [--seed <n>] [--seconds <n>]
//! ```
//!
//! With `--workload` the program measures that workload in this process and
//! prints one JSON result as its last line. Without it, it runs the whole
//! suite, each run in a fresh child process of this same binary.

mod run;
mod staged;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 15;
/// Default `--seconds` of the `--smoke` rung.
const SMOKE_SECONDS: f64 = 1.0;
const DEFAULT_SEED: u64 = 2017;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, None);
    let (mut trace, mut smoke, mut agree) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("bad {flag} {v:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => smoke = true,
            "--agree" => agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS as f64
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds.unwrap_or(default_seconds),
        trace,
        smoke,
        agree,
    })
}

/// The benchmark's directory: where cargo says the manifest is when run
/// through `cargo run`, else where it was when this binary was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The one directory this process writes temporary files under (segment
/// spills, the subprocess backend's shuffle files), removed on every exit
/// path of [`real_main`].
struct TempRoot(PathBuf);

impl TempRoot {
    fn create(out_dir: &Path) -> std::io::Result<TempRoot> {
        let root = out_dir.join(format!("tmp.{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(TempRoot(root))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn one_workload(args: &Args, name: &str, out_dir: &Path) -> Result<i32, String> {
    let spec = workload::Spec::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    let spec = if args.smoke { spec.smoke() } else { spec };
    let nproc = suite::nproc();
    if spec.threads.max(spec.workers) > nproc {
        return Err(format!(
            "{name} needs {} threads and {} workers but this host has {nproc} processors",
            spec.threads, spec.workers
        ));
    }
    let tmp = TempRoot::create(out_dir).map_err(|e| e.to_string())?;
    // The program under test puts its spill files under the system temp
    // dir; point that at the benchmark's own root. No thread exists yet.
    std::env::set_var("TMPDIR", &tmp.0);
    let result = if args.trace {
        run::traced(&spec, args.seed, args.seconds, &tmp.0, out_dir)?
    } else {
        run::untraced(&spec, args.seed, args.seconds, &tmp.0)?
    };
    println!("{}", result.to_json_line());
    Ok(0)
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let out_dir = bench_dir().join("out");
    match &args.workload {
        Some(name) if args.agree => Err(format!("--agree runs the suite, not {name:?} alone")),
        Some(name) => one_workload(&args, name, &out_dir),
        None => suite::run(&args, &out_dir),
    }
}

fn main() {
    // This binary is its own `--worker` program for the subprocess backend.
    er_mapreduce::maybe_worker_entry(&er_mapreduce::default_registry());
    let code = real_main().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        2
    });
    std::process::exit(code);
}
