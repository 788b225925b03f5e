//! The whole suite from one command: every workload untraced, then every
//! workload traced, each run in a fresh child process of this binary (so
//! `peak_rss_mb` belongs to one workload), every metric printed by name with
//! its unit, and the results written under `bench/out/`.
//!
//! `--agree` instead runs the untraced suite twice back to back and fails
//! unless the two sets agree within the metrics' own bounds.

use crate::run::{RunResult, END_TO_END};
use crate::workload::{Spec, WORKLOADS};
use crate::Args;
use std::path::Path;
use std::process::{Command, Stdio};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `kB` value of a `Key:   123 kB` line of a /proc file.
pub fn proc_kb(file: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix(key))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// What the results must be read against.
struct Host {
    nproc: usize,
    mem_total_mb: u64,
    rustc: String,
}

impl Host {
    fn probe() -> Host {
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Host {
            nproc: nproc(),
            mem_total_mb: proc_kb("/proc/meminfo", "MemTotal:").map_or(0, |kb| kb as u64 / 1024),
            rustc,
        }
    }
}

/// Runs one workload in a child process and returns its result line parsed.
/// The child's `#` commentary is passed through.
fn run_child(args: &Args, spec: &Spec, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    lines.iter().for_each(|l| println!("{l}"));
    if !out.status.success() {
        return Err(format!("{} exited with {}", spec.name, out.status));
    }
    RunResult::parse_json_line(last)
        .ok_or_else(|| format!("{}: last line is not a result: {last:?}", spec.name))
}

fn print_result(spec: &Spec, r: &RunResult) {
    for m in &r.metrics {
        let bound = END_TO_END
            .iter()
            .find(|e| e.0 == m.name)
            .map_or(String::new(), |e| format!("  (bound {})", e.3));
        println!(
            "{:<16} {:<30} {:>16} {}{bound}",
            spec.name, m.name, m.value, m.unit
        );
    }
    println!(
        "{:<16} {:<30} {:>16} of {} operations{}",
        spec.name,
        "failed",
        r.failed,
        r.attempted,
        if r.correct { "" } else { "  INCORRECT" }
    );
}

fn results_json(
    args: &Args,
    host: &Host,
    specs: &[Spec],
    runs: &[(RunResult, RunResult)],
) -> String {
    let workloads: Vec<String> = specs
        .iter()
        .zip(runs)
        .map(|(s, (e2e, layers))| {
            format!(
                "    {{\"name\": \"{}\", \"entities\": {}, \"threads\": {}, \"workers\": {}, \
                 \"correct\": {}, \"attempted\": {}, \"failed\": {},\n     \"end_to_end\": {},\n     \
                 \"per_layer\": {}}}",
                s.name,
                s.entities,
                s.threads,
                s.workers,
                e2e.correct && layers.correct,
                e2e.attempted + layers.attempted,
                e2e.failed + layers.failed,
                e2e.metrics_json(),
                layers.metrics_json()
            )
        })
        .collect();
    format!(
        "{{\n  \"smoke\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"host\": {{\"nproc\": {}, \
         \"mem_total_mb\": {}, \"rustc\": \"{}\"}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        args.smoke,
        args.seed,
        args.seconds,
        host.nproc,
        host.mem_total_mb,
        host.rustc,
        workloads.join(",\n")
    )
}

/// Compares two untraced sets. Timings and memory must agree within the
/// metric's bound (relative to the smaller of the two values, in either
/// direction). `f1` is deterministic and must agree to the last digit, which
/// also says the two sets resolved alike (each run has already checked that
/// its repetitions share one fingerprint); no operation may have failed.
fn agree(specs: &[Spec], first: &[RunResult], second: &[RunResult]) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for ((spec, a), b) in specs.iter().zip(first).zip(second) {
        for (name, _, _, bound) in END_TO_END {
            let (x, y) = (
                a.metric(name).unwrap_or(f64::NAN),
                b.metric(name).unwrap_or(f64::NAN),
            );
            let spread = (x - y).abs() / x.min(y);
            let bound = if name == "f1" { 0.0 } else { bound };
            let pass = spread <= bound;
            ok &= pass;
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>8.2}% {:>5.0}%{}",
                spec.name,
                name,
                x,
                y,
                spread * 100.0,
                bound * 100.0,
                if pass { "" } else { "  DISAGREE" }
            );
        }
        if !(a.correct && b.correct && a.failed == 0 && b.failed == 0) {
            ok = false;
            println!(
                "{:<16} a set has failed operations or incorrect output",
                spec.name
            );
        }
    }
    ok
}

pub fn run(args: &Args, out_dir: &Path) -> Result<i32, String> {
    if args.agree && args.smoke {
        return Err("smoke numbers are not a baseline: --agree runs at full size only".to_string());
    }
    let specs: Vec<Spec> = WORKLOADS
        .iter()
        .map(|&s| if args.smoke { s.smoke() } else { s })
        .collect();
    let host = Host::probe();
    println!(
        "# host: nproc {}, {} MB, {}; seed {}, {} s per run{}",
        host.nproc,
        host.mem_total_mb,
        host.rustc,
        args.seed,
        args.seconds,
        if args.smoke {
            ", SMOKE sizes (not a baseline)"
        } else {
            ""
        }
    );
    let untraced = |label: &str| -> Result<Vec<RunResult>, String> {
        println!("# {label}: untraced runs");
        specs.iter().map(|s| run_child(args, s, false)).collect()
    };
    if args.agree {
        let first = untraced("first set")?;
        let second = untraced("second set")?;
        return Ok(if agree(&specs, &first, &second) { 0 } else { 1 });
    }
    let e2e = untraced("end to end")?;
    println!("# per layer: traced runs");
    let layers: Vec<RunResult> = specs
        .iter()
        .map(|s| run_child(args, s, true))
        .collect::<Result<_, _>>()?;
    let runs: Vec<(RunResult, RunResult)> = e2e.into_iter().zip(layers).collect();
    for (spec, (e, l)) in specs.iter().zip(&runs) {
        print_result(spec, e);
        print_result(spec, l);
    }
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let file = out_dir.join(if args.smoke {
        "results.smoke.json"
    } else {
        "results.json"
    });
    std::fs::write(&file, results_json(args, &host, &specs, &runs)).map_err(|e| e.to_string())?;
    println!("# results written to {}", file.display());
    let all_correct = runs.iter().all(|(e, l)| e.correct && l.correct);
    Ok(if all_correct { 0 } else { 1 })
}
