//! The repo benchmark. README.md has the metric dictionary, the workloads'
//! rationale and how to run each command.
//!
//! Started through `bash benchmark/run.sh`, which builds it:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the driver's protocol)
//! benchmark run <workload>|--all [--seed n] [--seconds s] [--repeats k] [--reverse] [--out file]
//! benchmark trace <workload> [--seed n] [--seconds s]
//! benchmark compare <a.json> <b.json>
//! benchmark selfcheck [--seed n] [--seconds s] [--repeats k]
//! ```

mod compare;
mod probes;
mod report;
mod rig;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use report::{Provenance, ResultSet};
use runner::{Request, RunResult};

/// No workload may take this long, set-up included.
const WORKLOAD_LIMIT_S: f64 = 30.0;

const DEFAULT_SEED: u64 = 7;

/// `--key value` options and the words between them.
struct Args {
    words: Vec<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// `flags` names the options that take no value.
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            words: Vec::new(),
            options: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if flags.contains(&name) => parsed.flags.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.options.push((name.to_string(), value.clone()));
                }
                None => parsed.words.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read `{v}`"))
            })
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.get("seed")?.unwrap_or(DEFAULT_SEED))
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds = self
            .get("seconds")?
            .unwrap_or(report::benchmark().run_seconds as f64);
        if seconds > 0.0 {
            Ok(seconds)
        } else {
            Err("--seconds must be positive".into())
        }
    }
}

/// One run in this process: the driver's protocol, and what every other
/// command starts as a child so that each run has a process (and a peak
/// RSS) of its own. `--full` prints the whole result instead of the
/// driver's line.
fn single(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &["full"])?;
    if !args.words.is_empty() {
        return Err(format!("unexpected argument `{}`", args.words[0]));
    }
    let workload: String = args.get("workload")?.ok_or("--workload is required")?;
    let traced = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let result = runner::run(&Request {
        workload: &workload,
        seed: args.seed()?,
        seconds: args.seconds()?,
        traced,
    })?;
    for error in &result.errors {
        eprintln!("failed operation: {error}");
    }
    let line = if args.flag("full") {
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    } else {
        report::driver_line(&result)?
    };
    println!("{line}");
    Ok(result.correct())
}

/// Run one workload in a child process and read its full result.
fn child_run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--full"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} ended with {} and no result", output.status))?;
    serde_json::from_str(line).map_err(|e| format!("{workload}: result does not parse: {e}"))
}

/// `k` runs of each workload, seeds `seed..seed+k`, into one result set.
fn run_set(
    workloads: &[&str],
    seed: u64,
    seconds: f64,
    repeats: u64,
) -> Result<(ResultSet, bool), String> {
    let mut set = ResultSet {
        provenance: Provenance::collect(),
        runs: Vec::new(),
    };
    let mut good = true;
    for repeat in 0..repeats {
        for workload in workloads {
            let result = child_run(workload, seed + repeat, seconds, false)?;
            report::print_run(&result);
            if !result.correct() {
                good = false;
            }
            if result.total_s >= WORKLOAD_LIMIT_S {
                println!(
                    "  TOO LONG: {:.1} s, the limit is {WORKLOAD_LIMIT_S} s",
                    result.total_s
                );
                good = false;
            }
            set.runs.push(result);
        }
    }
    Ok((set, good))
}

fn write_set(set: &ResultSet, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(set).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(())
}

fn read_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn stamped(name: &str) -> PathBuf {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    runner::target_dir().join(format!("{name}-{now}.json"))
}

fn all_workloads() -> Vec<&'static str> {
    workloads::SPECS.iter().map(|s| s.name).collect()
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &["all", "reverse"])?;
    let mut names: Vec<&str> = if args.flag("all") {
        all_workloads()
    } else {
        let name = args.words.first().ok_or("run: name a workload or --all")?;
        let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        vec![spec.name]
    };
    if args.flag("reverse") {
        names.reverse();
    }
    let repeats = args.get("repeats")?.unwrap_or(1);
    let (set, good) = run_set(&names, args.seed()?, args.seconds()?, repeats)?;
    let out = args
        .get::<String>("out")?
        .map_or_else(|| stamped("results"), PathBuf::from);
    write_set(&set, &out)?;
    Ok(good)
}

fn cmd_trace(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &[])?;
    let name = args.words.first().ok_or("trace: name a workload")?;
    let (seed, seconds) = (args.seed()?, args.seconds()?);
    let plain = child_run(name, seed, seconds, false)?;
    let traced = child_run(name, seed, seconds, true)?;
    report::print_run(&traced);
    let cycle = |r: &RunResult| {
        r.metrics
            .get("cycle_ms_p50")
            .map(|m| m.value)
            .ok_or("a run without cycle_ms_p50")
    };
    let (off, on) = (cycle(&plain)?, cycle(&traced)?);
    println!(
        "trace_overhead_pct {:.2} %  (cycle_ms_p50 {on:.4} ms traced against {off:.4} ms untraced)",
        (on / off - 1.0) * 100.0
    );
    println!(
        "spans written to {}",
        runner::target_dir()
            .join(format!("trace-{name}.json"))
            .display()
    );
    Ok(plain.correct() && traced.correct())
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare: name two result files".into());
    };
    Ok(compare::compare(&read_set(a)?, &read_set(b)?)? == 0)
}

/// Two full sets of the same build, workloads in opposite order; every
/// bounded metric must agree within its bound.
fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(args, &[])?;
    let (seed, seconds) = (args.seed()?, args.seconds()?);
    let repeats = args.get("repeats")?.unwrap_or(5);
    let forward = all_workloads();
    let backward: Vec<&str> = forward.iter().rev().copied().collect();
    let (a, good_a) = run_set(&forward, seed, seconds, repeats)?;
    write_set(&a, &stamped("selfcheck-a"))?;
    let (b, good_b) = run_set(&backward, seed, seconds, repeats)?;
    write_set(&b, &stamped("selfcheck-b"))?;
    let not_ok = compare::compare(&a, &b)?;
    println!("selfcheck: {not_ok} metric(s) not ok");
    Ok(good_a && good_b && not_ok == 0)
}

fn main() -> ExitCode {
    // Before any thread exists: the harness measures the shipped defaults.
    rig::scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("selfcheck") => cmd_selfcheck(&args[1..]),
        Some(option) if option.starts_with("--") => single(&args),
        _ => Err("usage: see the head of benchmark/src/main.rs or benchmark/README.md".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
