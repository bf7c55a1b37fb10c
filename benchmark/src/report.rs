//! The metric dictionary (`BENCHMARK.json`), result files and how results
//! are printed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::runner::{Metric, RunResult};

/// What the harness reads of `BENCHMARK.json`: names, units, directions
/// and bounds, so that the file is the one dictionary.
#[derive(Debug, Clone, Deserialize)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics have one.
    #[serde(default)]
    pub bound: Option<f64>,
}

pub fn benchmark() -> Benchmark {
    serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json at the root of the repo parses")
}

/// End-to-end metrics of the issue that the driver is not given. Most have
/// a home workload: the loop there has the step they time, the others do
/// not (or, for the remote figures, make the call in process), and the
/// driver's protocol wants every `end_to_end` metric from every workload.
/// `cycle_ms_p75` is at home everywhere but did not repeat within any bound
/// the driver allows (README.md). The harness prints them where the loop
/// measures them, and `compare` holds them to the issue's bounds at home.
pub struct Scoped {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// `None`: repeats within no bound even at home (README.md), printed
    /// and judged by nobody.
    pub bound: Option<f64>,
    pub home: &'static [&'static str],
}

const fn scoped(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: Option<f64>,
    home: &'static [&'static str],
) -> Scoped {
    Scoped {
        name,
        unit,
        lower_is_better,
        bound,
        home,
    }
}

const COLD: &[&str] = &["cold_session", "journal_recover"];
const RERUN: &[&str] = &["rerun_vm"];
const REMOTE: &[&str] = &["remote_live"];
const JOURNAL: &[&str] = &["journal_recover"];
const WARM: &[&str] = &["rerun_vm", "remote_live"];
const ALL: &[&str] = &["cold_session", "rerun_vm", "remote_live", "journal_recover"];

pub const SCOPED: [Scoped; 9] = [
    scoped("cycle_ms_p75", "ms", true, Some(0.15), ALL),
    scoped("records_per_s", "rec/s", false, Some(0.10), WARM),
    scoped("select_ms_p50", "ms", true, Some(0.10), COLD),
    scoped("records_per_s_1e", "rec/s", false, Some(0.10), RERUN),
    scoped("scaling_efficiency", "ratio", false, Some(0.10), RERUN),
    scoped("poll_rtt_us_p50", "us", true, Some(0.10), REMOTE),
    scoped("poll_rtt_us_p90", "us", true, None, REMOTE),
    scoped("results_fetch_ms_p50", "ms", true, None, REMOTE),
    scoped("recover_ms_p50", "ms", true, Some(0.10), JOURNAL),
];

/// A metric `compare` judges, with the bound it is held to.
pub struct Judged {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The metrics `compare` judges on `workload`: the declared end-to-end
/// ones, and the bounded scoped ones that are at home there.
pub fn bounded_metrics(workload: &str) -> Vec<Judged> {
    let declared = benchmark().end_to_end.into_iter().map(|m| Judged {
        lower_is_better: m.better == "lower",
        bound: m.bound.expect("end-to-end metrics have a bound"),
        name: m.name,
        unit: m.unit,
    });
    let at_home = SCOPED
        .iter()
        .filter(|s| s.home.contains(&workload))
        .filter_map(|s| {
            Some(Judged {
                name: s.name.to_string(),
                unit: s.unit.to_string(),
                lower_is_better: s.lower_is_better,
                bound: s.bound?,
            })
        });
    declared.chain(at_home).collect()
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Provenance {
    pub git_sha: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    /// Built against the stand-ins in `standins/` and not the published
    /// third-party crates; results of the two kinds are not comparable.
    pub standins: bool,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn collect() -> Provenance {
        let unknown = || "unknown".to_string();
        // Ask git only in a checkout that is one: from the driver's bare
        // copy, git would walk up and answer for some directory above.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
        Provenance {
            git_sha: repo
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(unknown),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| {
                    text.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(unknown),
            standins: cfg!(feature = "standins"),
        }
    }
}

/// A result file: one or more runs of each workload by one build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultSet {
    pub provenance: Provenance,
    pub runs: Vec<RunResult>,
}

impl ResultSet {
    /// Values of every metric per workload, in run order.
    pub fn values(&self) -> BTreeMap<(String, String), Vec<f64>> {
        let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in &self.runs {
            for (name, metric) in &run.metrics {
                out.entry((run.workload.clone(), name.clone()))
                    .or_default()
                    .push(metric.value);
            }
        }
        out
    }
}

/// The one line the driver reads: the declared end-to-end metrics of an
/// untraced run, the declared per-layer metrics of a traced one.
pub fn driver_line(result: &RunResult) -> Result<String, String> {
    #[derive(Serialize)]
    struct Value {
        value: f64,
        unit: String,
    }
    #[derive(Serialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, Value>,
    }
    let bench = benchmark();
    let declared = if result.traced {
        &bench.per_layer
    } else {
        &bench.end_to_end
    };
    let mut metrics = BTreeMap::new();
    for decl in declared {
        let metric = result.metrics.get(&decl.name).ok_or_else(|| {
            format!(
                "workload {} did not produce the declared metric {}",
                result.workload, decl.name
            )
        })?;
        if !metric.value.is_finite() {
            return Err(format!("metric {} is not a number", decl.name));
        }
        if metric.unit != decl.unit {
            return Err(format!(
                "metric {} is in {}, declared in {}",
                decl.name, metric.unit, decl.unit
            ));
        }
        metrics.insert(
            decl.name.clone(),
            Value {
                value: metric.value,
                unit: decl.unit.clone(),
            },
        );
    }
    serde_json::to_string(&Line {
        correct: result.correct(),
        attempted: result.attempted,
        failed: result.failed,
        metrics,
    })
    .map_err(|e| e.to_string())
}

fn row(name: &str, m: &Metric) -> String {
    let spread = m
        .spread
        .map_or("      -".to_string(), |s| format!("{:6.1}%", s * 100.0));
    let mad = m.mad.map_or(String::new(), |d| format!("  mad {d:.4}"));
    format!(
        "  {name:<34} {:>16.4} {:<10} n={:<7} spread {spread}{mad}",
        m.value, m.unit, m.n
    )
}

/// Every metric of a run by name, with unit, sample count and spread.
pub fn print_run(result: &RunResult) {
    let bench = benchmark();
    println!(
        "{}  seed={} events={} E={} traced={}  {} timed iterations in {:.1} s ({} failed), {:.1} s in all",
        result.workload,
        result.seed,
        result.events,
        result.engines,
        result.traced,
        result.attempted,
        result.timed_phase_s,
        result.failed,
        result.total_s,
    );
    if let Some(decl) = bench.workloads.iter().find(|w| w.name == result.workload) {
        println!("  why: {}", decl.why);
    }
    for error in &result.errors {
        println!("  FAILED {error}");
    }
    println!(" end-to-end");
    for decl in &bench.end_to_end {
        if let Some(m) = result.metrics.get(&decl.name) {
            println!("{}", row(&decl.name, m));
        }
    }
    for scoped in &SCOPED {
        match result.metrics.get(scoped.name) {
            Some(m) if scoped.home.contains(&result.workload.as_str()) => {
                println!("{}", row(scoped.name, m));
            }
            _ => println!("  {:<34} {:>16}", scoped.name, "null"),
        }
    }
    if result.traced {
        println!(" per-layer");
        for decl in &bench.per_layer {
            if let Some(m) = result.metrics.get(&decl.name) {
                println!("{}", row(&decl.name, m));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The keys of `BENCHMARK.json` that only the driver reads.
    #[derive(Deserialize)]
    struct DriverKeys {
        command: Vec<String>,
        paths: Vec<String>,
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let b = benchmark();
        let keys: DriverKeys =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("parses");
        assert_eq!(keys.paths, ["benchmark"]);
        assert_eq!(keys.command, ["bash", "benchmark/run.sh"]);
        assert!(keys.command.len() <= 32 && keys.command.iter().all(|s| s.len() <= 200));
        assert!((1..=60).contains(&b.run_seconds));
        assert!((2..=8).contains(&b.workloads.len()));
        assert!((1..=16).contains(&b.end_to_end.len()));
        assert!((1..=128).contains(&b.per_layer.len()));

        let mut names: Vec<&str> = b
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(
                b.end_to_end
                    .iter()
                    .chain(&b.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");

        for w in &b.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in b.end_to_end.iter().chain(&b.per_layer) {
            assert!(
                matches!(m.better.as_str(), "lower" | "higher"),
                "{}",
                m.name
            );
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}",
                m.name
            );
        }
        for m in &b.end_to_end {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(b.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = b
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = b
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn workloads_in_code_are_the_declared_ones() {
        let declared: Vec<String> = benchmark().workloads.into_iter().map(|w| w.name).collect();
        let coded: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(declared, coded);
    }

    #[test]
    fn scoped_metrics_are_at_home_somewhere_and_agree_with_the_dictionary() {
        let b = benchmark();
        let judged: usize = SPECS.iter().map(|s| bounded_metrics(s.name).len()).sum();
        let bounded_homes: usize = SCOPED
            .iter()
            .filter(|s| s.bound.is_some())
            .map(|s| s.home.len())
            .sum();
        assert_eq!(judged, SPECS.len() * b.end_to_end.len() + bounded_homes);
        for scoped in &SCOPED {
            assert!(!scoped.home.is_empty(), "{}", scoped.name);
            assert!(scoped
                .home
                .iter()
                .all(|h| SPECS.iter().any(|s| s.name == *h)));
            assert!(b.end_to_end.iter().all(|m| m.name != scoped.name));
            // The ones every loop measures are also per-layer metrics.
            if let Some(decl) = b.per_layer.iter().find(|m| m.name == scoped.name) {
                assert_eq!(decl.unit, scoped.unit, "{}", scoped.name);
                assert_eq!(decl.better == "lower", scoped.lower_is_better);
            }
        }
    }
}
