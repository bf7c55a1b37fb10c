//! One run of one workload: set-up, the timed loop, the probes of a traced
//! run, and the metrics that come out.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipa_aida::Tree;
use serde::{Deserialize, Serialize};

use crate::probes;
use crate::rig;
use crate::stats::{highest_supported_percentile, mad, median, percentile, spread};
use crate::trace::{self, Span, Tracer, PROBE, SETUP};
use crate::workloads::{self, Ctx, IterSample, WARMUP_ITERATIONS};

/// Set-up is done this many times per run (once before the loop, the rest
/// after it) and `setup_s` is the median: the driver's contract asks for
/// several set-ups per run, so that one slow page-fault storm does not
/// decide a metric it holds later changes to.
const SETUP_REPEATS: usize = 3;

/// Errors kept verbatim in a result; the count is always exact.
const ERRORS_KEPT: usize = 5;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
    /// Inter-quartile range of those samples as a share of their median;
    /// absent for single readings.
    pub spread: Option<f64>,
    /// Median absolute deviation of those samples, in the metric's unit.
    pub mad: Option<f64>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub events: u64,
    pub engines: usize,
    pub traced: bool,
    pub seconds_asked: f64,
    pub timed_phase_s: f64,
    pub total_s: f64,
    pub setup_repeats: usize,
    pub warmup_iterations: usize,
    /// Timed iterations attempted and failed (an iteration that errors,
    /// times out or fails verification is failed and left out of timings).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Every metric the run produced, end-to-end and (traced) per-layer.
    pub metrics: BTreeMap<String, Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Timings of the successful timed iterations.
#[derive(Default)]
struct Samples {
    cycle_ms: Vec<f64>,
    first_result_ms: Vec<f64>,
    poll_rtt_us: Vec<f64>,
    fetch_ms: Vec<f64>,
    select_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    run_wall_s: Vec<f64>,
    baseline_wall_s: Vec<f64>,
    parts_total: usize,
    last_tree: Option<Arc<Tree>>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Samples {
    fn add(&mut self, s: IterSample) {
        self.cycle_ms.push(ms(s.cycle));
        self.first_result_ms.push(ms(s.first_result));
        self.poll_rtt_us
            .extend(s.run.poll_rtts.iter().map(|d| d.as_secs_f64() * 1e6));
        self.fetch_ms.extend(s.run.fetches.iter().map(|d| ms(*d)));
        self.select_ms.extend(s.select.map(ms));
        self.recover_ms.extend(s.recover.map(ms));
        self.run_wall_s.push(s.run.run_wall.as_secs_f64());
        self.baseline_wall_s
            .extend(s.baseline_run_wall.map(|d| d.as_secs_f64()));
        self.parts_total = s.run.status.parts_total;
        self.last_tree = Some(s.run.tree);
    }
}

/// Metrics under construction.
struct Sheet(BTreeMap<String, Metric>);

impl Sheet {
    fn single(&mut self, name: &str, unit: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                n: 1,
                spread: None,
                mad: None,
            },
        );
    }

    fn insert(&mut self, name: &str, unit: &str, value: Option<f64>, samples: &[f64]) {
        // A workload without the step has no samples and no metric.
        if let Some(value) = value {
            self.0.insert(
                name.to_string(),
                Metric {
                    value,
                    unit: unit.to_string(),
                    n: samples.len(),
                    spread: spread(samples),
                    mad: mad(samples),
                },
            );
        }
    }

    fn median(&mut self, name: &str, unit: &str, samples: &[f64]) {
        self.insert(name, unit, median(samples), samples);
    }

    /// The nearest-rank `p`-th percentile of `samples`.
    fn percentile(&mut self, name: &str, unit: &str, samples: &[f64], p: f64) {
        if !samples.is_empty() && highest_supported_percentile(samples.len()).is_none_or(|s| s < p)
        {
            eprintln!(
                "note: {name} rests on {} samples; a p{p} wants ten beyond it",
                samples.len()
            );
        }
        self.insert(name, unit, percentile(samples, p), samples);
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Records per second over all runs: records processed over time spent
/// between `run()` and the first poll that reported `Finished`.
fn rate(sheet: &mut Sheet, name: &str, events: u64, run_wall_s: &[f64]) -> Option<f64> {
    if run_wall_s.is_empty() {
        return None;
    }
    let rate = (events as f64 * run_wall_s.len() as f64) / run_wall_s.iter().sum::<f64>();
    sheet.0.insert(
        name.to_string(),
        Metric {
            value: rate,
            unit: "rec/s".to_string(),
            n: run_wall_s.len(),
            spread: spread(run_wall_s),
            // Of the run times; the rate itself is one number.
            mad: None,
        },
    );
    Some(rate)
}

fn end_to_end(
    sheet: &mut Sheet,
    samples: &Samples,
    setup_s: &[f64],
    peak_rss_mb: f64,
    events: u64,
    engines: usize,
) {
    sheet.median("setup_s", "s", setup_s);
    sheet.median("cycle_ms_p50", "ms", &samples.cycle_ms);
    sheet.percentile("cycle_ms_p75", "ms", &samples.cycle_ms, 75.0);
    sheet.median("first_result_ms_p50", "ms", &samples.first_result_ms);
    let main = rate(sheet, "records_per_s", events, &samples.run_wall_s);
    sheet.single("peak_rss_mb", "MB", peak_rss_mb);

    // Workload-scoped end-to-end metrics (README.md, "Scoped metrics"):
    // each comes out where the loop has the step, and nowhere else.
    sheet.median("poll_rtt_us_p50", "us", &samples.poll_rtt_us);
    sheet.percentile("poll_rtt_us_p90", "us", &samples.poll_rtt_us, 90.0);
    sheet.median("results_fetch_ms_p50", "ms", &samples.fetch_ms);
    sheet.median("select_ms_p50", "ms", &samples.select_ms);
    sheet.median("recover_ms_p50", "ms", &samples.recover_ms);
    let base = rate(sheet, "records_per_s_1e", events, &samples.baseline_wall_s);
    if let (Some(rate), Some(base)) = (main, base) {
        sheet.single(
            "scaling_efficiency",
            "ratio",
            rate / (engines as f64 * base),
        );
    }
}

/// Durations in ns of the spans called `name`: those of timed iterations,
/// or, for a step the loop does not have, those of set-up.
fn span_ns(spans: &[Span], name: &str) -> Vec<f64> {
    let of = |timed: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && (s.iteration >= 0) == timed && s.iteration != PROBE)
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let timed = of(true);
    if timed.is_empty() {
        of(false)
    } else {
        timed
    }
}

/// What the spans of one timed iteration's main run add up to.
#[derive(Default)]
struct RunSpans {
    polls: f64,
    poll_busy_ns: f64,
    wait_self_ns: f64,
    versions: f64,
    run_start_ns: Option<u64>,
    wait_end_ns: Option<u64>,
}

fn span_metrics(sheet: &mut Sheet, spans: &[Span]) {
    let scaled = |name: &str, per: f64| -> Vec<f64> {
        span_ns(spans, name)
            .into_iter()
            .map(|ns| ns / per)
            .collect()
    };
    sheet.median(
        "dataset.generate_ms",
        "ms",
        &scaled("dataset.generate", 1e6),
    );
    sheet.median("catalog.search_us", "us", &scaled("search", 1e3));
    sheet.median("manager.create_ms", "ms", &scaled("create", 1e6));
    sheet.median("staging.select_ms", "ms", &scaled("select", 1e6));
    sheet.median("session.close_ms", "ms", &scaled("close", 1e6));
    sheet.median("session.load_code_ms", "ms", &scaled("load_code", 1e6));
    sheet.median("session.run_call_us", "us", &scaled("run_call", 1e3));
    sheet.median("session.poll_us_p50", "us", &scaled("poll", 1e3));
    sheet.median(
        "aida_manager.results_us_p50",
        "us",
        &scaled("results_new", 1e3),
    );
    sheet.median("trace.cycle_ms_p50", "ms", &scaled("cycle", 1e6));
    sheet.single("trace.spans", "count", spans.len() as f64);

    let self_ns = trace::self_times_ns(spans);
    let mut runs: BTreeMap<i64, RunSpans> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_ns) {
        if span.iteration < 0 {
            continue;
        }
        let run = runs.entry(span.iteration).or_default();
        match span.name {
            "poll" => {
                run.polls += 1.0;
                run.poll_busy_ns += span.duration_ns() as f64;
            }
            "results_new" => run.versions += 1.0,
            "run_call" => run.run_start_ns = Some(span.start_ns),
            "wait" => {
                run.wait_self_ns = self_ns as f64;
                run.wait_end_ns = Some(span.end_ns);
            }
            _ => {}
        }
    }
    let per_run = |f: &dyn Fn(&RunSpans) -> Option<f64>| -> Vec<f64> {
        runs.values().filter_map(f).collect()
    };
    sheet.median(
        "session.polls_per_run",
        "count",
        &per_run(&|r| Some(r.polls)),
    );
    sheet.median(
        "session.poll_busy_ms",
        "ms",
        &per_run(&|r| Some(r.poll_busy_ns / 1e6)),
    );
    sheet.median(
        "session.wait_ms",
        "ms",
        &per_run(&|r| Some(r.wait_self_ns / 1e6)),
    );
    sheet.median(
        "session.run_wall_ms",
        "ms",
        &per_run(&|r| Some((r.wait_end_ns? - r.run_start_ns?) as f64 / 1e6)),
    );
    sheet.median(
        "aida_manager.versions_per_run",
        "count",
        &per_run(&|r| Some(r.versions)),
    );
}

/// Where a run keeps its files: `benchmark/target/run-<pid>/`.
pub fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    events: u64,
    engines: usize,
    provenance: crate::report::Provenance,
    spans: Vec<Span>,
}

pub struct Request<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Run one workload once.
pub fn run(req: &Request<'_>) -> Result<RunResult, String> {
    let started = Instant::now();
    let spec = workloads::spec(req.workload)
        .ok_or_else(|| format!("unknown workload `{}`", req.workload))?;
    let scratch = target_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        events: spec.events,
        seed: req.seed,
        engines: rig::engines(),
        scratch,
    };
    let result = run_in(req, &ctx, started);
    // Journals of failed iterations and of the probes go with it.
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    result
}

fn run_in(req: &Request<'_>, ctx: &Ctx, started: Instant) -> Result<RunResult, String> {
    let mut tr = Tracer::new(req.traced);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut timed_setup = |tr: &mut Tracer| {
        let t = Instant::now();
        let workload = workloads::setup(req.workload, ctx, tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok::<_, String>(workload)
    };
    let mut workload = timed_setup(&mut tr)?;

    let mut samples = Samples::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let loop_started = Instant::now();
    while loop_started.elapsed().as_secs_f64() < req.seconds {
        tr.set_iteration(attempted as i64);
        match workload.iteration(WARMUP_ITERATIONS + attempted as usize, &mut tr) {
            Ok(sample) => samples.add(sample),
            Err(e) => {
                failed += 1;
                if errors.len() < ERRORS_KEPT {
                    errors.push(format!("iteration {attempted}: {e}"));
                }
            }
        }
        attempted += 1;
    }
    let timed_phase_s = loop_started.elapsed().as_secs_f64();
    if samples.cycle_ms.is_empty() {
        return Err(format!(
            "no iteration succeeded: {}",
            errors.first().map_or("none was attempted", String::as_str)
        ));
    }
    // One set-up and the loop: what a user's process would hold. The
    // repeats of set-up below would only add allocator arenas to it.
    let peak_rss_mb = peak_rss_mb()?;

    let probed = if req.traced {
        tr.set_iteration(PROBE);
        let inputs = probes::Inputs {
            dataset: workload.dataset(),
            engines: ctx.engines,
            script: workload.script(),
            tree: samples.last_tree.clone().expect("an iteration succeeded"),
            site: workload.probe_site()?,
            scratch: &ctx.scratch,
        };
        Some(probes::run(inputs, &mut tr)?)
    } else {
        None
    };
    tr.set_iteration(SETUP);
    workload.teardown(&mut tr);
    for _ in 1..SETUP_REPEATS {
        timed_setup(&mut tr)?.teardown(&mut tr);
    }

    let mut sheet = Sheet(BTreeMap::new());
    end_to_end(
        &mut sheet,
        &samples,
        &setup_s,
        peak_rss_mb,
        ctx.events,
        ctx.engines,
    );
    if let Some(probed) = probed {
        span_metrics(&mut sheet, tr.spans());
        sheet.single("session.parts_total", "count", samples.parts_total as f64);
        for (name, unit, value) in probed {
            sheet.single(name, unit, value);
        }
        computed_layers(&mut sheet);
        let nesting = trace::nesting_errors(tr.spans());
        if !nesting.is_empty() {
            return Err(format!("spans do not nest: {}", nesting.join("; ")));
        }
        write_trace(req, ctx, tr.into_spans())?;
    }

    Ok(RunResult {
        workload: req.workload.to_string(),
        seed: req.seed,
        events: ctx.events,
        engines: ctx.engines,
        traced: req.traced,
        seconds_asked: req.seconds,
        timed_phase_s,
        total_s: started.elapsed().as_secs_f64(),
        setup_repeats: SETUP_REPEATS,
        warmup_iterations: WARMUP_ITERATIONS,
        attempted,
        failed,
        errors,
        metrics: sheet.0,
    })
}

/// Per-layer metrics that are computed from others, and labelled so in
/// README.md.
fn computed_layers(sheet: &mut Sheet) {
    let get = |sheet: &Sheet, name: &str| sheet.0.get(name).map(|m| m.value);
    if let (Some(select), Some(split), Some(transcode)) = (
        get(sheet, "staging.select_ms"),
        get(sheet, "dataset.split_ms"),
        get(sheet, "dataset.transcode_ms"),
    ) {
        // Not floored at 0: the probes split and transcode serially, and
        // where `select` overlaps the two this comes out negative, which
        // says more than a constant 0 would.
        sheet.single("staging.deliver_ms", "ms", select - split - transcode);
    }
    if let (Some(recover), Some(decode), Some(replay)) = (
        get(sheet, "probe.recover_ms"),
        get(sheet, "journal.decode_ms"),
        get(sheet, "journal.replay_ms"),
    ) {
        sheet.single(
            "journal.restage_ms",
            "ms",
            (recover - decode - replay).max(0.0),
        );
    }
}

fn write_trace(req: &Request<'_>, ctx: &Ctx, spans: Vec<Span>) -> Result<(), String> {
    let path = target_dir().join(format!("trace-{}.json", req.workload));
    let file = TraceFile {
        workload: req.workload.to_string(),
        seed: req.seed,
        events: ctx.events,
        engines: ctx.engines,
        provenance: crate::report::Provenance::collect(),
        spans,
    };
    let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
