//! Per-layer probes of the traced run: direct timed calls into each
//! layer's public functions on the workload's own inputs, after the loop,
//! under a `probe` root span. Every probe runs the same way on every
//! workload, so a probed name means one method. Nothing here feeds an
//! end-to-end metric.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ipa_aida::{Mergeable, Tree};
use ipa_client::RemoteSession;
use ipa_core::{decode_events, replay, IpaConfig, WsGateway};
use ipa_dataset::{split_records, ColumnBatch, Dataset, DatasetId};

use crate::rig::{self, drive_run, Client, ReadPolicy, Site, BASELINE, MAIN};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::journaled_cycle;

/// Each function probe is timed this many times; the median is reported.
const REPEATS: usize = 5;
/// Polls a gateway latency figure needs at least (the p99 then has ten
/// samples beyond it).
const RUN_POLLS: usize = 1100;
const IDLE_POLLS: usize = 300;
/// Journaled cold cycles of the journal probe.
const JOURNAL_CYCLES: usize = 3;
/// Runs per session of the scaling probe.
const SCALING_RUNS: usize = 5;

/// Name, unit and value of each probed metric.
pub type Readings = Vec<(&'static str, &'static str, f64)>;

pub struct Inputs<'a> {
    pub dataset: &'a Dataset,
    pub engines: usize,
    /// The script the workload runs.
    pub script: String,
    /// The final merged tree of the workload's last iteration.
    pub tree: Arc<Tree>,
    pub site: Site,
    pub scratch: &'a Path,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median over `REPEATS` timings of `f`, and its last result.
fn repeat<T>(tr: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let (value, took) = tr.timed(name, &mut f);
        times.push(took.as_secs_f64());
        last = Some(std::hint::black_box(value));
    }
    let med = median(&times).expect("REPEATS is not zero");
    (
        last.expect("REPEATS is not zero"),
        Duration::from_secs_f64(med),
    )
}

pub fn run(inputs: Inputs<'_>, tr: &mut Tracer) -> Result<Readings, String> {
    let mut out = Readings::new();
    let root = tr.begin("probe");
    let result = (|| {
        dataset_layer(&inputs, tr, &mut out)?;
        script_layer(tr, &mut out)?;
        aida_layer(&inputs, tr, &mut out)?;
        gateway_layer(&inputs, tr, &mut out)?;
        journal_layer(&inputs, tr, &mut out)?;
        scaling(&inputs, tr, &mut out)?;
        Ok(())
    })();
    tr.end(root);
    result.map(|()| out)
}

fn dataset_layer(inputs: &Inputs<'_>, tr: &mut Tracer, out: &mut Readings) -> Result<(), String> {
    let records = &inputs.dataset.records;
    let (split, took) = repeat(tr, "dataset.split", || {
        split_records(records, inputs.engines)
    });
    let (parts, _plan) = split.map_err(|e| e.to_string())?;
    out.push(("dataset.split_ms", "ms", ms(took)));

    let (batches, took) = repeat(tr, "dataset.transcode", || {
        parts
            .iter()
            .map(|part| ColumnBatch::from_records(part))
            .collect::<Vec<_>>()
    });
    if batches.iter().any(Option::is_none) {
        return Err("a part did not transcode to columns".into());
    }
    out.push(("dataset.transcode_ms", "ms", ms(took)));
    out.push((
        "dataset.transcode_records_per_s",
        "rec/s",
        records.len() as f64 / took.as_secs_f64(),
    ));
    Ok(())
}

fn script_layer(tr: &mut Tracer, out: &mut Readings) -> Result<(), String> {
    let sources = [rig::kernel_script(), rig::vm_script(0)];
    let (compiled, took) = repeat(tr, "script.compile", || {
        sources
            .iter()
            .map(|src| ipa_script::compile(src).map(drop))
            .collect::<Result<Vec<()>, _>>()
    });
    compiled.map_err(|e| e.to_string())?;
    out.push(("script.compile_us", "us", us(took) / sources.len() as f64));
    Ok(())
}

fn aida_layer(inputs: &Inputs<'_>, tr: &mut Tracer, out: &mut Readings) -> Result<(), String> {
    let tree = &*inputs.tree;
    let (merged, took) = repeat(tr, "aida.merge", || {
        let mut acc = Tree::new();
        (0..inputs.engines)
            .try_for_each(|_| acc.merge(tree))
            .map(|()| acc)
    });
    merged.map_err(|e| e.to_string())?;
    out.push(("aida.merge_us", "us", us(took)));

    let (encoded, took) = repeat(tr, "aida.encode", || serde_json::to_vec(tree));
    let encoded = encoded.map_err(|e| e.to_string())?;
    out.push(("aida.encode_us", "us", us(took)));
    out.push(("aida.tree_json_bytes", "bytes", encoded.len() as f64));

    let (decoded, took) = repeat(tr, "aida.decode", || {
        serde_json::from_slice::<Tree>(&encoded)
    });
    let decoded = decoded.map_err(|e| e.to_string())?;
    // Within rounding: the published `serde_json` reads a 17-digit float
    // to within one unit in the last place unless built for exact round
    // trips.
    rig::same_tree_within_rounding("the tree and its JSON round trip", tree, &decoded)?;
    out.push(("aida.decode_us", "us", us(took)));
    Ok(())
}

/// Requests the gateway probe sent, and how many came back as errors.
#[derive(Default)]
struct Calls {
    requests: u64,
    errors: u64,
}

impl Calls {
    fn count<T>(&mut self, result: Result<T, String>) -> Result<T, String> {
        self.requests += 1;
        self.errors += u64::from(result.is_err());
        result
    }
}

/// A remote session of the workload's script through a gateway on the
/// workload's site: poll round trips during runs, then on the finished
/// session, then `results` answered "unchanged".
fn gateway_layer(inputs: &Inputs<'_>, tr: &mut Tracer, out: &mut Readings) -> Result<(), String> {
    let mut gateway = WsGateway::serve(Arc::clone(&inputs.site.manager), ("127.0.0.1", 0))
        .map_err(|e| format!("gateway: {e}"))?;
    let mut calls = Calls::default();

    let span = tr.begin("gateway.session");
    let outcome = (|| {
        let mut remote = calls.count(RemoteSession::create(
            gateway.addr(),
            inputs.site.proxy.clone(),
            0.0,
            inputs.engines,
        ))?;
        calls.count(remote.select_dataset(rig::DATASET_ID))?;
        calls.count(remote.load_script(&inputs.script))?;

        let mut run_rtts = Vec::new();
        // A kernel-path run ends within a few polls, so it takes hundreds
        // of runs to collect the polls; the cap only stops a run that
        // yields none at all.
        for _ in 0..RUN_POLLS {
            if run_rtts.len() >= RUN_POLLS {
                break;
            }
            calls.count(Client::rewind(&mut remote))?;
            let run = calls.count(drive_run(&mut remote, ReadPolicy::EveryChange, &MAIN, tr))?;
            // Besides `run`: the polls and the `results` calls.
            calls.requests +=
                (run.poll_rtts.len() + run.fetches.len() + run.unchanged.len()) as u64;
            run_rtts.extend(run.poll_rtts.iter().map(|d| us(*d)));
        }
        if run_rtts.len() < RUN_POLLS {
            return Err(format!(
                "only {} polls were answered during runs",
                run_rtts.len()
            ));
        }

        let mut idle = Vec::with_capacity(IDLE_POLLS);
        let mut unchanged = Vec::with_capacity(IDLE_POLLS);
        for _ in 0..IDLE_POLLS {
            let (status, took) = tr.timed("gateway.idle_poll", || remote.poll());
            calls.count(status)?;
            idle.push(us(took));
        }
        let held = calls.count(remote.results())?;
        for _ in 0..IDLE_POLLS {
            let (tree, took) = tr.timed("gateway.unchanged", || remote.results());
            if !Arc::ptr_eq(&calls.count(tree)?, &held) {
                return Err("an idle session served a new tree".to_string());
            }
            unchanged.push(us(took));
        }
        calls.count(remote.close())?;
        Ok((run_rtts, idle, unchanged))
    })();
    tr.end(span);
    gateway.shutdown();
    let (run_rtts, idle, unchanged) = outcome?;

    out.push((
        "gateway.rtt_run_us_p99",
        "us",
        percentile(&run_rtts, 99.0).expect("at least RUN_POLLS samples"),
    ));
    out.push((
        "gateway.rtt_idle_us_p50",
        "us",
        median(&idle).expect("IDLE_POLLS samples"),
    ));
    out.push((
        "gateway.unchanged_rtt_us_p50",
        "us",
        median(&unchanged).expect("IDLE_POLLS samples"),
    ));
    out.push(("gateway.requests", "count", calls.requests as f64));
    out.push(("gateway.errors", "count", calls.errors as f64));
    Ok(())
}

/// `journal_recover`'s cycle on the workload's dataset and script, then
/// decode and replay of the journal the last of those runs wrote.
fn journal_layer(inputs: &Inputs<'_>, tr: &mut Tracer, out: &mut Readings) -> Result<(), String> {
    let mut recover_ms = Vec::with_capacity(JOURNAL_CYCLES);
    let mut journal = None;
    for i in 0..JOURNAL_CYCLES {
        let dir = inputs.scratch.join(format!("probe-journal-{i}"));
        let (sample, bytes) = journaled_cycle(
            inputs.dataset,
            inputs.engines,
            &inputs.script,
            &dir,
            true,
            tr,
        )?;
        recover_ms.push(ms(sample.recover.expect("a journaled cycle recovers")));
        journal = bytes;
    }
    out.push((
        "probe.recover_ms",
        "ms",
        median(&recover_ms).expect("JOURNAL_CYCLES is not zero"),
    ));
    let journal = journal.expect("the probe keeps the journal");
    out.push(("journal.bytes", "bytes", journal.len() as f64));
    out.push((
        "journal.bytes_per_record",
        "bytes/rec",
        journal.len() as f64 / inputs.dataset.records.len() as f64,
    ));

    let (events, decode) = repeat(tr, "journal.decode", || decode_events(&journal));
    if events.is_empty() {
        return Err("the journal decoded to no events".into());
    }
    out.push(("journal.decode_ms", "ms", ms(decode)));

    // `replay` takes the merge shape the live plane was built with.
    let config = IpaConfig::default();
    let (state, took) = repeat(tr, "journal.replay", || {
        replay(&events, config.merge_fan_in, config.merge_parallelism)
    });
    if state.engines != inputs.engines {
        return Err(format!(
            "replayed a session of {} engines, expected {}",
            state.engines, inputs.engines
        ));
    }
    out.push(("journal.replay_ms", "ms", ms(took)));
    Ok(())
}

/// Records per second on a warm 1-engine and a warm `E`-engine session of
/// the workload's script.
fn scaling(inputs: &Inputs<'_>, tr: &mut Tracer, out: &mut Readings) -> Result<(), String> {
    let id = DatasetId::new(rig::DATASET_ID);
    let records = inputs.dataset.records.len() as f64;
    let rate = |engines: usize, names: &rig::SpanNames, tr: &mut Tracer| {
        let mut session = inputs.site.create_session(engines)?;
        session.select_dataset(&id).map_err(|e| e.to_string())?;
        session.load_script(&inputs.script)?;
        let mut wall = 0.0;
        for _ in 0..SCALING_RUNS {
            Client::rewind(&mut session)?;
            wall += drive_run(&mut session, ReadPolicy::FirstAndFinal, names, tr)?
                .run_wall
                .as_secs_f64();
        }
        session.close();
        Ok::<_, String>(records * SCALING_RUNS as f64 / wall)
    };
    let span = tr.begin("scaling");
    let rates =
        rate(1, &BASELINE, tr).and_then(|base| Ok((base, rate(inputs.engines, &MAIN, tr)?)));
    tr.end(span);
    let (base, main) = rates?;
    out.push(("probe.records_per_s_1e", "rec/s", base));
    out.push((
        "probe.scaling_efficiency",
        "ratio",
        main / (inputs.engines as f64 * base),
    ));
    Ok(())
}
