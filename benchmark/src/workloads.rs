//! The four workloads. Each is a closed loop of one client thread against
//! sessions of `E` engines under the shipped default `IpaConfig`; what one
//! iteration does, and why the workload exists, is in README.md.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipa_client::RemoteSession;
use ipa_core::{IpaConfig, Session, WsGateway};
use ipa_dataset::{Dataset, DatasetId};

use crate::rig::{
    self, drive_run, Client, Gate, ReadPolicy, RunSample, Site, BASELINE, KERNEL_KEY, MAIN,
    VM_VARIANTS,
};
use crate::trace::Tracer;

/// Iterations run, and checked, before the timed ones.
pub const WARMUP_ITERATIONS: usize = 3;

/// Name and frozen input size of a workload. Sizes were calibrated once
/// on the 2-core reference box (README.md, "Calibration record") so that
/// 20 s of timed phase holds at least 40 iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub events: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "cold_session",
        events: 300_000,
    },
    Spec {
        name: "rerun_vm",
        events: 80_000,
    },
    Spec {
        name: "remote_live",
        events: 100_000,
    },
    Spec {
        name: "journal_recover",
        events: 200_000,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Inputs of one run of a workload.
pub struct Ctx {
    pub events: u64,
    pub seed: u64,
    pub engines: usize,
    /// Directory under `benchmark/target/` for this process's journals.
    pub scratch: PathBuf,
}

/// What one timed iteration measured. `None` where the workload has no
/// such step.
pub struct IterSample {
    /// The user-visible cycle as README.md defines it per workload.
    pub cycle: Duration,
    /// From the first step of the `E`-engine session's part of the cycle
    /// until the client held a tree with entries.
    pub first_result: Duration,
    /// The run on the `E`-engine session.
    pub run: RunSample,
    /// The cold `select_dataset` call.
    pub select: Option<Duration>,
    /// Run wall time on the 1-engine session.
    pub baseline_run_wall: Option<Duration>,
    /// `recover_session` until the recovered tree is in hand.
    pub recover: Option<Duration>,
}

impl IterSample {
    /// A sample of a workload that has none of the optional steps.
    fn new(cycle: Duration, first_result: Duration, run: RunSample) -> IterSample {
        IterSample {
            cycle,
            first_result,
            run,
            select: None,
            baseline_run_wall: None,
            recover: None,
        }
    }
}

pub trait Workload {
    /// Run iteration `index` (warm-ups count from 0, timed ones follow).
    fn iteration(&mut self, index: usize, tr: &mut Tracer) -> Result<IterSample, String>;

    /// Close what set-up opened.
    fn teardown(self: Box<Self>, tr: &mut Tracer);

    fn dataset(&self) -> &Dataset;

    /// The script the workload runs (variant 0 where it has variants).
    fn script(&self) -> String;

    /// A site the probes may open sessions on.
    fn probe_site(&self) -> Result<Site, String>;
}

/// Build a workload and run its warm-up iterations. Everything here is
/// set-up time.
pub fn setup(name: &str, ctx: &Ctx, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let (dataset, _) = tr.timed("dataset.generate", || rig::generate(ctx.events, ctx.seed));
    let gate = Gate::new(ctx.events);
    let mut workload: Box<dyn Workload> = match name {
        "cold_session" => Box::new(ColdSession {
            dataset,
            engines: ctx.engines,
            gate,
        }),
        "rerun_vm" => Box::new(RerunVm::new(dataset, ctx.engines, gate, tr)?),
        "remote_live" => Box::new(RemoteLive::new(dataset, ctx.engines, gate, tr)?),
        "journal_recover" => Box::new(JournalRecover {
            dataset,
            engines: ctx.engines,
            scratch: ctx.scratch.clone(),
            gate,
        }),
        other => return Err(format!("unknown workload `{other}`")),
    };
    for index in 0..WARMUP_ITERATIONS {
        workload.iteration(index, tr)?;
    }
    Ok(workload)
}

/// The run's own first-result time plus what came before the run.
fn first_result_since(started: Instant, run: &RunSample) -> Duration {
    run.started.duration_since(started) + run.first_result
}

/// create → select → load on a fresh session; the cold staging path.
fn open_cold(
    site: &Site,
    id: &DatasetId,
    engines: usize,
    script: &str,
    tr: &mut Tracer,
) -> Result<(Session, Duration), String> {
    let mut session = tr.timed("create", || site.create_session(engines)).0?;
    let (selected, select) = tr.timed("select", || {
        session.select_dataset(id).map_err(|e| e.to_string())
    });
    selected?;
    tr.timed(MAIN.load_code, || session.load_script(script)).0?;
    Ok((session, select))
}

/// First session of the day: a fresh manager per iteration keeps the run
/// cold even if a later change shares the split cache across sessions.
struct ColdSession {
    dataset: Dataset,
    engines: usize,
    gate: Gate,
}

impl Workload for ColdSession {
    fn iteration(&mut self, _index: usize, tr: &mut Tracer) -> Result<IterSample, String> {
        let site = Site::new(IpaConfig::default(), self.dataset.clone())?;
        let script = rig::kernel_script();

        let started = Instant::now();
        let cycle = tr.begin("cycle");
        let outcome = (|| {
            let id = tr.timed("search", || site.search()).0?;
            let (mut session, select) = open_cold(&site, &id, self.engines, &script, tr)?;
            let run = drive_run(&mut session, ReadPolicy::FirstAndFinal, &MAIN, tr)?;
            tr.timed("close", || session.close());
            Ok::<_, String>((run, select))
        })();
        let cycle = tr.end(cycle);
        let (run, select) = outcome?;

        self.gate.check(KERNEL_KEY, &run.status, &run.tree)?;
        Ok(IterSample {
            select: Some(select),
            ..IterSample::new(cycle, first_result_since(started, &run), run)
        })
    }

    fn teardown(self: Box<Self>, _tr: &mut Tracer) {}

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn script(&self) -> String {
        rig::kernel_script()
    }

    fn probe_site(&self) -> Result<Site, String> {
        Site::new(IpaConfig::default(), self.dataset.clone())
    }
}

/// The edit-reload-rerun loop on two warm sessions of one manager: a
/// 1-engine baseline and the `E`-engine session.
struct RerunVm {
    dataset: Dataset,
    site: Site,
    baseline: Session,
    main: Session,
    gate: Gate,
}

impl RerunVm {
    fn new(dataset: Dataset, engines: usize, gate: Gate, tr: &mut Tracer) -> Result<Self, String> {
        let site = Site::new(IpaConfig::default(), dataset.clone())?;
        let id = tr.timed("search", || site.search()).0?;
        let script = rig::vm_script(0);
        let (main, _) = open_cold(&site, &id, engines, &script, tr)?;
        // The baseline's staging is not the workload's subject; keep it
        // out of the spans that describe the main session.
        let mut baseline = site.create_session(1)?;
        baseline.select_dataset(&id).map_err(|e| e.to_string())?;
        Ok(RerunVm {
            dataset,
            site,
            baseline,
            main,
            gate,
        })
    }
}

impl Workload for RerunVm {
    fn iteration(&mut self, index: usize, tr: &mut Tracer) -> Result<IterSample, String> {
        let variant = index % VM_VARIANTS;
        let script = rig::vm_script(variant);
        let run_on = |session: &mut Session, names: &rig::SpanNames, tr: &mut Tracer| {
            let started = Instant::now();
            tr.timed(names.load_code, || session.load_script(&script))
                .0?;
            let run = drive_run(session, ReadPolicy::FirstAndFinal, names, tr)?;
            Ok::<_, String>((first_result_since(started, &run), run))
        };

        let cycle = tr.begin("cycle");
        // Alternate which session goes first so that neither always runs
        // on caches the other warmed.
        let outcome = if index.is_multiple_of(2) {
            run_on(&mut self.baseline, &BASELINE, tr)
                .and_then(|b| Ok((b, run_on(&mut self.main, &MAIN, tr)?)))
        } else {
            run_on(&mut self.main, &MAIN, tr)
                .and_then(|m| Ok((run_on(&mut self.baseline, &BASELINE, tr)?, m)))
        };
        let cycle = tr.end(cycle);
        let ((_, baseline), (first_result, run)) = outcome?;

        self.gate.check(variant, &run.status, &run.tree)?;
        rig::same_tree_within_rounding(
            "the 1-engine and the E-engine tree",
            &baseline.tree,
            &run.tree,
        )?;
        Ok(IterSample {
            baseline_run_wall: Some(baseline.run_wall),
            ..IterSample::new(cycle, first_result, run)
        })
    }

    fn teardown(mut self: Box<Self>, tr: &mut Tracer) {
        self.baseline.close();
        tr.timed("close", || self.main.close());
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn script(&self) -> String {
        rig::vm_script(0)
    }

    fn probe_site(&self) -> Result<Site, String> {
        Ok(self.site.clone())
    }
}

/// The live-histogram client: one `RemoteSession` over loopback TCP
/// through the gateway, reading the tree whenever progress changed.
struct RemoteLive {
    dataset: Dataset,
    site: Site,
    gateway: WsGateway,
    remote: RemoteSession,
    gate: Gate,
}

impl RemoteLive {
    fn new(dataset: Dataset, engines: usize, gate: Gate, tr: &mut Tracer) -> Result<Self, String> {
        let site = Site::new(IpaConfig::default(), dataset.clone())?;
        let gateway = WsGateway::serve(Arc::clone(&site.manager), ("127.0.0.1", 0))
            .map_err(|e| format!("gateway: {e}"))?;
        let id = tr.timed("search", || site.search()).0?;
        let mut remote = tr
            .timed("create", || {
                RemoteSession::create(gateway.addr(), site.proxy.clone(), 0.0, engines)
            })
            .0?;
        tr.timed("select", || remote.select_dataset(&id.to_string()))
            .0?;
        tr.timed(MAIN.load_code, || remote.load_script(&rig::vm_script(0)))
            .0?;
        Ok(RemoteLive {
            dataset,
            site,
            gateway,
            remote,
            gate,
        })
    }
}

impl Workload for RemoteLive {
    fn iteration(&mut self, _index: usize, tr: &mut Tracer) -> Result<IterSample, String> {
        let started = Instant::now();
        let cycle = tr.begin("cycle");
        let outcome = tr
            .timed("rewind", || Client::rewind(&mut self.remote))
            .0
            .and_then(|()| drive_run(&mut self.remote, ReadPolicy::EveryChange, &MAIN, tr));
        let cycle = tr.end(cycle);
        let run = outcome?;

        self.gate.check(0, &run.status, &run.tree)?;
        Ok(IterSample::new(
            cycle,
            first_result_since(started, &run),
            run,
        ))
    }

    fn teardown(self: Box<Self>, tr: &mut Tracer) {
        let RemoteLive {
            remote,
            mut gateway,
            ..
        } = *self;
        // A failed close leaves the session to the gateway's shutdown.
        let _ = tr.timed("close", || remote.close());
        gateway.shutdown();
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn script(&self) -> String {
        rig::vm_script(0)
    }

    fn probe_site(&self) -> Result<Site, String> {
        Ok(self.site.clone())
    }
}

/// The journal's write path beside its read path: the cold flow of
/// `cold_session` under `journal: true`, then a crash and a recovery from
/// the journal the run really wrote.
struct JournalRecover {
    dataset: Dataset,
    engines: usize,
    scratch: PathBuf,
    gate: Gate,
}

/// Removes an iteration's journal directory however the iteration ends.
struct JournalDir(PathBuf);

impl Drop for JournalDir {
    fn drop(&mut self) {
        // Nothing to remove if the iteration failed before the first append.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One journaled cold run, crash and recovery, the recovered tree checked
/// against the pre-crash one; the cycle ends with the run's results, the
/// crash and the recovery follow it. Shared with the journal probe, which
/// also wants the bytes the run wrote (`keep_journal`).
pub fn journaled_cycle(
    dataset: &Dataset,
    engines: usize,
    script: &str,
    dir: &Path,
    keep_journal: bool,
    tr: &mut Tracer,
) -> Result<(IterSample, Option<Vec<u8>>), String> {
    let dir = JournalDir(dir.to_path_buf());
    let journal_dir = dir.0.to_string_lossy().into_owned();
    let site = Site::new(
        IpaConfig {
            journal: true,
            journal_dir: journal_dir.clone(),
            ..Default::default()
        },
        dataset.clone(),
    )?;

    let started = Instant::now();
    let cycle = tr.begin("cycle");
    let outcome = (|| {
        let id = tr.timed("search", || site.search()).0?;
        let (mut session, select) = open_cold(&site, &id, engines, script, tr)?;
        let run = drive_run(&mut session, ReadPolicy::FirstAndFinal, &MAIN, tr)?;
        Ok::<_, String>((session, run, select))
    })();
    let cycle = tr.end(cycle);
    let (session, run, select) = outcome?;

    let session_id = session.id();
    // The crash, as crates/core/tests/journal.rs stages it: the session
    // goes away without a word to the journal.
    tr.timed("crash", || drop(session));
    // Recovery rewrites the journal, so the bytes the run wrote are read now.
    let journal = keep_journal
        .then(|| tr.timed("journal_read", || read_only_file(&dir.0)).0)
        .transpose()?;
    let recover = tr.begin("recover");
    let recovered = site
        .manager
        .recover_session(session_id)
        .map_err(|e| e.to_string())
        .and_then(|mut session| {
            let tree = session.results().map_err(|e| e.to_string());
            Ok((session, tree?))
        });
    let recover = tr.end(recover);
    let (mut session, recovered_tree) = recovered?;
    tr.timed("close", || session.close());

    rig::same_tree(
        "the recovered and the pre-crash tree",
        &recovered_tree,
        &run.tree,
    )?;
    let sample = IterSample {
        select: Some(select),
        recover: Some(recover),
        ..IterSample::new(cycle, first_result_since(started, &run), run)
    };
    Ok((sample, journal))
}

/// The one file of a directory (a session's journal directory holds one
/// journal).
fn read_only_file(dir: &Path) -> Result<Vec<u8>, String> {
    let mut entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match (entries.next(), entries.next()) {
        (Some(Ok(entry)), None) => {
            std::fs::read(entry.path()).map_err(|e| format!("{}: {e}", entry.path().display()))
        }
        _ => Err(format!("{} does not hold exactly one file", dir.display())),
    }
}

impl Workload for JournalRecover {
    fn iteration(&mut self, index: usize, tr: &mut Tracer) -> Result<IterSample, String> {
        let dir = self.scratch.join(format!("journal-{index}"));
        let script = rig::kernel_script();
        let (sample, _) = journaled_cycle(&self.dataset, self.engines, &script, &dir, false, tr)?;
        self.gate
            .check(KERNEL_KEY, &sample.run.status, &sample.run.tree)?;
        Ok(sample)
    }

    fn teardown(self: Box<Self>, _tr: &mut Tracer) {}

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn script(&self) -> String {
        rig::kernel_script()
    }

    fn probe_site(&self) -> Result<Site, String> {
        Site::new(IpaConfig::default(), self.dataset.clone())
    }
}
