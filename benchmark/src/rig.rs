//! What every workload shares: the site, the scripts, the client loop and
//! the correctness gate.
//!
//! Only the public API a user has is named here, and only the part of it
//! the allow-list in README.md permits (`tests/allowlist.rs` checks).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipa_aida::Tree;
use ipa_catalog::{MetaValue, Metadata};
use ipa_client::RemoteSession;
use ipa_core::{AnalysisCode, IpaConfig, ManagerNode, RunState, Session, SessionStatus};
use ipa_dataset::{generate_dataset, Dataset, DatasetId, EventGeneratorConfig, GeneratorConfig};
use ipa_simgrid::{GridProxy, SecurityDomain, VoPolicy};

use crate::trace::Tracer;

pub const DATASET_ID: &str = "bench-events";
const SEARCH_QUERY: &str = "experiment == ilc";

/// The client sleeps this long between polls, as `Session::wait_finished`
/// does. Dispatch and merge happen inside `poll()`, so the cadence is part
/// of the system under test.
const POLL_SLEEP: Duration = Duration::from_millis(1);

/// A run that has not finished after this long is a failed operation.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

/// Number of `vm_script` variants (the edit-reload loop's edits).
pub const VM_VARIANTS: usize = 7;

/// Reference-tree key of the kernel script; `vm_script` variants use their
/// variant number.
pub const KERNEL_KEY: usize = usize::MAX;

/// Engines per session: one per core, at least 2 and at most 4.
pub fn engines() -> usize {
    std::thread::available_parallelism()
        .map_or(2, usize::from)
        .clamp(2, 4)
}

/// Remove every `IPA_*` variable so that `IpaConfig::default()` is the
/// shipped default whatever shell the benchmark is started from. Call
/// before any thread is spawned.
pub fn scrub_environment() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("IPA_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// The straight-line guarded-fill Higgs body (the one `LiveRig` in
/// `crates/bench` uses): eligible for the column-batch kernel.
pub fn kernel_script() -> String {
    r#"
    fn init() {
        h1("/higgs/bb_mass", 60, 0.0, 240.0);
        h1("/higgs/n_btags", 8, 0.0, 8.0);
    }
    fn process(e) {
        fill("/higgs/n_btags", e.n_btags);
        let m = e.bb_mass;
        if m != null { fill("/higgs/bb_mass", m); }
    }
    "#
    .to_string()
}

/// The same plots plus a cut flow: user functions called from a 4-step
/// `for` loop over a global cut array. The loop and the calls keep it out
/// of the batch kernel, so every record runs through the VM. Variants
/// differ in the last cut only.
///
/// `balanced` is there for its weight. An engine publishes first after
/// 1000 records, and with `passes` alone that took as long as two poll
/// periods: the client saw its first result at the second or at the third
/// poll after `run()` as the box's speed wandered a few percent, and the
/// median over a run flipped between 2.2 and 3.3 ms. With `balanced` the
/// first publish falls about half way between two polls.
pub fn vm_script(variant: usize) -> String {
    let last_cut = 160.0 + 10.0 * (variant % VM_VARIANTS) as f64;
    format!(
        r#"
    let cuts = [40.0, 80.0, 120.0, {last_cut:.1}];
    fn passes(x, cut) {{ return x > cut; }}
    fn balanced(energy, missing) {{ return missing < 0.5 * energy; }}
    fn init() {{
        h1("/higgs/bb_mass", 60, 0.0, 240.0);
        h1("/higgs/n_btags", 8, 0.0, 8.0);
        h1("/higgs/cut_flow", 4, 0.0, 4.0);
    }}
    fn process(e) {{
        fill("/higgs/n_btags", e.n_btags);
        let m = e.bb_mass;
        if m != null {{ fill("/higgs/bb_mass", m); }}
        let energy = e.visible_energy;
        let missing = e.missing_pt;
        for i in 0..4 {{
            if passes(energy, cuts[i]) && balanced(energy, missing) {{
                fill("/higgs/cut_flow", i);
            }}
        }}
    }}
    "#
    )
}

/// The one generated input of a run: the program only ever sees these
/// records.
pub fn generate(events: u64, seed: u64) -> Dataset {
    generate_dataset(
        DATASET_ID,
        "Benchmark collider events",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events,
            seed,
            ..Default::default()
        }),
    )
}

/// A manager node with the dataset published, and a credential for it.
#[derive(Clone)]
pub struct Site {
    pub manager: Arc<ManagerNode>,
    pub proxy: GridProxy,
}

impl Site {
    pub fn new(config: IpaConfig, dataset: Dataset) -> Result<Site, String> {
        let security = SecurityDomain::new("bench-site", 1).with_policy(VoPolicy::new("ilc", 64));
        let proxy = security.issue_proxy("/CN=bench", "ilc", 0.0, 1e6);
        let manager = Arc::new(ManagerNode::new("bench-site", security, config));
        let mut meta = Metadata::new();
        meta.insert("experiment".into(), MetaValue::Str("ilc".into()));
        manager
            .publish_dataset("/bench", dataset, meta)
            .map_err(|e| e.to_string())?;
        Ok(Site { manager, proxy })
    }

    /// Find the dataset the way a user does, through the catalog.
    pub fn search(&self) -> Result<DatasetId, String> {
        let hits = self
            .manager
            .search(SEARCH_QUERY)
            .map_err(|e| e.to_string())?;
        match hits.as_slice() {
            [hit] => Ok(hit.descriptor.id.clone()),
            other => Err(format!("search found {} datasets, expected 1", other.len())),
        }
    }

    pub fn create_session(&self, engines: usize) -> Result<Session, String> {
        let session = self
            .manager
            .create_session(&self.proxy, 0.0, engines)
            .map_err(|e| e.to_string())?;
        if session.engines() != engines {
            return Err(format!(
                "asked for {engines} engines, granted {}",
                session.engines()
            ));
        }
        Ok(session)
    }
}

/// The part of a status snapshot the harness reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub finished: bool,
    pub records_processed: u64,
    pub records_total: u64,
    pub parts_done: usize,
    pub parts_total: usize,
}

impl From<SessionStatus> for Status {
    fn from(st: SessionStatus) -> Status {
        Status {
            finished: st.state == RunState::Finished,
            records_processed: st.records_processed,
            records_total: st.records_total,
            parts_done: st.parts_done,
            parts_total: st.parts_total,
        }
    }
}

/// The verbs of a run, in process or over the wire.
pub trait Client {
    fn load_script(&mut self, source: &str) -> Result<(), String>;
    fn rewind(&mut self) -> Result<(), String>;
    fn run(&mut self) -> Result<(), String>;
    fn poll(&mut self) -> Result<Status, String>;
    fn results(&mut self) -> Result<Arc<Tree>, String>;
}

impl Client for Session {
    fn load_script(&mut self, source: &str) -> Result<(), String> {
        self.load_code(AnalysisCode::Script(source.to_string()))
            .map_err(|e| e.to_string())
    }

    fn rewind(&mut self) -> Result<(), String> {
        Session::rewind(self).map_err(|e| e.to_string())
    }

    fn run(&mut self) -> Result<(), String> {
        Session::run(self).map_err(|e| e.to_string())
    }

    fn poll(&mut self) -> Result<Status, String> {
        Session::poll(self)
            .map(Status::from)
            .map_err(|e| e.to_string())
    }

    fn results(&mut self) -> Result<Arc<Tree>, String> {
        Session::results(self).map_err(|e| e.to_string())
    }
}

impl Client for RemoteSession {
    fn load_script(&mut self, source: &str) -> Result<(), String> {
        RemoteSession::load_script(self, source)
    }

    fn rewind(&mut self) -> Result<(), String> {
        RemoteSession::rewind(self)
    }

    fn run(&mut self) -> Result<(), String> {
        RemoteSession::run(self)
    }

    fn poll(&mut self) -> Result<Status, String> {
        RemoteSession::poll(self).map(Status::from)
    }

    fn results(&mut self) -> Result<Arc<Tree>, String> {
        RemoteSession::results(self)
    }
}

/// When the client reads the merged tree during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Once at the first poll that shows progress and once at `Finished`.
    FirstAndFinal,
    /// Whenever `records_processed` changed (the live-histogram client).
    EveryChange,
}

/// Span names of one session's run; the 1-engine baseline has its own set
/// so that per-layer metrics of the main session do not mix with it.
pub struct SpanNames {
    pub load_code: &'static str,
    run_call: &'static str,
    wait: &'static str,
    poll: &'static str,
    results_new: &'static str,
    results_same: &'static str,
}

pub const MAIN: SpanNames = SpanNames {
    load_code: "load_code",
    run_call: "run_call",
    wait: "wait",
    poll: "poll",
    results_new: "results_new",
    results_same: "results_same",
};

pub const BASELINE: SpanNames = SpanNames {
    load_code: "1e.load_code",
    run_call: "1e.run_call",
    wait: "1e.wait",
    poll: "1e.poll",
    results_new: "1e.results_new",
    results_same: "1e.results_same",
};

/// What one run measured.
pub struct RunSample {
    /// Just before `run()`.
    pub started: Instant,
    /// Just before `run()` until the poll that reported `Finished` returned.
    pub run_wall: Duration,
    /// Just before `run()` until a tree with entries was in hand.
    pub first_result: Duration,
    /// Every poll from `run()` to the one that reported `Finished`.
    pub poll_rtts: Vec<Duration>,
    /// `results` calls that returned a tree the client did not hold yet.
    pub fetches: Vec<Duration>,
    /// `results` calls answered with the tree the client already held.
    pub unchanged: Vec<Duration>,
    pub status: Status,
    pub tree: Arc<Tree>,
}

/// The client's copy of the merged tree during one run.
struct Reader<'a> {
    names: &'a SpanNames,
    started: Instant,
    held: Option<Arc<Tree>>,
    first_result: Option<Duration>,
    fetches: Vec<Duration>,
    unchanged: Vec<Duration>,
}

impl Reader<'_> {
    fn fetch(&mut self, client: &mut dyn Client, tr: &mut Tracer) -> Result<(), String> {
        let (tree, took) = tr.timed(self.names.results_same, || client.results());
        let tree = tree?;
        if self.held.as_ref().is_some_and(|h| Arc::ptr_eq(h, &tree)) {
            self.unchanged.push(took);
        } else {
            tr.rename_last(self.names.results_new);
            self.fetches.push(took);
        }
        if self.first_result.is_none() && tree.total_entries() > 0 {
            self.first_result = Some(self.started.elapsed());
        }
        self.held = Some(tree);
        Ok(())
    }
}

/// Start a run and poll it to `Finished`, reading results per `policy`,
/// then read the final tree.
pub fn drive_run(
    client: &mut dyn Client,
    policy: ReadPolicy,
    names: &SpanNames,
    tr: &mut Tracer,
) -> Result<RunSample, String> {
    let mut poll_rtts = Vec::new();
    let mut last_seen = 0;
    let mut reader = Reader {
        names,
        started: Instant::now(),
        held: None,
        first_result: None,
        fetches: Vec::new(),
        unchanged: Vec::new(),
    };

    tr.timed(names.run_call, || client.run()).0?;
    let wait = tr.begin(names.wait);
    let polled = loop {
        let (status, rtt) = tr.timed(names.poll, || client.poll());
        let status = match status {
            Ok(status) => status,
            Err(e) => break Err(e),
        };
        poll_rtts.push(rtt);
        if status.finished {
            break Ok(status);
        }
        let read = match policy {
            ReadPolicy::FirstAndFinal => {
                reader.first_result.is_none() && status.records_processed > 0
            }
            ReadPolicy::EveryChange => status.records_processed != last_seen,
        };
        last_seen = status.records_processed;
        if read {
            if let Err(e) = reader.fetch(client, tr) {
                break Err(e);
            }
        }
        if reader.started.elapsed() > RUN_TIMEOUT {
            break Err(format!(
                "run timed out after {RUN_TIMEOUT:?} at {} of {} records",
                status.records_processed, status.records_total
            ));
        }
        std::thread::sleep(POLL_SLEEP);
    };
    let run_wall = reader.started.elapsed();
    tr.end(wait);
    let status = polled?;
    reader.fetch(client, tr)?;

    Ok(RunSample {
        started: reader.started,
        run_wall,
        first_result: reader
            .first_result
            .ok_or("the finished run produced an empty tree")?,
        poll_rtts,
        fetches: reader.fetches,
        unchanged: reader.unchanged,
        status,
        tree: reader.held.expect("fetch stores the tree"),
    })
}

/// The correctness gate every iteration passes through.
pub struct Gate {
    events: u64,
    /// Debug rendering of the first tree seen per script; later runs of
    /// the same script over the same dataset must reproduce it exactly.
    references: BTreeMap<usize, String>,
}

impl Gate {
    pub fn new(events: u64) -> Gate {
        Gate {
            events,
            references: BTreeMap::new(),
        }
    }

    pub fn check(&mut self, script: usize, status: &Status, tree: &Tree) -> Result<(), String> {
        if status.records_processed != self.events || status.records_total != self.events {
            return Err(format!(
                "processed {} of {} records, dataset has {}",
                status.records_processed, status.records_total, self.events
            ));
        }
        let filled = tree
            .get("/higgs/n_btags")
            .map_err(|e| e.to_string())?
            .entries();
        if filled != self.events {
            return Err(format!(
                "n_btags holds {filled} entries for {} records",
                self.events
            ));
        }
        let rendered = format!("{tree:?}");
        let reference = self
            .references
            .entry(script)
            .or_insert_with(|| rendered.clone());
        if *reference != rendered {
            return Err("merged tree differs from the first run of the same script".into());
        }
        Ok(())
    }
}

/// Two trees that must be the same, bin for bin.
pub fn same_tree(what: &str, a: &Tree, b: &Tree) -> Result<(), String> {
    if format!("{a:?}") == format!("{b:?}") {
        Ok(())
    } else {
        Err(format!("{what} differ"))
    }
}

/// Two trees of the same records split differently: every count must be
/// equal, every floating-point sum equal to within the rounding that a
/// different order of addition causes (1e-9 of its size).
pub fn same_tree_within_rounding(what: &str, a: &Tree, b: &Tree) -> Result<(), String> {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    let words = |s: &'_ str| -> Vec<String> {
        s.split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '+' | '_')))
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect()
    };
    let (a, b) = (words(&a), words(&b));
    let close = |x: &str, y: &str| match (x.parse::<f64>(), y.parse::<f64>()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => false,
    };
    if a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x == y || close(x, y)) {
        Ok(())
    } else {
        Err(format!("{what} differ by more than rounding"))
    }
}
