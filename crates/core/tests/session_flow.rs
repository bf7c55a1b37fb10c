//! End-to-end framework tests: the paper's four user steps, the
//! interactive controls, dynamic code reload, and failure recovery —
//! run against real engines on real threads.

use std::time::Duration;

use ipa_core::{AnalysisCode, CoreError, HiggsSearchAnalyzer, IpaConfig, ManagerNode, RunState};
use ipa_dataset::{DatasetId, EventGeneratorConfig, GeneratorConfig};
use ipa_script::AidaHost;
use ipa_simgrid::{SecurityDomain, VoPolicy};

const DATASET_EVENTS: u64 = 4000;

fn setup(engines: usize) -> (ManagerNode, ipa_simgrid::GridProxy) {
    setup_with(IpaConfig {
        engines_per_session: engines,
        publish_every: 200,
        ..Default::default()
    })
}

fn setup_with(config: IpaConfig) -> (ManagerNode, ipa_simgrid::GridProxy) {
    setup_sized(config, DATASET_EVENTS)
}

fn setup_sized(config: IpaConfig, events: u64) -> (ManagerNode, ipa_simgrid::GridProxy) {
    let sec = SecurityDomain::new("slac-osg", 99).with_policy(VoPolicy::new("ilc", 16));
    let manager = ManagerNode::new("slac.stanford.edu", sec.clone(), config);
    let ds = ipa_dataset::generate_dataset(
        "lc-higgs",
        "Simulated LC events",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events,
            ..Default::default()
        }),
    );
    manager
        .publish_dataset("/lc/simulation", ds, ipa_catalog::Metadata::new())
        .unwrap();
    let proxy = sec.issue_proxy("/CN=alice", "ilc", 0.0, 7200.0);
    (manager, proxy)
}

#[test]
fn four_steps_full_run() {
    let (manager, proxy) = setup(4);
    // Step 1: securely connect, create session.
    let mut s = manager.create_session(&proxy, 0.0, 4).unwrap();
    assert_eq!(s.engines(), 4);
    assert_eq!(s.subject(), "/CN=alice");

    // Step 2: select dataset (via catalog search, like the chooser).
    let hits = manager.search("id ~ \"lc-*\"").unwrap();
    assert_eq!(hits.len(), 1);
    s.select_dataset(&hits[0].descriptor.id).unwrap();
    assert_eq!(s.dataset().unwrap().records, DATASET_EVENTS);

    // Step 3: ship code and run.
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();

    // Step 4: poll for merged results until finished.
    let status = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(status.state, RunState::Finished);
    assert_eq!(status.records_processed, DATASET_EVENTS);
    assert_eq!(status.parts_done, status.parts_total);
    assert!((status.progress() - 1.0).abs() < 1e-12);

    let tree = s.results().unwrap();
    let mass = tree.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    assert!(mass.all_entries() > 0);
    s.close();
}

#[test]
fn parallel_result_equals_serial_reference() {
    // The core correctness property: splitting + parallel analysis +
    // merging must equal a single-threaded pass over the whole dataset.
    let (manager, proxy) = setup(8);
    let records = manager
        .locator()
        .fetch(&DatasetId::new("lc-higgs"))
        .unwrap()
        .records
        .clone();
    let mut serial_host = AidaHost::new();
    ipa_core::run_analyzer_serial(
        &mut HiggsSearchAnalyzer::default(),
        &records,
        &mut serial_host,
    )
    .unwrap();

    let mut s = manager.create_session(&proxy, 0.0, 8).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let parallel = s.results().unwrap();

    for path in ["/higgs/bb_mass", "/higgs/n_btags", "/higgs/visible_energy"] {
        let a = serial_host.tree.get(path).unwrap().as_h1().unwrap();
        let b = parallel.get(path).unwrap().as_h1().unwrap();
        assert_eq!(a.all_entries(), b.all_entries(), "{path}");
        for i in 0..a.axis().bins() {
            assert_eq!(a.bin_entries(i), b.bin_entries(i), "{path} bin {i}");
            assert!((a.bin_height(i) - b.bin_height(i)).abs() < 1e-9);
        }
        assert!((a.mean() - b.mean()).abs() < 1e-9, "{path}");
    }
    s.close();
}

#[test]
fn intermediate_results_stream_in_before_completion() {
    // Two transcode chunks per part: however fast the kernel path gets
    // through a chunk's batches, building the next chunk (milliseconds)
    // sits between two of an engine's publishes, so a 200 µs poll lands
    // inside the run. With a part of one chunk the whole part used to fit
    // between two polls now and then.
    const EVENTS: u64 = 4 * ipa_dataset::COLUMN_CHUNK as u64;
    let config = IpaConfig {
        engines_per_session: 2,
        publish_every: 200,
        ..Default::default()
    };
    let (manager, proxy) = setup_sized(config, EVENTS);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();

    // Interactivity: partial results must become visible while running.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut saw_partial = false;
    loop {
        let st = s.poll().unwrap();
        if st.records_processed > 0 && st.records_processed < EVENTS {
            saw_partial = true;
        }
        if st.state == RunState::Finished || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(saw_partial, "no intermediate results observed");
    s.close();
}

#[test]
fn pause_resume_and_run_events() {
    let (manager, proxy) = setup(2);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();

    // Run exactly 300 records per engine, then observe a stable count.
    s.run_events(300).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let st1 = s.poll().unwrap();
    assert_eq!(st1.records_processed, 600);
    std::thread::sleep(Duration::from_millis(100));
    let st2 = s.poll().unwrap();
    assert_eq!(st2.records_processed, 600, "run_events must stop exactly");

    // Pause immediately after resuming: processing halts quickly.
    s.run().unwrap();
    s.pause().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let paused_at = s.poll().unwrap().records_processed;
    std::thread::sleep(Duration::from_millis(100));
    let later = s.poll().unwrap().records_processed;
    assert_eq!(paused_at, later, "records kept flowing after pause");

    // Resume to completion.
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(st.state, RunState::Finished);
    assert_eq!(st.records_processed, DATASET_EVENTS);
    s.close();
}

#[test]
fn rewind_reprocesses_from_scratch() {
    let (manager, proxy) = setup(3);
    let mut s = manager.create_session(&proxy, 0.0, 3).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let first = s.results().unwrap();

    s.rewind().unwrap();
    let st = s.poll().unwrap();
    assert_eq!(st.records_processed, 0);
    assert_eq!(st.state, RunState::Idle);

    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let second = s.results().unwrap();
    // Re-running identical code over the same dataset gives identical
    // results — no leakage from the first pass.
    assert_eq!(first, second);
    s.close();
}

#[test]
fn dynamic_code_reload_changes_results() {
    let (manager, proxy) = setup(2);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();

    let v1 = r#"
        fn init() { h1("/cut/mass", 24, 0.0, 240.0); }
        fn process(e) {
            let m = e.bb_mass;
            if m != null { fill("/cut/mass", m); }
        }
    "#;
    s.load_code(AnalysisCode::Script(v1.into())).unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(120)).unwrap();
    let loose = s.results().unwrap();
    let loose_entries = loose.get("/cut/mass").unwrap().entries();
    assert!(loose_entries > 0);

    // "After every iteration of the analysis, changes can be made in the
    // analysis code and the new analysis code can be dynamically reloaded
    // and used to reprocess the same dataset." (§3.6)
    let v2 = r#"
        fn init() { h1("/cut/mass", 24, 0.0, 240.0); }
        fn process(e) {
            let m = e.bb_mass;
            if m != null && m > 100 && m < 140 && e.n_btags >= 2 {
                fill("/cut/mass", m);
            }
        }
    "#;
    s.load_code(AnalysisCode::Script(v2.into())).unwrap();
    s.rewind().unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(120)).unwrap();
    let tight = s.results().unwrap();
    let tight_entries = tight.get("/cut/mass").unwrap().entries();
    assert!(
        tight_entries < loose_entries,
        "tighter cuts must select fewer events ({tight_entries} vs {loose_entries})"
    );
    s.close();
}

#[test]
fn engine_failure_recovers_without_double_counting() {
    let (manager, proxy) = setup(4);
    let mut s = manager.create_session(&proxy, 0.0, 4).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    // Kill engine 1 partway into its part.
    s.inject_failure(1, 137);
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(120)).unwrap();
    assert_eq!(st.state, RunState::Finished);
    assert_eq!(st.engines_alive, 3);
    assert_eq!(
        st.parts_done, st.parts_total,
        "failed part must be re-run elsewhere"
    );
    assert_eq!(
        st.records_processed, DATASET_EVENTS,
        "every record processed exactly once"
    );
    assert_eq!(s.failures().len(), 1);

    // Compare against serial reference to prove exactness post-recovery.
    let records = manager
        .locator()
        .fetch(&DatasetId::new("lc-higgs"))
        .unwrap()
        .records
        .clone();
    let mut serial_host = AidaHost::new();
    ipa_core::run_analyzer_serial(
        &mut HiggsSearchAnalyzer::default(),
        &records,
        &mut serial_host,
    )
    .unwrap();
    let recovered = s.results().unwrap();
    let a = serial_host
        .tree
        .get("/higgs/bb_mass")
        .unwrap()
        .as_h1()
        .unwrap();
    let b = recovered.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    assert_eq!(a.all_entries(), b.all_entries());
    s.close();
}

#[test]
fn all_engines_failing_is_an_error() {
    let (manager, proxy) = setup(2);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.inject_failure(0, 10);
    s.inject_failure(1, 10);
    s.run().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match s.poll() {
            Err(CoreError::AllEnginesFailed) => break,
            Ok(_) if std::time::Instant::now() > deadline => {
                panic!("all-engines-failed never surfaced")
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(2)),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    s.close();
}

#[test]
fn run_events_after_total_engine_loss_is_an_error() {
    // Regression: run_events used to lack the engines_alive() == 0 guard
    // that run() has, silently "starting" a run no engine would perform.
    let (manager, proxy) = setup(2);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.inject_failure(0, 10);
    s.inject_failure(1, 10);
    s.run().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match s.poll() {
            Err(CoreError::AllEnginesFailed) => break,
            Ok(_) if std::time::Instant::now() > deadline => {
                panic!("all-engines-failed never surfaced")
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(2)),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(matches!(
        s.run_events(100),
        Err(CoreError::AllEnginesFailed)
    ));
    assert!(matches!(s.run(), Err(CoreError::AllEnginesFailed)));
    s.close();
}

#[test]
fn retry_budget_keeps_engine_alive_and_run_exact() {
    // An injected fault is consumed when it fires, so with a retry budget
    // the same engine gets its part back and completes it: the run
    // finishes with every engine alive and results identical to a
    // failure-free serial pass.
    let (manager, proxy) = setup_with(IpaConfig {
        engines_per_session: 4,
        publish_every: 200,
        max_part_retries: 2,
        ..Default::default()
    });
    let mut s = manager.create_session(&proxy, 0.0, 4).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.inject_failure(1, 137);
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(120)).unwrap();
    assert_eq!(st.state, RunState::Finished);
    assert_eq!(st.engines_alive, 4, "retried engine must stay alive");
    assert_eq!(st.parts_done, st.parts_total);
    assert_eq!(st.records_processed, DATASET_EVENTS);
    assert_eq!(s.failures().len(), 1);
    assert_eq!(s.failures()[0].engine, 1);
    assert!(s.failures()[0].part.is_some());
    assert_eq!(s.failures()[0].epoch, st.epoch);

    let records = manager
        .locator()
        .fetch(&DatasetId::new("lc-higgs"))
        .unwrap()
        .records
        .clone();
    let mut serial_host = AidaHost::new();
    ipa_core::run_analyzer_serial(
        &mut HiggsSearchAnalyzer::default(),
        &records,
        &mut serial_host,
    )
    .unwrap();
    let recovered = s.results().unwrap();
    let a = serial_host
        .tree
        .get("/higgs/bb_mass")
        .unwrap()
        .as_h1()
        .unwrap();
    let b = recovered.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    assert_eq!(a.all_entries(), b.all_entries());
    s.close();
}

#[test]
fn registry_progress_resets_across_reruns() {
    // Regression: completed_records was never reset on rewind, so the
    // registry's per-engine progress inflated by one dataset per re-run.
    let (manager, proxy) = setup(3);
    let reg = manager.worker_registry().clone();
    let mut s = manager.create_session(&proxy, 0.0, 3).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let total = |workers: &[ipa_core::WorkerInfo]| -> u64 {
        workers.iter().map(|w| w.records_processed).sum()
    };
    assert_eq!(total(&reg.session_workers(s.id())), DATASET_EVENTS);

    s.rewind().unwrap();
    assert_eq!(
        total(&reg.session_workers(s.id())),
        0,
        "rewind must zero registry progress"
    );

    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(
        total(&reg.session_workers(s.id())),
        DATASET_EVENTS,
        "second pass must count one dataset, not two"
    );
    s.close();
}

#[test]
fn stop_then_run_restarts_parts_from_zero() {
    // stop() diverges from pause(): engines drop their position, so a
    // later run restarts each part at record 0 instead of resuming.
    let (manager, proxy) = setup(1);
    let mut s = manager.create_session(&proxy, 0.0, 1).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run_events(300).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if s.poll().unwrap().records_processed == 300 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "run_events stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    s.stop().unwrap();
    assert_eq!(s.poll().unwrap().state, RunState::Stopped);

    // A resume from 300 would report 400; a restart reports 100.
    s.run_events(100).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let processed = s.poll().unwrap().records_processed;
        if processed != 300 {
            assert_eq!(processed, 100, "stop must drop the engine position");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "restart stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    s.close();
}

#[test]
fn wait_finished_timeout_is_an_error() {
    let (manager, proxy) = setup(2);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    // Never started: a zero-duration wait can only time out, and must say
    // so instead of returning a success-shaped status.
    match s.wait_finished(Duration::ZERO) {
        Err(CoreError::Timeout(Some(st))) => {
            assert_eq!(st.state, RunState::Idle);
            assert_eq!(st.records_processed, 0);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    s.close();
}

#[test]
fn operations_require_prerequisites() {
    let (manager, proxy) = setup(2);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    assert!(matches!(s.run(), Err(CoreError::NoDataset)));
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    assert!(matches!(s.run(), Err(CoreError::NoCode)));
    assert!(matches!(
        s.select_dataset(&DatasetId::new("missing")),
        Err(CoreError::NotLocatable(_))
    ));
    // Bad script surfaces at load time.
    assert!(matches!(
        s.load_code(AnalysisCode::Script("fn broken(".into())),
        Err(CoreError::Code(_))
    ));
    s.close();
    assert!(matches!(s.poll(), Err(CoreError::SessionClosed)));
}

#[test]
fn changing_dataset_mid_session() {
    // §1: the user "must be able to … change the dataset during the
    // analysis session".
    let (manager, proxy) = setup(2);
    let ds2 = ipa_dataset::generate_dataset(
        "lc-small",
        "Smaller sample",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events: 500,
            seed: 5,
            ..Default::default()
        }),
    );
    manager
        .publish_dataset("/lc/simulation", ds2, ipa_catalog::Metadata::new())
        .unwrap();

    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();

    // Switch datasets; code stays loaded.
    s.select_dataset(&DatasetId::new("lc-small")).unwrap();
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(st.records_processed, 500);
    s.close();
}

#[test]
fn more_parts_than_engines_still_completes() {
    // Session with 2 engines but a dataset split for 2; then kill one so a
    // single engine drains the queue.
    let (manager, proxy) = setup(2);
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.inject_failure(0, 50);
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(120)).unwrap();
    assert_eq!(st.state, RunState::Finished);
    assert_eq!(st.engines_alive, 1);
    assert_eq!(st.records_processed, DATASET_EVENTS);
    s.close();
}

#[test]
fn worker_registry_tracks_session_lifecycle() {
    let (manager, proxy) = setup(3);
    let reg = manager.worker_registry().clone();
    assert_eq!(reg.active_sessions(), 0);

    let mut s = manager.create_session(&proxy, 0.0, 3).unwrap();
    assert_eq!(reg.active_sessions(), 1);
    let workers = reg.session_workers(s.id());
    assert_eq!(workers.len(), 3);
    assert!(workers
        .iter()
        .all(|w| w.state == ipa_core::WorkerState::Ready));
    assert!(workers[0].host.contains("slac.stanford.edu"));

    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.inject_failure(2, 100);
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();

    let workers = reg.session_workers(s.id());
    assert_eq!(
        workers
            .iter()
            .filter(|w| w.state == ipa_core::WorkerState::Failed)
            .count(),
        1
    );
    let total: u64 = workers.iter().map(|w| w.records_processed).sum();
    assert!(total >= DATASET_EVENTS, "registry progress: {total}");
    assert!(reg.render().contains("Failed"));

    s.close();
    assert_eq!(reg.active_sessions(), 0);
    assert!(reg
        .session_workers(1)
        .iter()
        .all(|w| w.state == ipa_core::WorkerState::Shutdown));
}

#[test]
fn staging_report_bridges_to_cost_model() {
    let (manager, proxy) = setup(4);
    let mut s = manager.create_session(&proxy, 0.0, 4).unwrap();
    assert!(matches!(
        s.staging_report(&ipa_simgrid::PaperCalibration::paper2006()),
        Err(CoreError::NoDataset)
    ));
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    let report = s
        .staging_report(&ipa_simgrid::PaperCalibration::paper2006())
        .unwrap();
    assert_eq!(report.nodes, 4);
    assert!(report.total_s > 0.0);
    assert!((report.dataset_mb - s.dataset().unwrap().size_mb()).abs() < 1e-9);
    s.close();
}

#[test]
fn hierarchical_merge_matches_flat_in_session() {
    let (manager, proxy) = setup(6);
    let mut s = manager.create_session(&proxy, 0.0, 6).unwrap();
    s.select_dataset(&DatasetId::new("lc-higgs")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let flat = s.results().unwrap();
    let hier = s.results_hierarchical(2).unwrap();
    // Counts are exact; weights may differ by float reassociation only.
    let a = flat.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    let b = hier.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    assert_eq!(a.all_entries(), b.all_entries());
    for i in 0..a.axis().bins() {
        assert_eq!(a.bin_entries(i), b.bin_entries(i), "bin {i}");
        assert!((a.bin_height(i) - b.bin_height(i)).abs() < 1e-9);
    }
    s.close();
}
