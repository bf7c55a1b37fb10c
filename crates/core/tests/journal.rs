//! Crash/recovery tests for the session journal: chaos kill-and-restart
//! (the manager "crashes" at a random point mid-run, restarts from the
//! write-ahead log, and the final merged tree must be bin-for-bin
//! identical to an uninterrupted run), replay idempotence, corrupt-tail
//! tolerance, resume-by-id over the TCP gateway, and the journal-off
//! identity (no files, no behavior change).
//!
//! The whole file honors the `IPA_JOURNAL` CI matrix: `off` runs the
//! journal-disabled identity branch of the chaos test, `buffered` and
//! `fsync` pick the corresponding durability mode for every file-backed
//! journal created here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ipa_aida::Tree;
use ipa_core::{
    decode_events, replay, session_journal_path, AnalysisCode, CoreError, IpaConfig,
    JournalBackend, JournalEvent, ManagerNode, RunState, SchedulerPolicy, SessionJournal, WsClient,
    WsGateway, WsRequest, WsResponse,
};
use ipa_dataset::{DataLayout, DatasetId, EventGeneratorConfig, GeneratorConfig};
use ipa_simgrid::{GridProxy, SecurityDomain, VoPolicy};
use proptest::prelude::*;

const DATASET_EVENTS: u64 = 2_000;
const ENGINES: usize = 2;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per call — no `tempfile` dependency, so the
/// name carries the pid plus a process-wide counter and the test removes
/// it on the way out (best-effort; a panicking test leaves it for triage).
fn temp_journal_dir(tag: &str) -> String {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("ipa-journal-test-{}-{tag}-{n}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn cleanup(dir: &str) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The CI matrix knob: `off` | `buffered` | `fsync` (anything else means
/// the default, which this file treats as `buffered` for its own
/// file-backed journals so the suite always exercises recovery).
fn journal_mode() -> String {
    std::env::var("IPA_JOURNAL")
        .unwrap_or_default()
        .trim()
        .to_ascii_lowercase()
}

fn config(journal_dir: &str, journal: bool) -> IpaConfig {
    IpaConfig {
        engines_per_session: ENGINES,
        publish_every: 100,
        journal,
        journal_dir: journal_dir.to_string(),
        journal_fsync: journal_mode() == "fsync",
        // Small threshold so the chaos runs cross the compaction boundary
        // several times per run.
        compact_every: 16,
        ..Default::default()
    }
}

fn crash_dataset() -> ipa_dataset::Dataset {
    // Seeded generator: every manager instance publishes the byte-for-byte
    // same dataset, so a restarted manager's re-publish is the idempotent
    // `DatasetStore::put` case and recovered results stay comparable.
    ipa_dataset::generate_dataset(
        "lc-crash",
        "crash-recovery sample",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events: DATASET_EVENTS,
            ..Default::default()
        }),
    )
}

fn manager_with(journal_dir: &str, journal: bool) -> (ManagerNode, GridProxy) {
    manager_with_config(config(journal_dir, journal))
}

fn manager_with_config(config: IpaConfig) -> (ManagerNode, GridProxy) {
    let sec = SecurityDomain::new("crash-site", 9).with_policy(VoPolicy::new("ilc", 8));
    let manager = ManagerNode::new("crash.site.org", sec.clone(), config);
    manager
        .publish_dataset("/lc/crash", crash_dataset(), ipa_catalog::Metadata::new())
        .unwrap();
    let proxy = sec.issue_proxy("/CN=crash", "ilc", 0.0, 7200.0);
    (manager, proxy)
}

/// The uninterrupted reference: same dataset, same engine count, same
/// analyzer, no crash. Computed once per process — every chaos case
/// compares its post-recovery final tree against this.
fn reference_tree() -> &'static Tree {
    static REF: OnceLock<Tree> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = temp_journal_dir("reference");
        let (manager, proxy) = manager_with(&dir, false);
        let mut s = manager.create_session(&proxy, 0.0, ENGINES).unwrap();
        s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
        s.load_code(AnalysisCode::Native("higgs-search".into()))
            .unwrap();
        s.run().unwrap();
        s.wait_finished(Duration::from_secs(60)).unwrap();
        let tree = (*s.results().unwrap()).clone();
        s.close();
        cleanup(&dir);
        tree
    })
}

/// One chaos case: run, kill the manager after `kill_polls` polls,
/// restart from the journal, and check (a) the recovered session is the
/// exact pre-crash snapshot — same epoch, same `result_version`, same
/// merged tree — and (b) finishing the run yields results bin-for-bin
/// identical to the uninterrupted reference.
fn chaos_case(kill_polls: usize) {
    let dir = temp_journal_dir("chaos");
    let (manager_a, proxy) = manager_with(&dir, true);
    let mut s = manager_a.create_session(&proxy, 0.0, ENGINES).unwrap();
    let id = s.id();
    s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    for _ in 0..kill_polls {
        s.poll().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    // The last thing the journal sees: the merged snapshot the client was
    // holding when the lights went out.
    let pre_tree = s.results().unwrap();
    let pre_epoch = s.epoch();
    let pre_version = s.result_version();
    assert_eq!(s.journal_append_errors(), 0);
    drop(s); // crash: no graceful state handoff, only the journal survives
    drop(manager_a);

    // Restart: a fresh manager over the same journal directory.
    let (manager_b, _proxy) = manager_with(&dir, true);
    let mut r = manager_b.recover_session(id).unwrap();
    assert_eq!(r.id(), id);
    assert_eq!(r.subject(), "/CN=crash");
    assert_eq!(r.engines(), ENGINES);
    assert_eq!(r.epoch(), pre_epoch, "recovered epoch must match");
    assert_eq!(
        r.result_version(),
        pre_version,
        "recovered result_version must match before any new merge"
    );
    let recovered_tree = r.results().unwrap();
    assert_eq!(
        recovered_tree, pre_tree,
        "recovered merged tree must equal the pre-crash snapshot"
    );
    assert_eq!(
        r.result_version(),
        pre_version,
        "serving the recovered snapshot must not re-materialize it"
    );

    // Finish the run (recovery parks a mid-run session in Paused; when
    // every part had already completed it comes back Finished).
    let st = r.poll().unwrap();
    assert!(
        matches!(st.state, RunState::Paused | RunState::Finished),
        "recovered state {:?}",
        st.state
    );
    if st.state != RunState::Finished {
        r.run().unwrap();
        r.wait_finished(Duration::from_secs(60)).unwrap();
    }
    let final_status = r.poll().unwrap();
    assert_eq!(final_status.records_processed, DATASET_EVENTS);
    assert_eq!(final_status.parts_done, final_status.parts_total);
    let final_tree = r.results().unwrap();
    assert_eq!(
        &*final_tree,
        reference_tree(),
        "post-recovery results must be bin-for-bin identical to an uninterrupted run"
    );
    r.close();
    cleanup(&dir);
}

/// The `journal = off` identity branch: behavior matches the pre-journal
/// build — no files appear, the run is unaffected, and recovery has
/// nothing to work from.
fn journal_off_case() {
    let dir = temp_journal_dir("chaos-off");
    let (manager, proxy) = manager_with(&dir, false);
    let mut s = manager.create_session(&proxy, 0.0, ENGINES).unwrap();
    let id = s.id();
    s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(s.journal_append_errors(), 0);
    let tree = s.results().unwrap();
    assert_eq!(&*tree, reference_tree());
    s.close();
    assert!(
        !std::path::Path::new(&dir).exists(),
        "journal off must never touch the filesystem"
    );
    match manager.recover_session(id) {
        Err(CoreError::Journal(_)) => {}
        other => panic!(
            "recovery without a journal must fail, got {:?}",
            other.map(|_| "a session")
        ),
    }
    cleanup(&dir);
}

proptest! {
    // Each case is a full run + crash + recovery + re-run; a handful of
    // random kill points per invocation keeps the suite honest without
    // dominating wall-clock. CI sweeps IPA_JOURNAL across the matrix.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn crash_at_random_point_recovers_exactly(kill_polls in 0usize..30) {
        if journal_mode() == "off" {
            journal_off_case();
        } else {
            chaos_case(kill_polls);
        }
    }
}

/// Chunks of the staged parts' transcodes built so far, part by part.
fn chunks_built(s: &ipa_core::Session) -> Vec<usize> {
    s.part_columns()
        .iter()
        .map(|c| c.as_ref().expect("columnar layout").built())
        .collect()
}

#[test]
fn recovering_a_finished_session_reads_no_record() {
    let dir = temp_journal_dir("finished");
    let columnar = || IpaConfig {
        data_layout: DataLayout::Columnar,
        ..config(&dir, true)
    };
    let (manager_a, proxy) = manager_with_config(columnar());
    let mut s = manager_a.create_session(&proxy, 0.0, ENGINES).unwrap();
    let id = s.id();
    s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
    assert_eq!(chunks_built(&s), [0; ENGINES], "select stages views only");
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(chunks_built(&s), [1; ENGINES]);
    let pre_tree = s.results().unwrap();
    drop(s);
    drop(manager_a);

    let (manager_b, _proxy) = manager_with_config(columnar());
    let mut r = manager_b.recover_session(id).unwrap();
    assert_eq!(r.poll().unwrap().state, RunState::Finished);
    assert_eq!(r.results().unwrap(), pre_tree);
    assert_eq!(&*pre_tree, reference_tree());
    assert_eq!(chunks_built(&r), [0; ENGINES], "nothing left to run");
    r.close();
    cleanup(&dir);
}

#[test]
fn recovering_a_paused_session_reads_only_the_parts_left_to_run() {
    // Eight micro-parts of 250 events on two engines; a budget of 600
    // events each completes two parts per engine and stops 100 records
    // into a third, leaving two parts untouched.
    let dir = temp_journal_dir("paused");
    let micro = || IpaConfig {
        data_layout: DataLayout::Columnar,
        scheduler: SchedulerPolicy::WorkQueue,
        oversub: 4,
        ..config(&dir, true)
    };
    let (manager_a, proxy) = manager_with_config(micro());
    let session = || {
        let mut s = manager_a.create_session(&proxy, 0.0, ENGINES).unwrap();
        s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
        s.load_code(AnalysisCode::Native("higgs-search".into()))
            .unwrap();
        s
    };
    // The uninterrupted run of the same eight parts, for the final tree.
    let mut whole = session();
    whole.run().unwrap();
    whole.wait_finished(Duration::from_secs(60)).unwrap();
    let uninterrupted = whole.results().unwrap();
    whole.close();

    let mut s = session();
    let id = s.id();
    s.run_events(600).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let st = s.poll().unwrap();
        if st.records_processed == 1_200 {
            assert_eq!((st.parts_done, st.parts_total), (4, 8));
            break;
        }
        assert!(std::time::Instant::now() < deadline, "budget never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(s);
    drop(manager_a);

    let (manager_b, _proxy) = manager_with_config(micro());
    let mut r = manager_b.recover_session(id).unwrap();
    let st = r.poll().unwrap();
    assert_eq!((st.state, st.parts_done), (RunState::Paused, 4));
    assert_eq!(chunks_built(&r), [0; 8], "recovery stages views only");
    r.run().unwrap();
    r.wait_finished(Duration::from_secs(60)).unwrap();
    // The four durably complete parts were never read again.
    let built = chunks_built(&r);
    assert_eq!(built.iter().filter(|&&b| b == 0).count(), 4, "{built:?}");
    assert_eq!(built.iter().filter(|&&b| b == 1).count(), 4, "{built:?}");
    assert_eq!(r.results().unwrap(), uninterrupted);
    r.close();
    cleanup(&dir);
}

/// A whole run journaled to memory, compacting every `compact_every`
/// appends (0 = never): the journal as the last update left it, and the
/// merged tree.
fn journaled_run(compact_every: u64) -> (Vec<JournalEvent>, Arc<Tree>) {
    let dir = temp_journal_dir("compact");
    let (manager, proxy) = manager_with(&dir, false);
    let mut s = manager.create_session(&proxy, 0.0, ENGINES).unwrap();
    let backend = JournalBackend::memory();
    let handle = backend.handle().unwrap();
    s.attach_journal(SessionJournal::new(backend, compact_every));
    s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let events = decode_events(&handle.lock());
    let tree = s.results().unwrap();
    s.close();
    cleanup(&dir);
    (events, tree)
}

#[test]
fn an_update_whose_append_compacts_the_log_is_in_the_snapshot() {
    // Find the append that carries the run's last update, then compact
    // exactly there: the snapshot that replaces the log must hold it.
    let (events, _) = journaled_run(0);
    let last_update = events
        .iter()
        .rposition(|e| matches!(e, JournalEvent::ResultUpdate { .. }))
        .expect("a run publishes");
    let (compacted, tree) = journaled_run(last_update as u64 + 1);
    assert!(matches!(compacted[0], JournalEvent::Snapshot(_)));
    assert!(compacted.len() < events.len());
    let mut recovered = replay(&compacted, 8, 1);
    assert_eq!(recovered.aida.snapshot().unwrap(), tree);
    assert_eq!(&*tree, reference_tree());
}

#[test]
fn replaying_a_journal_twice_equals_replaying_it_once() {
    let dir = temp_journal_dir("idem");
    let (manager, proxy) = manager_with(&dir, false);
    let mut s = manager.create_session(&proxy, 0.0, ENGINES).unwrap();
    // Memory backend, compaction disabled: the full event history stays in
    // the shared buffer for inspection.
    let backend = JournalBackend::memory();
    let handle = backend.handle().unwrap();
    s.attach_journal(SessionJournal::new(backend, 0));
    s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    s.results().unwrap();
    s.pause().unwrap();
    s.close();

    let bytes = handle.lock().clone();
    let events = decode_events(&bytes);
    assert!(!events.is_empty());
    let once = replay(&events, 8, 1);
    let mut doubled = events.clone();
    doubled.extend(events.iter().cloned());
    let twice = replay(&doubled, 8, 1);

    assert_eq!(once.session, twice.session);
    assert_eq!(once.subject, twice.subject);
    assert_eq!(once.engines, twice.engines);
    assert_eq!(once.dataset, twice.dataset);
    assert_eq!(once.epoch, twice.epoch);
    assert_eq!(once.state, twice.state);
    assert_eq!(once.completed, twice.completed);
    assert_eq!(
        serde_json::to_string(&once.code).unwrap(),
        serde_json::to_string(&twice.code).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&once.aida.export()).unwrap(),
        serde_json::to_string(&twice.aida.export()).unwrap(),
        "the reconstructed result plane must be identical"
    );
    cleanup(&dir);
}

#[test]
fn recovery_survives_a_torn_and_garbage_tail() {
    let dir = temp_journal_dir("tail");
    let (manager_a, proxy) = manager_with(&dir, true);
    let mut s = manager_a.create_session(&proxy, 0.0, ENGINES).unwrap();
    let id = s.id();
    s.select_dataset(&DatasetId::new("lc-crash")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let pre_tree = s.results().unwrap();
    let pre_version = s.result_version();
    drop(s);
    drop(manager_a);

    // Simulate a crash mid-append: a half-written record followed by raw
    // garbage. Everything before the tear must still replay.
    let path = session_journal_path(&dir, id);
    let mut bytes = std::fs::read(&path).unwrap();
    let mut torn = ipa_core::journal::wal::encode_record(br#""RunStarted""#);
    torn.truncate(torn.len() - 3);
    bytes.extend_from_slice(&torn);
    bytes.extend_from_slice(b"\xde\xad\xbe\xef not a journal record");
    std::fs::write(&path, &bytes).unwrap();

    let (manager_b, _proxy) = manager_with(&dir, true);
    let mut r = manager_b.recover_session(id).unwrap();
    assert_eq!(r.poll().unwrap().state, RunState::Finished);
    assert_eq!(r.result_version(), pre_version);
    assert_eq!(r.results().unwrap(), pre_tree);
    r.close();
    cleanup(&dir);
}

#[test]
fn gateway_resume_by_id_across_manager_restart() {
    let dir = temp_journal_dir("gw");
    let sec = SecurityDomain::new("crash-site", 9).with_policy(VoPolicy::new("ilc", 8));
    let proxy = sec.issue_proxy("/CN=remote", "ilc", 0.0, 7200.0);

    let manager_a = Arc::new(ManagerNode::new(
        "crash.site.org",
        sec.clone(),
        config(&dir, true),
    ));
    manager_a
        .publish_dataset("/lc/crash", crash_dataset(), ipa_catalog::Metadata::new())
        .unwrap();
    let mut gw = WsGateway::serve(manager_a.clone(), ("127.0.0.1", 0)).unwrap();
    let mut client = WsClient::connect(gw.addr()).unwrap();

    let WsResponse::SessionCreated { session, engines } = client
        .call_ok(&WsRequest::CreateSession {
            proxy: proxy.clone(),
            now: 0.0,
            engines: ENGINES,
        })
        .unwrap()
    else {
        panic!("create")
    };
    assert_eq!(engines, ENGINES);
    client
        .call_ok(&WsRequest::SelectDataset {
            session,
            id: "lc-crash".into(),
        })
        .unwrap();
    client
        .call_ok(&WsRequest::LoadNative {
            session,
            name: "higgs-search".into(),
        })
        .unwrap();
    client.call_ok(&WsRequest::Run { session }).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let WsResponse::Status(st) = client.call_ok(&WsRequest::Poll { session }).unwrap() else {
            panic!("poll")
        };
        if st.state == RunState::Finished {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "run never finished");
        std::thread::sleep(Duration::from_millis(2));
    }
    let WsResponse::Tree { version, tree } = client
        .call_ok(&WsRequest::Results {
            session,
            if_newer_than: None,
        })
        .unwrap()
    else {
        panic!("results")
    };

    // Resuming a session that is still live is idempotent — same grant.
    let WsResponse::SessionCreated {
        session: same,
        engines: still,
    } = client.call_ok(&WsRequest::Resume { session }).unwrap()
    else {
        panic!("live resume")
    };
    assert_eq!(same, session);
    assert_eq!(still, ENGINES);

    // Manager "crash": gateway down, manager dropped, only the WAL stays.
    gw.shutdown();
    drop(client);
    drop(gw);
    drop(manager_a);

    let manager_b = Arc::new(ManagerNode::new(
        "crash.site.org",
        sec.clone(),
        config(&dir, true),
    ));
    manager_b
        .publish_dataset("/lc/crash", crash_dataset(), ipa_catalog::Metadata::new())
        .unwrap();
    let mut gw2 = WsGateway::serve(manager_b, ("127.0.0.1", 0)).unwrap();
    let mut client2 = WsClient::connect(gw2.addr()).unwrap();

    // The session id is the capability (WSRF-EPR): resume needs nothing
    // else, and the recovered session picks up where the old one stopped.
    let WsResponse::SessionCreated {
        session: resumed,
        engines: granted,
    } = client2.call_ok(&WsRequest::Resume { session }).unwrap()
    else {
        panic!("resume")
    };
    assert_eq!(resumed, session);
    assert_eq!(granted, ENGINES);

    let WsResponse::Status(st) = client2.call_ok(&WsRequest::Poll { session }).unwrap() else {
        panic!("poll after resume")
    };
    assert_eq!(st.state, RunState::Finished);
    assert_eq!(st.records_processed, DATASET_EVENTS);

    // The client's cached version from before the crash is still valid…
    let WsResponse::Unchanged { version: v2 } = client2
        .call_ok(&WsRequest::Results {
            session,
            if_newer_than: Some(version),
        })
        .unwrap()
    else {
        panic!("cached version must survive the restart")
    };
    assert_eq!(v2, version);
    // …and the full tree crosses the restart intact.
    let WsResponse::Tree {
        version: v3,
        tree: t3,
    } = client2
        .call_ok(&WsRequest::Results {
            session,
            if_newer_than: None,
        })
        .unwrap()
    else {
        panic!("results after resume")
    };
    assert_eq!(v3, version);
    assert_eq!(t3, tree);

    // Resuming an id nobody ever created is an error, not a blank session.
    assert!(client2
        .call_ok(&WsRequest::Resume { session: 4242 })
        .is_err());

    client2
        .call_ok(&WsRequest::CloseSession { session })
        .unwrap();
    gw2.shutdown();
    cleanup(&dir);
}

#[test]
fn republishing_a_conflicting_descriptor_is_refused() {
    let dir = temp_journal_dir("conflict");
    let (manager, _proxy) = manager_with(&dir, false);
    // Same id, different content: silent replacement would invalidate
    // every recovered session staged against the original bytes.
    let other = ipa_dataset::generate_dataset(
        "lc-crash",
        "a different sample under the same id",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events: 100,
            seed: 7,
            ..Default::default()
        }),
    );
    match manager.publish_dataset("/lc/crash", other, ipa_catalog::Metadata::new()) {
        Err(CoreError::DatasetConflict { id }) => assert_eq!(id, "lc-crash"),
        other => panic!("expected DatasetConflict, got {other:?}"),
    }
    cleanup(&dir);
}
