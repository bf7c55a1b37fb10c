//! Staging-plane integration tests: the split cache across re-selects,
//! restage determinism, transfer-fault injection with retry budgets, and
//! record-range dataset views — all driven through real sessions with
//! real engines, the way `select_dataset` exercises the plane in
//! production.

use std::time::Duration;

use ipa_core::{
    AnalysisCode, CoreError, DatasetPlane, HiggsSearchAnalyzer, IpaConfig, ManagerNode, RunState,
    SchedulerPolicy, SitePlane, SplitSpec, StageFaultPlan,
};
use ipa_dataset::{AnyRecord, DatasetId, EventGeneratorConfig, GeneratorConfig};
use ipa_script::AidaHost;
use ipa_simgrid::{SecurityDomain, VoPolicy};

const DATASET_EVENTS: u64 = 2_000;

fn manager_with(config: IpaConfig) -> (ManagerNode, ipa_simgrid::GridProxy) {
    let sec = SecurityDomain::new("stage-site", 11).with_policy(VoPolicy::new("vo", 16));
    let m = ManagerNode::new("stage-site", sec.clone(), config);
    let ds = ipa_dataset::generate_dataset(
        "ds",
        "staging test events",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events: DATASET_EVENTS,
            ..Default::default()
        }),
    );
    m.publish_dataset("/d", ds, ipa_catalog::Metadata::new())
        .unwrap();
    (m, sec.issue_proxy("/CN=stager", "vo", 0.0, 1e6))
}

fn manager() -> (ManagerNode, ipa_simgrid::GridProxy) {
    manager_with(IpaConfig {
        publish_every: 200,
        ..Default::default()
    })
}

/// Serial reference pass over the published records, for bit-exactness
/// comparisons after staged/parallel runs.
fn serial_reference(m: &ManagerNode, range: Option<(usize, usize)>) -> AidaHost {
    let records = m
        .locator()
        .fetch(&DatasetId::new("ds"))
        .unwrap()
        .records
        .clone();
    let slice = match range {
        Some((a, b)) => &records[a..b],
        None => &records[..],
    };
    let mut host = AidaHost::new();
    ipa_core::run_analyzer_serial(&mut HiggsSearchAnalyzer::default(), slice, &mut host).unwrap();
    host
}

#[test]
fn reselect_is_a_cache_hit_with_identical_results() {
    let (m, proxy) = manager();
    let mut s = m.create_session(&proxy, 0.0, 3).unwrap();
    s.select_dataset(&DatasetId::new("ds")).unwrap();
    let st = s.staging_stats();
    assert_eq!(st.cache_misses, 1);
    assert_eq!(st.cache_hits, 0);
    assert!(st.parts_staged >= 1);
    assert!(st.chunks_sent >= st.parts_staged, "parts move as ≥1 chunk");
    assert!(st.bytes_moved > 0);

    // Selecting read no record (vacuous under the row layout, which has
    // no columns): the engines transcode their parts as they run them.
    let columns: Vec<_> = s.part_columns().iter().flatten().cloned().collect();
    assert!(columns.iter().all(|c| c.built() == 0));

    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();
    let first = s.results().unwrap();
    let staged_once = s.staging_stats();
    assert!(columns.iter().all(|c| c.built() == c.chunks()));

    // Re-selecting the same dataset restages from the split cache: no new
    // parts or bytes move, the parts come with the chunks the first run
    // built, and the rerun is bit-identical.
    s.select_dataset(&DatasetId::new("ds")).unwrap();
    let again = s.part_columns().iter().flatten();
    assert!(again
        .zip(&columns)
        .all(|(a, b)| std::sync::Arc::ptr_eq(a, b) && a.built() == a.chunks()));
    let st = s.staging_stats();
    assert_eq!(st.cache_hits, 1, "re-select must hit the split cache");
    assert_eq!(st.cache_misses, 1);
    assert_eq!(
        st.parts_staged, staged_once.parts_staged,
        "cache hit stages no new parts"
    );
    assert_eq!(
        st.bytes_moved, staged_once.bytes_moved,
        "cache hit moves no new bytes"
    );

    s.run().unwrap();
    let done = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(done.records_processed, DATASET_EVENTS);
    let second = s.results().unwrap();
    assert_eq!(first, second, "cached restage must reproduce the run");
    s.close();
}

#[test]
fn select_rewind_run_matches_uncached_run() {
    let (m, proxy) = manager();

    // Cached path: select once, run, rewind (same staged parts), run again.
    let mut a = m.create_session(&proxy, 0.0, 4).unwrap();
    a.select_dataset(&DatasetId::new("ds")).unwrap();
    a.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    a.run().unwrap();
    a.wait_finished(Duration::from_secs(60)).unwrap();
    let first = a.results().unwrap();
    a.rewind().unwrap();
    a.run().unwrap();
    a.wait_finished(Duration::from_secs(60)).unwrap();
    let rewound = a.results().unwrap();
    assert_eq!(first, rewound);
    a.close();

    // Uncached path: a fresh session (fresh plane, cold cache) and a
    // serial single-threaded pass must both agree with it.
    let mut b = m.create_session(&proxy, 0.0, 4).unwrap();
    b.select_dataset(&DatasetId::new("ds")).unwrap();
    assert_eq!(b.staging_stats().cache_hits, 0, "fresh plane is cold");
    b.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    b.run().unwrap();
    b.wait_finished(Duration::from_secs(60)).unwrap();
    let uncached = b.results().unwrap();
    assert_eq!(first, uncached);
    b.close();

    let serial = serial_reference(&m, None);
    let a1 = serial.tree.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    let b1 = first.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    assert_eq!(a1.all_entries(), b1.all_entries());
}

#[test]
fn transfer_faults_within_budget_retry_to_identical_results() {
    let (m, proxy) = manager_with(IpaConfig {
        publish_every: 200,
        stage_retries: 3,
        ..Default::default()
    });
    let mut s = m.create_session(&proxy, 0.0, 2).unwrap();
    s.inject_stage_faults(StageFaultPlan::default().fail_part(0, 2).fail_part(1, 1));
    s.select_dataset(&DatasetId::new("ds")).unwrap();
    let st = s.staging_stats();
    assert_eq!(st.retries, 3, "every injected fault absorbed as a retry");
    assert_eq!(st.transfer_failures, 0);

    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    let done = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(done.state, RunState::Finished);
    assert_eq!(done.records_processed, DATASET_EVENTS);

    // Retried staging must be invisible in the physics: identical to the
    // serial reference, bin for bin.
    let serial = serial_reference(&m, None);
    let tree = s.results().unwrap();
    let a = serial.tree.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    let b = tree.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    assert_eq!(a.all_entries(), b.all_entries());
    for i in 0..a.axis().bins() {
        assert_eq!(a.bin_entries(i), b.bin_entries(i), "bin {i}");
    }
    s.close();
}

#[test]
fn exhausted_transfer_retries_fail_clean_and_session_survives() {
    let (m, proxy) = manager_with(IpaConfig {
        publish_every: 200,
        stage_retries: 1,
        ..Default::default()
    });
    let mut s = m.create_session(&proxy, 0.0, 2).unwrap();
    s.inject_stage_faults(StageFaultPlan::default().fail_part(0, 100));
    let err = s.select_dataset(&DatasetId::new("ds")).unwrap_err();
    match err {
        CoreError::StagingFailure { part, attempts } => {
            assert_eq!(part, 0);
            assert!(attempts >= 2, "budget of 1 retry allows 2 attempts");
        }
        other => panic!("expected StagingFailure, got {other:?}"),
    }
    assert_eq!(s.staging_stats().transfer_failures, 1);
    // The failed select left no dataset behind — the session is still on
    // its previous (no) dataset, with no epoch bump and no hung engines.
    assert!(s.dataset().is_none());
    assert!(matches!(s.run(), Err(CoreError::NoDataset)));

    // Clearing the fault plan makes the same select succeed, and the
    // session runs to completion: nothing leaked from the failed attempt.
    s.inject_stage_faults(StageFaultPlan::default());
    s.select_dataset(&DatasetId::new("ds")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    let done = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(done.state, RunState::Finished);
    assert_eq!(done.records_processed, DATASET_EVENTS);
    s.close();
}

#[test]
fn record_range_view_selects_and_runs_the_slice() {
    let (m, proxy) = manager();
    let mut s = m.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("ds@500..1500")).unwrap();
    assert_eq!(s.dataset().unwrap().records, 1_000);
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    let done = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(done.records_processed, 1_000);

    // The view's physics equals a serial pass over records [500, 1500).
    let serial = serial_reference(&m, Some((500, 1_500)));
    let tree = s.results().unwrap();
    let a = serial.tree.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    let b = tree.get("/higgs/bb_mass").unwrap().as_h1().unwrap();
    assert_eq!(a.all_entries(), b.all_entries());

    // Malformed and out-of-bounds ranges are not locatable.
    for bad in ["ds@1500..500", "ds@0..99999", "ds@x..y", "@0..5"] {
        assert!(
            matches!(
                s.select_dataset(&DatasetId::new(bad)),
                Err(CoreError::NotLocatable(_))
            ),
            "{bad} must not locate"
        );
    }
    s.close();
}

/// True when `record` is one of `base`'s own records (by address).
fn lies_inside(record: &AnyRecord, base: &[AnyRecord]) -> bool {
    base.as_ptr_range().contains(&(record as *const AnyRecord))
}

#[test]
fn no_record_is_copied_between_publishing_and_the_parts() {
    // The site's plane over the manager's own store, under the three split
    // policies a session can ask for: every staged part must start at the
    // address of the published record its plan range starts at.
    let (m, _proxy) = manager();
    let published = m.locator().fetch(&DatasetId::new("ds")).unwrap();
    for (scheduler, byte_balanced) in [
        (SchedulerPolicy::Static, true),
        (SchedulerPolicy::Static, false),
        (SchedulerPolicy::WorkQueue, false),
    ] {
        let config = IpaConfig {
            scheduler,
            byte_balanced_split: byte_balanced,
            ..Default::default()
        };
        let spec = SplitSpec::from_config(&config, 3);
        let mut plane = SitePlane::new(m.locator().clone(), &config);
        let staged = plane.stage(&DatasetId::new("ds"), &spec).unwrap();
        assert_eq!(staged.parts.len(), spec.parts, "{spec:?}");
        for (k, part) in staged.parts.iter().enumerate() {
            let (first, count, _) = staged.plan.ranges[k];
            assert_eq!(part.len() as u64, count, "{spec:?} part {k}");
            assert!(
                std::ptr::eq(&part[0], &published.records[first as usize]),
                "{spec:?} part {k} was copied"
            );
        }
        let total: usize = staged.parts.iter().map(|p| p.len()).sum();
        assert_eq!(total as u64, DATASET_EVENTS);
    }
}

#[test]
fn range_view_cache_hit_hands_back_the_base_datasets_records() {
    // Re-selecting a `"<base>@a..b"` view used to deep-copy the slice
    // before the cache was even asked. Miss and hit alike must now hand
    // out records that live inside the published base dataset.
    let (m, _proxy) = manager();
    let published = m.locator().fetch(&DatasetId::new("ds")).unwrap();
    let config = IpaConfig::default();
    let spec = SplitSpec::from_config(&config, 2);
    let mut plane = SitePlane::new(m.locator().clone(), &config);
    let id = DatasetId::new("ds@500..1500");
    let miss = plane.stage(&id, &spec).unwrap();
    let hit = plane.stage(&id, &spec).unwrap();
    assert!(!miss.from_cache && hit.from_cache);
    assert_eq!(plane.stats().cache_hits, 1);
    for staged in [&miss, &hit] {
        assert_eq!(staged.descriptor.records, 1_000);
        assert!(std::ptr::eq(&staged.parts[0][0], &published.records[500]));
        for part in &staged.parts {
            assert!(part.iter().all(|r| lies_inside(r, &published.records)));
        }
    }
    for (a, b) in miss.parts.iter().zip(&hit.parts) {
        assert!(a.same_view(b));
    }
}

#[test]
fn select_after_total_engine_loss_is_a_structured_error() {
    let (m, proxy) = manager();
    let mut s = m.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("ds")).unwrap();
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
    // Selecting with zero living engines is an immediate structured error,
    // not a divide-by-`max(1)` split onto nobody.
    assert!(matches!(
        s.select_dataset(&DatasetId::new("ds")),
        Err(CoreError::AllEnginesFailed)
    ));
    s.close();
}
