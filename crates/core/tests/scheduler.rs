//! Scheduling-plane tests: micro-partitioned work queues, work stealing,
//! speculative straggler re-execution, and the exactly-once guarantee
//! that must survive all of them.

use std::time::{Duration, Instant};

use ipa_aida::Tree;
use ipa_core::{AnalysisCode, IpaConfig, ManagerNode, SchedulerPolicy, SessionStatus};
use ipa_dataset::{DataLayout, DatasetId, EventGeneratorConfig, GeneratorConfig};
use ipa_simgrid::{GridProxy, SecurityDomain, VoPolicy};
use proptest::prelude::*;

fn manager_with(events: u64, config: IpaConfig) -> (ManagerNode, GridProxy) {
    let sec = SecurityDomain::new("sched-site", 99).with_policy(VoPolicy::new("ilc", 16));
    let manager = ManagerNode::new("sched.example.org", sec.clone(), config);
    let ds = ipa_dataset::generate_dataset(
        "lc-sched",
        "scheduler-plane events",
        &GeneratorConfig::Event(EventGeneratorConfig {
            events,
            ..Default::default()
        }),
    );
    manager
        .publish_dataset("/lc", ds, ipa_catalog::Metadata::new())
        .unwrap();
    let proxy = sec.issue_proxy("/CN=sched", "ilc", 0.0, 7200.0);
    (manager, proxy)
}

/// Full run of the whole dataset under `config`; returns wall-clock from
/// `run()` to `Finished`, the final status, and the merged tree.
fn timed_run(events: u64, config: IpaConfig) -> (Duration, SessionStatus, Tree) {
    let engines = config.engines_per_session;
    let (manager, proxy) = manager_with(events, config);
    let mut s = manager.create_session(&proxy, 0.0, engines).unwrap();
    s.select_dataset(&DatasetId::new("lc-sched")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    let started = Instant::now();
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(120)).unwrap();
    let elapsed = started.elapsed();
    let tree = s.results().unwrap().as_ref().clone();
    s.close();
    (elapsed, st, tree)
}

/// The two runs must have merged to the same histograms: identical entry
/// counts per bin, heights equal up to float summation order.
fn assert_same_merge(a: &Tree, b: &Tree, path: &str) {
    let ha = a.get(path).unwrap().as_h1().unwrap();
    let hb = b.get(path).unwrap().as_h1().unwrap();
    assert_eq!(ha.all_entries(), hb.all_entries(), "{path}: total entries");
    for i in 0..ha.axis().bins() {
        assert_eq!(ha.bin_entries(i), hb.bin_entries(i), "{path} bin {i}");
        let d = (ha.bin_height(i) - hb.bin_height(i)).abs();
        assert!(
            d <= 1e-9 * ha.bin_height(i).abs().max(1.0),
            "{path} bin {i} height: {} vs {}",
            ha.bin_height(i),
            hb.bin_height(i)
        );
    }
}

#[test]
fn work_stealing_beats_static_with_slow_engine() {
    // One engine 16× slower. Static is hostage to it; work stealing routes
    // the records around it and speculation rescues its final part. The
    // strict ≤50% acceptance number lives in the criterion bench — here we
    // use a forgiving margin so the test stays robust on loaded CI boxes.
    const EVENTS: u64 = 100_000;
    let config = |scheduler| IpaConfig {
        scheduler,
        engines_per_session: 4,
        oversub: 4,
        publish_every: 500,
        speed_factors: vec![16.0, 1.0, 1.0, 1.0],
        ..Default::default()
    };

    let (static_t, static_st, static_tree) = timed_run(EVENTS, config(SchedulerPolicy::Static));
    let (ws_t, ws_st, ws_tree) = timed_run(EVENTS, config(SchedulerPolicy::WorkStealing));

    // Both runs processed every record exactly once.
    for st in [&static_st, &ws_st] {
        assert_eq!(st.records_processed, EVENTS);
        assert_eq!(st.parts_done, st.parts_total);
    }
    assert_eq!(
        ws_tree.get("/higgs/n_btags").unwrap().entries(),
        EVENTS,
        "every record fills n_btags exactly once"
    );
    assert_same_merge(&static_tree, &ws_tree, "/higgs/n_btags");
    assert_same_merge(&static_tree, &ws_tree, "/higgs/bb_mass");

    // Scheduler stats tell the story of each policy.
    assert_eq!(static_st.sched.policy, SchedulerPolicy::Static);
    assert_eq!(static_st.sched.parts_stolen, 0);
    assert_eq!(static_st.sched.parts_speculated, 0);
    assert_eq!(ws_st.sched.policy, SchedulerPolicy::WorkStealing);
    assert_eq!(ws_st.sched.parts_queued, 16);
    assert!(
        ws_st.sched.parts_stolen > 0,
        "micro-parts must be pulled beyond the first wave"
    );

    assert!(
        ws_t.as_secs_f64() <= 0.75 * static_t.as_secs_f64(),
        "work stealing ({ws_t:?}) should finish well before static ({static_t:?})"
    );
}

#[test]
fn straggler_part_is_speculatively_rescued() {
    // Two engines, one 20× slower: once the fast engine drains the queue
    // it must duplicate the straggler's part and win the race.
    const EVENTS: u64 = 30_000;
    let (manager, proxy) = manager_with(
        EVENTS,
        IpaConfig {
            scheduler: SchedulerPolicy::WorkStealing,
            engines_per_session: 2,
            oversub: 2,
            publish_every: 250,
            ..Default::default()
        },
    );
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-sched")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.inject_speed_factor(0, 20.0);
    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(120)).unwrap();

    assert_eq!(st.records_processed, EVENTS);
    assert_eq!(st.parts_done, st.parts_total);
    assert!(
        st.sched.parts_speculated >= 1,
        "the straggler's part was never speculated: {:?}",
        st.sched
    );
    assert!(
        st.sched.speculations_won >= 1,
        "the fast engine should win the race: {:?}",
        st.sched
    );
    // First-completion-wins kept the merge exactly-once.
    let tree = s.results().unwrap();
    assert_eq!(tree.get("/higgs/n_btags").unwrap().entries(), EVENTS);
    s.close();
}

#[test]
fn work_queue_pulls_without_speculating() {
    // WorkQueue = pull-based micro-parts, no speculation ever.
    let (t, st, tree) = timed_run(
        3_000,
        IpaConfig {
            scheduler: SchedulerPolicy::WorkQueue,
            engines_per_session: 3,
            oversub: 3,
            publish_every: 100,
            ..Default::default()
        },
    );
    assert!(t < Duration::from_secs(60));
    assert_eq!(st.records_processed, 3_000);
    assert_eq!(st.sched.policy, SchedulerPolicy::WorkQueue);
    assert_eq!(st.sched.parts_queued, 9);
    assert!(st.sched.parts_stolen > 0);
    assert_eq!(st.sched.parts_speculated, 0);
    assert_eq!(tree.get("/higgs/n_btags").unwrap().entries(), 3_000);
}

#[test]
fn rewind_under_work_stealing_restages_the_whole_queue() {
    // A rewound micro-partitioned run must reprocess all records exactly
    // once even though engines held only a fraction of the parts.
    let (manager, proxy) = manager_with(
        2_000,
        IpaConfig {
            scheduler: SchedulerPolicy::WorkStealing,
            engines_per_session: 2,
            oversub: 4,
            publish_every: 100,
            ..Default::default()
        },
    );
    let mut s = manager.create_session(&proxy, 0.0, 2).unwrap();
    s.select_dataset(&DatasetId::new("lc-sched")).unwrap();
    s.load_code(AnalysisCode::Native("higgs-search".into()))
        .unwrap();
    s.run().unwrap();
    s.wait_finished(Duration::from_secs(60)).unwrap();

    s.rewind().unwrap();
    let st = s.poll().unwrap();
    assert_eq!(st.records_processed, 0, "rewind clears merged progress");
    assert_eq!(st.sched.parts_stolen, 0, "counters reset with the epoch");

    s.run().unwrap();
    let st = s.wait_finished(Duration::from_secs(60)).unwrap();
    assert_eq!(st.records_processed, 2_000);
    assert_eq!(st.parts_done, 8);
    let tree = s.results().unwrap();
    assert_eq!(tree.get("/higgs/n_btags").unwrap().entries(), 2_000);
    s.close();
}

/// One chaotic session per layout — an injected mid-part engine kill and a
/// rewind mid-run under work stealing — must merge to the same histograms.
/// Per-batch fills are bit-identical by construction; this pins the whole
/// pipeline (lazily transcoded staged parts, cached-split reuse after the
/// rewind, engine batch dispatch, merge) to the row oracle.
fn assert_columnar_matches_row(
    events: u64,
    publish_every: usize,
    oversub: usize,
    kill_engine: usize,
    kill_after: u64,
) {
    let run = |layout: DataLayout| -> Tree {
        let (manager, proxy) = manager_with(
            events,
            IpaConfig {
                scheduler: SchedulerPolicy::WorkStealing,
                engines_per_session: 3,
                oversub,
                publish_every,
                data_layout: layout,
                ..Default::default()
            },
        );
        let mut s = manager.create_session(&proxy, 0.0, 3).unwrap();
        s.select_dataset(&DatasetId::new("lc-sched")).unwrap();
        s.load_code(AnalysisCode::Native("higgs-search".into()))
            .unwrap();
        s.inject_failure(kill_engine, kill_after);
        // Start, let a few publishes land, then rewind: the restaged
        // epoch must reuse the cached split (and, under the columnar
        // layout, the chunks transcoded so far) without double-counting
        // anything.
        s.run().unwrap();
        for _ in 0..10 {
            s.poll().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        s.rewind().unwrap();
        s.run().unwrap();
        let st = s.wait_finished(Duration::from_secs(60)).unwrap();
        assert_eq!(st.records_processed, events);
        assert_eq!(st.parts_done, st.parts_total);
        let out = s.results().unwrap().as_ref().clone();
        s.close();
        out
    };

    let row_tree = run(DataLayout::Row);
    let col_tree = run(DataLayout::Columnar);
    assert_eq!(row_tree.get("/higgs/n_btags").unwrap().entries(), events);
    assert_eq!(col_tree.get("/higgs/n_btags").unwrap().entries(), events);
    assert_same_merge(&row_tree, &col_tree, "/higgs/n_btags");
    assert_same_merge(&row_tree, &col_tree, "/higgs/bb_mass");
    assert_same_merge(&row_tree, &col_tree, "/higgs/visible_energy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: WorkStealing with a random straggler, random
    /// oversubscription, and a random injected kill still processes every
    /// record exactly once and merges to the same histograms as a clean
    /// Static run.
    #[test]
    fn chaotic_work_stealing_matches_clean_static(
        slow_engine in 0usize..3,
        slow_factor in 1.0f64..6.0,
        oversub in 1usize..=16,
        kill_engine in 0usize..3,
        kill_after in 0u64..400,
    ) {
        const EVENTS: u64 = 600;
        let config = |scheduler| IpaConfig {
            scheduler,
            engines_per_session: 3,
            oversub,
            publish_every: 50,
            ..Default::default()
        };

        // Ground truth: a clean static run over the (deterministically
        // generated) dataset.
        let (_, static_st, static_tree) = timed_run(EVENTS, config(SchedulerPolicy::Static));
        prop_assert_eq!(static_st.records_processed, EVENTS);

        // Chaos run: throttled straggler + mid-part engine kill.
        let (manager, proxy) = manager_with(EVENTS, config(SchedulerPolicy::WorkStealing));
        let mut s = manager.create_session(&proxy, 0.0, 3).unwrap();
        s.select_dataset(&DatasetId::new("lc-sched")).unwrap();
        s.load_code(AnalysisCode::Native("higgs-search".into())).unwrap();
        s.inject_speed_factor(slow_engine, slow_factor);
        s.inject_failure(kill_engine, kill_after);
        s.run().unwrap();
        let st = s.wait_finished(Duration::from_secs(60)).unwrap();

        prop_assert_eq!(st.records_processed, EVENTS);
        prop_assert_eq!(st.parts_done, st.parts_total);
        let tree = s.results().unwrap();
        prop_assert_eq!(tree.get("/higgs/n_btags").unwrap().entries(), EVENTS);
        assert_same_merge(&static_tree, &tree, "/higgs/n_btags");
        assert_same_merge(&static_tree, &tree, "/higgs/bb_mass");
        s.close();
    }

    /// PR 3 satellite: the incremental result plane (delta publishes +
    /// cached two-level snapshot) must merge bin-for-bin like the legacy
    /// full-clone plane (`checkpoint_every = 1`) under chaos — random
    /// publish cadence and checkpoint interval, random oversubscription,
    /// an injected mid-part kill, and a rewind mid-run.
    #[test]
    fn chaotic_delta_plane_matches_full_clone_publishes(
        checkpoint_every in 2usize..=32,
        publish_every in 20usize..=200,
        oversub in 1usize..=16,
        kill_engine in 0usize..3,
        kill_after in 0u64..400,
    ) {
        const EVENTS: u64 = 600;
        let run = |cp: usize| -> Tree {
            let (manager, proxy) = manager_with(EVENTS, IpaConfig {
                scheduler: SchedulerPolicy::WorkStealing,
                engines_per_session: 3,
                oversub,
                publish_every,
                checkpoint_every: cp,
                ..Default::default()
            });
            let mut s = manager.create_session(&proxy, 0.0, 3).unwrap();
            s.select_dataset(&DatasetId::new("lc-sched")).unwrap();
            s.load_code(AnalysisCode::Native("higgs-search".into())).unwrap();
            s.inject_failure(kill_engine, kill_after);
            // Start, let deltas flow for a moment, then rewind mid-run:
            // updates staged under the old epoch must not leak into the
            // fresh run's accumulators.
            s.run().unwrap();
            for _ in 0..10 {
                s.poll().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            s.rewind().unwrap();
            s.run().unwrap();
            let st = s.wait_finished(Duration::from_secs(60)).unwrap();
            assert_eq!(st.records_processed, EVENTS);
            assert_eq!(st.parts_done, st.parts_total);

            // The cached snapshot agrees with a from-scratch flat merge of
            // the same accumulators...
            let snap = s.results().unwrap();
            let flat = s.results_flat().unwrap();
            assert_same_merge(&snap, &flat, "/higgs/n_btags");
            assert_same_merge(&snap, &flat, "/higgs/bb_mass");
            // ...and a repeat poll with nothing new is a pure cache hit:
            // zero merges, same Arc, same version.
            let before = s.result_stats();
            let again = s.results().unwrap();
            let after = s.result_stats();
            assert!(
                std::sync::Arc::ptr_eq(&snap, &again),
                "unchanged poll must return the cached snapshot"
            );
            assert_eq!(after.merges_performed, before.merges_performed,
                "unchanged poll must perform zero merges");
            assert_eq!(after.merge_cache_hits, before.merge_cache_hits + 1);
            assert_eq!(after.result_version, before.result_version);

            let out = snap.as_ref().clone();
            s.close();
            out
        };

        // checkpoint_every = 1 is the legacy plane: every publish ships a
        // full-tree clone and no delta is ever applied.
        let clone_tree = run(1);
        let delta_tree = run(checkpoint_every);
        prop_assert_eq!(clone_tree.get("/higgs/n_btags").unwrap().entries(), EVENTS);
        prop_assert_eq!(delta_tree.get("/higgs/n_btags").unwrap().entries(), EVENTS);
        assert_same_merge(&clone_tree, &delta_tree, "/higgs/n_btags");
        assert_same_merge(&clone_tree, &delta_tree, "/higgs/bb_mass");
    }

    /// PR 8 satellite: the columnar data plane must merge bin-for-bin like
    /// the row plane under chaos — random oversubscription and publish
    /// cadence, an injected mid-part engine kill, and a rewind mid-run
    /// (see [`assert_columnar_matches_row`]).
    #[test]
    fn chaotic_columnar_plane_matches_row_plane(
        publish_every in 20usize..=200,
        oversub in 1usize..=16,
        kill_engine in 0usize..3,
        kill_after in 0u64..400,
    ) {
        assert_columnar_matches_row(600, publish_every, oversub, kill_engine, kill_after);
    }
}

/// The chaos case above with parts longer than a transcode chunk: four
/// chunks' worth of events in three parts, publish batches that straddle
/// the chunk edge at 8192, and an engine killed one record past it.
#[test]
fn columnar_plane_matches_row_plane_across_chunk_edges() {
    let chunk = ipa_dataset::COLUMN_CHUNK as u64;
    assert_columnar_matches_row(4 * chunk, 3000, 1, 1, chunk + 1);
}
