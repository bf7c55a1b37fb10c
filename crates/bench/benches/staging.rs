//! Staging benches.
//!
//! Table 1: the simulated staging + analysis pipeline at the paper's
//! operating point (471 MB, 16 nodes), plus the local alternative. The
//! *simulated seconds* are the reproduction; Criterion here measures that
//! the simulator itself is cheap enough to sweep densely.
//!
//! PR 4 additions: the real staging plane. `staging_plane` stages an
//! actual in-memory dataset through [`SitePlane`] — eager (read pass then
//! transfers) vs pipelined (read overlapped with chunked transfers) vs a
//! cached re-select (split-cache hit, the interactive loop's steady
//! state) — gated on all three delivering bit-identical parts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipa_core::{
    DatasetPlane, DatasetStore, IpaConfig, LocatorService, SitePlane, SplitSpec, StagerConfig,
};
use ipa_dataset::{DatasetId, EventGeneratorConfig, GeneratorConfig};
use ipa_simgrid::{simulate_local_analysis, simulate_session, PaperCalibration};

const EVENTS: u64 = 20_000;
const PARTS: usize = 16;

fn locator() -> LocatorService {
    let store = DatasetStore::new();
    store
        .put(ipa_dataset::generate_dataset(
            "bench-ds",
            "staging bench events",
            &GeneratorConfig::Event(EventGeneratorConfig {
                events: EVENTS,
                ..Default::default()
            }),
        ))
        .unwrap();
    LocatorService::new(store, "bench-site")
}

/// A plane staging through the pipeline on every call (no split cache),
/// with overlap on or off.
fn uncached_plane(overlap: bool) -> SitePlane {
    let config = IpaConfig {
        split_cache: false,
        stage_overlap: overlap,
        // Small chunks so the 20k-event dataset actually pipelines.
        stage_chunk_bytes: 64 << 10,
        ..Default::default()
    };
    let sc = StagerConfig::from_config(&config);
    SitePlane::new(locator(), &config).with_stager_config(sc)
}

fn spec() -> SplitSpec {
    SplitSpec {
        micro_parts: false,
        parts: PARTS,
        byte_balanced: true,
    }
}

fn bench_staging(c: &mut Criterion) {
    let cal = PaperCalibration::paper2006();
    let mut g = c.benchmark_group("table1");
    g.bench_function("simulate_grid_471mb_16n", |b| {
        b.iter(|| simulate_session(black_box(471.0), black_box(16), &cal))
    });
    g.bench_function("simulate_local_471mb", |b| {
        b.iter(|| simulate_local_analysis(black_box(471.0), &cal))
    });
    g.finish();

    // Print the actual Table-1 numbers alongside the bench.
    let grid = simulate_session(471.0, 16, &cal);
    let local = simulate_local_analysis(471.0, &cal);
    println!(
        "[table1] local total = {:.0} s (paper 2700), grid total = {:.0} s (paper 259), speedup {:.1}x",
        local.total_s,
        grid.total_s,
        local.total_s / grid.total_s
    );

    let id = DatasetId::new("bench-ds");

    // Correctness gate: eager, pipelined, and cached-reselect staging must
    // all deliver the same parts bit for bit before any timing matters.
    {
        let eager = uncached_plane(false).stage(&id, &spec()).unwrap();
        let piped = uncached_plane(true).stage(&id, &spec()).unwrap();
        assert_eq!(eager.parts.len(), piped.parts.len());
        for (a, b) in eager.parts.iter().zip(&piped.parts) {
            assert_eq!(a, b, "pipelined delivery diverged from eager");
        }
        let mut cached = SitePlane::new(locator(), &IpaConfig::default());
        let miss = cached.stage(&id, &spec()).unwrap();
        let hit = cached.stage(&id, &spec()).unwrap();
        assert!(!miss.from_cache && hit.from_cache);
        for (a, b) in miss.parts.iter().zip(&hit.parts) {
            assert!(
                a.same_view(b),
                "cache hit must return the staged part views themselves"
            );
        }
    }

    let mut g = c.benchmark_group("staging_plane");
    let mut eager = uncached_plane(false);
    g.bench_function("stage_eager_16p", |b| {
        b.iter(|| black_box(eager.stage(&id, &spec()).unwrap()))
    });
    let mut piped = uncached_plane(true);
    g.bench_function("stage_pipelined_16p", |b| {
        b.iter(|| black_box(piped.stage(&id, &spec()).unwrap()))
    });
    let mut cached = SitePlane::new(locator(), &IpaConfig::default());
    cached.stage(&id, &spec()).unwrap();
    g.bench_function("stage_cached_reselect_16p", |b| {
        b.iter(|| {
            let staged = cached.stage(&id, &spec()).unwrap();
            assert!(staged.from_cache);
            black_box(staged)
        })
    });
    g.finish();

    // The calibrated "move parts" shape of the last uncached stages.
    let st = piped.stats();
    println!(
        "[staging] sim read {:.1} s + transfer {:.1} s → pipelined {:.1} s \
         (overlap hides {:.0}% of eager); {} chunks/stage",
        st.sim_read_s,
        st.sim_transfer_s,
        st.sim_pipelined_s,
        st.overlap_ratio * 100.0,
        st.chunks_sent / st.cache_misses.max(1),
    );
}

criterion_group!(benches, bench_staging);
criterion_main!(benches);
