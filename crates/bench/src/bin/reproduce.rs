//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p ipa-bench --bin reproduce -- all
//! cargo run --release -p ipa-bench --bin reproduce -- table1 table2 figure5 equations live
//! ```
//!
//! Output compares the paper's published numbers with this reproduction's
//! simulated (and, for `live`, really-measured) values. SVG renderings of
//! Figure 5 are written to `reproduction/`.

use ipa_aida::render::{render_series_svg, Series, SvgOptions};
use ipa_bench::*;
use ipa_model::{PAPER_GRID, PAPER_LOCAL};
use ipa_simgrid::PaperCalibration;

fn hline() {
    println!("{}", "-".repeat(78));
}

fn table1_cmd(cal: &PaperCalibration) {
    hline();
    println!("TABLE 1 — local vs. Grid (16 nodes), 471 MB dataset, seconds");
    hline();
    let (local, grid) = table1(cal);
    println!("{:<28} {:>12} {:>12}", "phase", "paper", "simulated");
    println!(
        "{:<28} {:>12} {:>12.0}",
        "local: get dataset (WAN)", "1920 (32 min)", local.fetch_s
    );
    println!(
        "{:<28} {:>12} {:>12.0}",
        "local: analysis", "780 (13 min)", local.analysis_s
    );
    println!(
        "{:<28} {:>12} {:>12.0}",
        "local: TOTAL", "2700 (45 min)", local.total_s
    );
    println!(
        "{:<28} {:>12} {:>12.0}",
        "grid: stage dataset",
        "174",
        grid.stage_dataset_s()
    );
    println!(
        "{:<28} {:>12} {:>12.0}",
        "grid: stage code", "7", grid.stage_code_s
    );
    println!(
        "{:<28} {:>12} {:>12.0}",
        "grid: analysis", "258", grid.analysis_s
    );
    println!(
        "{:<28} {:>12} {:>12.0}",
        "grid: TOTAL (wall clock)", "259 (4m19s)", grid.total_s
    );
    println!(
        "grid speedup over local: paper ~10x, simulated {:.1}x",
        local.total_s / grid.total_s
    );
    println!(
        "note: the paper's own Table 1 rows do not sum to its total; we report\n\
         both a sequential sum ({:.0} s) and the overlapped wall clock above.",
        grid.sequential_total_s
    );
}

fn table2_cmd(cal: &PaperCalibration) {
    hline();
    println!("TABLE 2 — stage & analyze vs. node count, 471 MB dataset, seconds");
    hline();
    println!(
        "{:>5} | {:>10} {:>10} | {:>6} {:>6} | {:>10} {:>10} | {:>9} {:>9}",
        "nodes",
        "moveW(pap)",
        "moveW(sim)",
        "sp(pap)",
        "sp(sim)",
        "parts(pap)",
        "parts(sim)",
        "ana(pap)",
        "ana(sim)"
    );
    let rows = table2_rows(cal);
    for (row, (n, mw, sp, mp, an)) in rows.iter().zip(PAPER_TABLE2) {
        println!(
            "{:>5} | {:>10.0} {:>10.0} | {:>6.0} {:>6.0} | {:>10.0} {:>10.0} | {:>9.0} {:>9.0}",
            n, mw, row.move_whole_s, sp, row.split_s, mp, row.move_parts_s, an, row.analysis_s
        );
    }
    println!(
        "shape checks: move-whole & split flat in N; move-parts ~ 46 + 62/N;\n\
         analysis ~ 1/N (paper's absolute analysis column is internally\n\
         inconsistent with Table 1 — see EXPERIMENTS.md)."
    );
}

fn figure5_cmd(cal: &PaperCalibration) {
    hline();
    println!("FIGURE 5 — T(X, N) surfaces: local (gold) vs grid (blue)");
    hline();
    let paper = figure5_paper();
    let sim = figure5_simulated(cal);
    println!("paper-equation surface (s), rows = X MB, cols = N:");
    print_surface(&paper);
    println!("\nsimulated surface (s):");
    print_surface(&sim);

    for n in [2usize, 4, 8, 16, 32] {
        let (p, s) = crossovers(cal, n);
        println!(
            "crossover (grid wins above) N={n:>2}: paper-eq {} MB, simulated {} MB",
            p.map(|x| format!("{x:.1}")).unwrap_or_else(|| "—".into()),
            s.map(|x| format!("{x:.1}")).unwrap_or_else(|| "—".into()),
        );
    }

    // SVG rendering: one slice per N of interest, local vs grid.
    std::fs::create_dir_all("reproduction").ok();
    let mut series = Vec::new();
    series.push(Series {
        label: "local".into(),
        color: "#c9a227".into(),
        points: sim
            .iter()
            .filter(|p| p.n == 16)
            .map(|p| (p.x_mb, p.t_local_s))
            .collect(),
    });
    for (n, color) in [(1usize, "#9ecbff"), (4, "#5a9bd8"), (16, "#1f4e96")] {
        series.push(Series {
            label: format!("grid N={n}"),
            color: color.into(),
            points: sim
                .iter()
                .filter(|p| p.n == n)
                .map(|p| (p.x_mb, p.t_grid_s))
                .collect(),
        });
    }
    let svg = render_series_svg(
        "Figure 5: analysis time vs dataset size (slices of the N axis)",
        &series,
        &SvgOptions::default(),
    );
    std::fs::write("reproduction/figure5.svg", svg).ok();
    println!("wrote reproduction/figure5.svg");
}

fn print_surface(points: &[ipa_model::SurfacePoint]) {
    let mut ns: Vec<usize> = points.iter().map(|p| p.n).collect();
    ns.sort_unstable();
    ns.dedup();
    let mut xs: Vec<f64> = points.iter().map(|p| p.x_mb).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs.dedup();
    print!("{:>9} {:>9} |", "X (MB)", "local");
    for n in &ns {
        print!(" {:>8}", format!("N={n}"));
    }
    println!();
    for &x in &xs {
        let local = points
            .iter()
            .find(|p| p.x_mb == x)
            .map(|p| p.t_local_s)
            .unwrap_or(f64::NAN);
        print!("{x:>9.1} {local:>9.0} |");
        for &n in &ns {
            let t = points
                .iter()
                .find(|p| p.x_mb == x && p.n == n)
                .map(|p| p.t_grid_s)
                .unwrap_or(f64::NAN);
            print!(" {t:>8.0}");
        }
        println!();
    }
}

fn equations_cmd(cal: &PaperCalibration) {
    hline();
    println!("FITTED EQUATIONS — least-squares over simulated measurements");
    hline();
    let (local, grid) = fitted_equations(cal);
    println!("               {:>10} {:>12}", "paper", "refit (sim)");
    println!(
        "local move     {:>10.2} {:>12.2}   (s/MB over WAN)",
        PAPER_LOCAL.move_s_per_mb, local.move_s_per_mb
    );
    println!(
        "local analyze  {:>10.2} {:>12.2}   (s/MB)",
        PAPER_LOCAL.analyze_s_per_mb, local.analyze_s_per_mb
    );
    println!(
        "local slope    {:>10.2} {:>12.2}   (T_local = k X)",
        PAPER_LOCAL.slope(),
        local.slope()
    );
    println!(
        "grid a         {:>10.3} {:>12.3}   (X term)",
        PAPER_GRID.a_s_per_mb, grid.a_s_per_mb
    );
    println!(
        "grid c         {:>10.1} {:>12.1}   (constant)",
        PAPER_GRID.c_s, grid.c_s
    );
    println!(
        "grid d         {:>10.1} {:>12.1}   (1/N term)",
        PAPER_GRID.d_s, grid.d_s
    );
    println!(
        "grid b         {:>10.2} {:>12.2}   (X/N term — parallel analysis)",
        PAPER_GRID.b_s_per_mb, grid.b_s_per_mb
    );
}

fn live_cmd() {
    hline();
    println!("LIVE — real engines, real records (shape check for Table 2's analysis column)");
    hline();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let events = 200_000u64;
    let rig = LiveRig::new(events, 5_000);
    println!("dataset: {events} simulated LC events, interpreted analysis script");
    println!(
        "host exposes {cores} CPU core(s) — speedup saturates there; on a\n\
         single-core host the table verifies overhead, not parallelism"
    );
    println!(
        "{:>8} {:>12} {:>9} {:>14}",
        "engines", "wall (s)", "speedup", "records/s"
    );
    let base = rig.run_code_to_completion(1, LiveRig::higgs_script());
    println!(
        "{:>8} {:>12.3} {:>9.2} {:>14.0}",
        1,
        base,
        1.0,
        events as f64 / base
    );
    for n in [2usize, 4, 8] {
        let t = rig.run_code_to_completion(n, LiveRig::higgs_script());
        println!(
            "{:>8} {:>12.3} {:>9.2} {:>14.0}",
            n,
            t,
            base / t,
            events as f64 / t
        );
    }
    // Interactivity yardstick: time to first merged partial result.
    let mut s = rig.session(4);
    let report = ipa_client::monitor_run(
        &mut s,
        std::time::Duration::from_millis(1),
        std::time::Duration::from_secs(120),
        |_, _| {},
    )
    .unwrap();
    println!(
        "first feedback on 4 engines: {:?} (paper requires < 60 s)",
        report.first_feedback.unwrap_or_default()
    );
    s.close();
}

fn ablations_cmd(cal: &PaperCalibration) {
    hline();
    println!("ABLATIONS — design choices DESIGN.md calls out");
    hline();

    // 1. Dedicated interactive queue vs shared batch queue (§1/§6: "the
    //    need for a fast processing queue").
    println!("\n[A1] scheduler queue delay vs session total (471 MB, 16 nodes):");
    println!(
        "{:>14} {:>12} {:>16}",
        "queue delay", "total (s)", "interactive?"
    );
    for delay in [2.0, 15.0, 60.0, 600.0, 3600.0] {
        let mut c = *cal;
        c.scheduler.queue_delay_s = delay;
        let b = ipa_simgrid::simulate_session(471.0, 16, &c);
        println!(
            "{:>12.0} s {:>12.0} {:>16}",
            delay,
            b.total_s,
            if b.engines_ready_s < 60.0 {
                "yes"
            } else {
                "NO"
            }
        );
    }

    // 2. Parallel vs serial engine startup.
    println!("\n[A2] engine startup mode (471 MB):");
    println!("{:>8} {:>16} {:>16}", "nodes", "parallel (s)", "serial (s)");
    for n in [1usize, 4, 16] {
        let mut par = *cal;
        par.scheduler.parallel_startup = true;
        let mut ser = *cal;
        ser.scheduler.parallel_startup = false;
        println!(
            "{:>8} {:>16.0} {:>16.0}",
            n,
            ipa_simgrid::simulate_session(471.0, n, &par).engines_ready_s,
            ipa_simgrid::simulate_session(471.0, n, &ser).engines_ready_s
        );
    }

    // 3. Source-NIC aggregate cap: why move-parts stops improving with N.
    println!("\n[A3] move-parts vs staging-source bandwidth (471 MB, N sweep):");
    println!(
        "{:>12} {:>10} {:>10} {:>10}",
        "disk MB/s", "N=1", "N=4", "N=16"
    );
    for disk in [5.0, 10.24, 40.0, 200.0] {
        let mut c = *cal;
        c.staging_disk_mbps = disk;
        let t = |n| ipa_simgrid::simulate_session(471.0, n, &c).move_parts_s;
        println!(
            "{:>12.1} {:>10.0} {:>10.0} {:>10.0}",
            disk,
            t(1),
            t(4),
            t(16)
        );
    }

    // 4. Publish interval vs first-feedback latency (live, real engines).
    println!("\n[A4] publish interval vs first feedback (live, 100k events, 4 engines):");
    println!(
        "{:>16} {:>18} {:>12}",
        "publish_every", "first feedback", "polls"
    );
    for every in [100usize, 1_000, 10_000, 100_000] {
        let rig = LiveRig::new(100_000, every);
        let mut s = rig.session_with(4, LiveRig::higgs_script());
        let report = ipa_client::monitor_run(
            &mut s,
            std::time::Duration::from_micros(200),
            std::time::Duration::from_secs(120),
            |_, _| {},
        )
        .expect("monitored run");
        println!(
            "{:>16} {:>18} {:>12}",
            every,
            format!("{:?}", report.first_feedback.unwrap_or_default()),
            report.polls
        );
        s.close();
    }

    // 5. Merge fan-in: total pairwise merges flat vs hierarchical (§2.5).
    println!("\n[A5] merge plane: pairwise tree merges per client poll, 64 parts:");
    use ipa_core::{AidaManager, PartPayload, PartUpdate};
    let mk_manager = || {
        let mut m = AidaManager::new();
        for p in 0..64u64 {
            let mut h = ipa_aida::Histogram1D::new("m", 100, 0.0, 240.0);
            h.fill1((p % 50) as f64);
            let mut tree = ipa_aida::Tree::new();
            tree.put("/m", h).unwrap();
            m.publish(
                p,
                PartUpdate {
                    engine: p as usize,
                    epoch: 0,
                    seq: 0,
                    processed: 1,
                    total: 1,
                    payload: PartPayload::Checkpoint(tree),
                    done: true,
                },
            );
        }
        m
    };
    let mut flat = mk_manager();
    flat.merged().unwrap();
    println!("{:>24} {:>10}", "flat", flat.merges_performed());
    for fan in [2usize, 4, 8, 16] {
        let mut m = mk_manager();
        m.merged_hierarchical(fan).unwrap();
        println!(
            "{:>24} {:>10}",
            format!("hierarchical fan-in {fan}"),
            m.merges_performed()
        );
    }
    // The incremental snapshot plane: the first poll pays the two-level
    // merge, repeat polls with nothing new perform zero merges.
    let mut m = mk_manager();
    m.snapshot().unwrap();
    let first = m.merges_performed();
    m.snapshot().unwrap();
    m.snapshot().unwrap();
    println!(
        "{:>24} {:>10}   (then {} merges across 2 repeat polls, {} cache hits)",
        "cached snapshot",
        first,
        m.merges_performed() - first,
        m.merge_cache_hits()
    );
    println!(
        "(identical merged output — the win is that each sub-merger's work can\n\
         run on its own node, bounding the top-level manager's fan-in, and the\n\
         cached snapshot makes an unchanged client poll free)"
    );

    // 6. Staging plane: split cache × read/transfer overlap — Table 2's
    //    "Move Parts" phase at the plane level, plus the re-select cost
    //    the cache removes from the interactive loop.
    println!("\n[A6] staging plane: split cache × overlap, 30k events into 16 parts:");
    {
        use ipa_core::{DatasetPlane, SitePlane, SplitSpec, StagerConfig};
        let locator = || {
            let store = ipa_core::DatasetStore::new();
            store
                .put(ipa_dataset::generate_dataset(
                    "abl-ds",
                    "staging-ablation events",
                    &ipa_dataset::GeneratorConfig::Event(ipa_dataset::EventGeneratorConfig {
                        events: 30_000,
                        ..Default::default()
                    }),
                ))
                .unwrap();
            ipa_core::LocatorService::new(store, "ablation-site")
        };
        let spec = SplitSpec {
            micro_parts: false,
            parts: 16,
            byte_balanced: true,
        };
        let id = ipa_dataset::DatasetId::new("abl-ds");
        println!(
            "{:>7} {:>9} {:>13} {:>13} {:>12} {:>8}",
            "cache", "overlap", "stage (ms)", "restage (ms)", "sim (s)", "hidden"
        );
        for (cache, overlap) in [(false, false), (false, true), (true, false), (true, true)] {
            let config = ipa_core::IpaConfig {
                split_cache: cache,
                stage_overlap: overlap,
                stage_chunk_bytes: 64 << 10,
                ..Default::default()
            };
            let mut plane = SitePlane::new(locator(), &config)
                .with_stager_config(StagerConfig::from_config(&config));
            plane.stage(&id, &spec).unwrap();
            let first = plane.stats();
            let t0 = std::time::Instant::now();
            plane.stage(&id, &spec).unwrap();
            let restage_ms = t0.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:>7} {:>9} {:>13.2} {:>13.3} {:>12.1} {:>7.0}%",
                if cache { "on" } else { "off" },
                if overlap { "on" } else { "off" },
                first.split_ms + first.deliver_ms,
                restage_ms,
                first.sim_pipelined_s,
                first.overlap_ratio * 100.0,
            );
        }
        println!(
            "(a cached restage is O(parts) Arc clones — re-selecting a dataset in\n\
             the interactive loop skips Table 2's split + move-parts entirely)"
        );
    }
}

/// Flatten every numeric leaf of a JSON document into `path -> value`
/// pairs (objects dotted, arrays indexed). A tiny hand-rolled scanner:
/// the perf diff only ever reads documents this command itself wrote,
/// and staying dependency-free keeps it usable in stripped-down builds.
fn numeric_leaves(json: &str) -> Vec<(String, f64)> {
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn string(b: &[u8], i: &mut usize) -> String {
        *i += 1; // opening quote
        let mut s = String::new();
        while *i < b.len() && b[*i] != b'"' {
            if b[*i] == b'\\' {
                *i += 1;
            }
            if *i < b.len() {
                s.push(b[*i] as char);
                *i += 1;
            }
        }
        *i += 1; // closing quote
        s
    }
    fn value(b: &[u8], i: &mut usize, path: &mut Vec<String>, out: &mut Vec<(String, f64)>) {
        skip_ws(b, i);
        if *i >= b.len() {
            return;
        }
        match b[*i] {
            b'{' => {
                *i += 1;
                loop {
                    skip_ws(b, i);
                    if *i >= b.len() {
                        break;
                    }
                    if b[*i] == b'}' {
                        *i += 1;
                        break;
                    }
                    if b[*i] == b',' {
                        *i += 1;
                        continue;
                    }
                    let key = string(b, i);
                    skip_ws(b, i);
                    if *i < b.len() && b[*i] == b':' {
                        *i += 1;
                    }
                    path.push(key);
                    value(b, i, path, out);
                    path.pop();
                }
            }
            b'[' => {
                *i += 1;
                let mut idx = 0usize;
                loop {
                    skip_ws(b, i);
                    if *i >= b.len() {
                        break;
                    }
                    if b[*i] == b']' {
                        *i += 1;
                        break;
                    }
                    if b[*i] == b',' {
                        *i += 1;
                        continue;
                    }
                    path.push(idx.to_string());
                    value(b, i, path, out);
                    path.pop();
                    idx += 1;
                }
            }
            b'"' => {
                let _ = string(b, i);
            }
            b't' | b'f' | b'n' => {
                while *i < b.len() && b[*i].is_ascii_alphabetic() {
                    *i += 1;
                }
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                if let Ok(v) = std::str::from_utf8(&b[start..*i])
                    .unwrap_or("")
                    .parse::<f64>()
                {
                    out.push((path.join("."), v));
                }
            }
        }
    }
    let b = json.as_bytes();
    let mut i = 0usize;
    let (mut path, mut out) = (Vec::new(), Vec::new());
    value(b, &mut i, &mut path, &mut out);
    out
}

/// Metric-by-metric comparison of the fresh snapshot against the
/// previously committed one (positive change = the number went up;
/// whether that is good depends on the metric — appends and RTTs want
/// down, records/s wants up).
fn print_perf_diff(previous: &str, current: &str) {
    let old: std::collections::HashMap<String, f64> =
        numeric_leaves(previous).into_iter().collect();
    let fresh = numeric_leaves(current);
    hline();
    println!("PERF DIFF — this run vs the committed BENCH_results.json");
    hline();
    println!(
        "{:<58} {:>13} {:>13} {:>8}",
        "metric", "previous", "current", "change"
    );
    for (path, now) in &fresh {
        match old.get(path) {
            Some(was) if *was != 0.0 => println!(
                "{:<58} {:>13.3} {:>13.3} {:>+7.1}%",
                path,
                was,
                now,
                (now - was) / was.abs() * 100.0
            ),
            Some(was) => println!("{:<58} {:>13.3} {:>13.3} {:>8}", path, was, now, "-"),
            None => println!("{:<58} {:>13} {:>13.3} {:>8}", path, "(new)", now, "-"),
        }
    }
    for (path, was) in numeric_leaves(previous) {
        if !fresh.iter().any(|(p, _)| p == &path) {
            println!("{:<58} {:>13.3} {:>13} {:>8}", path, was, "(gone)", "-");
        }
    }
}

/// Machine-readable perf snapshot → `BENCH_results.json` (cwd): journal
/// append cost per durability mode, decode + replay throughput (what a
/// manager restart pays), the script-fusion ladder, and a small live
/// end-to-end run as a throughput yardstick. When a previous snapshot is
/// already committed in the working directory, prints a metric-by-metric
/// diff against it after writing the new one. CI archives the file per
/// commit.
fn perf_cmd() {
    use ipa_core::{
        decode_events, replay, AnalysisCode, JournalBackend, JournalEvent, PartPayload, PartUpdate,
        SessionJournal,
    };
    use std::time::Instant;

    hline();
    println!("PERF — machine-readable snapshot -> BENCH_results.json");
    hline();

    // A realistic checkpoint payload: the higgs-search tree over a small
    // event sample, the shape engines publish mid-run.
    let ds = ipa_dataset::generate_dataset(
        "perf-journal",
        "perf snapshot events",
        &ipa_dataset::GeneratorConfig::Event(ipa_dataset::EventGeneratorConfig {
            events: 500,
            ..Default::default()
        }),
    );
    let mut host = ipa_script::AidaHost::new();
    ipa_core::run_analyzer_serial(
        &mut ipa_core::HiggsSearchAnalyzer::default(),
        &ds.records,
        &mut host,
    )
    .unwrap();
    let tree = host.tree;

    let make_event = |i: usize| JournalEvent::ResultUpdate {
        part: (i % 16) as u64,
        update: PartUpdate {
            engine: i % 4,
            epoch: 0,
            seq: 0,
            processed: 100,
            total: 100,
            payload: PartPayload::Checkpoint(tree.clone()),
            done: i % 16 == 15,
        },
    };
    const APPENDS: usize = 2_000;
    const FSYNC_APPENDS: usize = 64;
    let mut events: Vec<JournalEvent> = vec![
        JournalEvent::SessionCreated {
            session: 1,
            subject: "/CN=perf".into(),
            engines: 4,
        },
        JournalEvent::DatasetSelected {
            id: "perf-journal".into(),
        },
        JournalEvent::CodeLoaded {
            code: AnalysisCode::Native("higgs-search".into()),
        },
        JournalEvent::RunStarted,
    ];
    events.extend((0..APPENDS).map(make_event));
    events.push(JournalEvent::ResultVersion { version: 1 });

    // Append cost per durability mode.
    let t0 = Instant::now();
    let mut mem = SessionJournal::new(JournalBackend::memory(), 0);
    for ev in &events {
        mem.append(ev);
    }
    let append_memory_us = t0.elapsed().as_secs_f64() * 1e6 / events.len() as f64;

    let dir = std::env::temp_dir().join(format!("ipa-reproduce-perf-{}", std::process::id()));
    let buffered_path = dir.join("buffered.wal");
    let t0 = Instant::now();
    let mut buf = SessionJournal::new(JournalBackend::file(&buffered_path, false), 0);
    for ev in &events {
        buf.append(ev);
    }
    let append_buffered_us = t0.elapsed().as_secs_f64() * 1e6 / events.len() as f64;

    let fsync_path = dir.join("fsync.wal");
    let t0 = Instant::now();
    let mut fs = SessionJournal::new(JournalBackend::file(&fsync_path, true), 0);
    for ev in events.iter().take(FSYNC_APPENDS) {
        fs.append(ev);
    }
    let append_fsync_us = t0.elapsed().as_secs_f64() * 1e6 / FSYNC_APPENDS as f64;
    assert_eq!(
        mem.append_errors() + buf.append_errors() + fs.append_errors(),
        0
    );

    // Recovery cost: decode the frames, then fold them back into a
    // session (the restart path's actual work).
    let bytes = mem.handle().unwrap().lock().clone();
    let journal_bytes = bytes.len();
    let t0 = Instant::now();
    let decoded = decode_events(&bytes);
    let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(decoded.len(), events.len());
    let t0 = Instant::now();
    let rec = replay(&events, 8, 1);
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replay_events_per_s = events.len() as f64 / (replay_ms / 1e3);
    assert_eq!(rec.session, 1);
    let _ = std::fs::remove_dir_all(&dir);

    // Live yardstick: a short end-to-end run with real engines.
    let live_events = 20_000u64;
    let rig = LiveRig::new(live_events, 2_000);
    let live_wall_s = rig.run_code_to_completion(2, AnalysisCode::Native("higgs-search".into()));
    let live_records_per_s = live_events as f64 / live_wall_s;

    // Data-plane layouts: end-to-end engine throughput of the row oracle
    // vs the columnar plane on the native Higgs workload. The per-record
    // acceptance ratio lives in the `columnar` criterion bench; this
    // records the session-level number (staging + transcode included).
    let layout_events = 50_000u64;
    let layout_rig = |layout| {
        LiveRig::with_config(
            layout_events,
            ipa_core::IpaConfig {
                publish_every: 5_000,
                data_layout: layout,
                ..Default::default()
            },
        )
    };
    let row_wall_s = layout_rig(ipa_dataset::DataLayout::Row)
        .run_code_to_completion(2, AnalysisCode::Native("higgs-search".into()));
    let col_wall_s = layout_rig(ipa_dataset::DataLayout::Columnar)
        .run_code_to_completion(2, AnalysisCode::Native("higgs-search".into()));
    let row_records_per_s = layout_events as f64 / row_wall_s;
    let col_records_per_s = layout_events as f64 / col_wall_s;

    // Script fusion ladder: the canonical guarded-fill analyze body over
    // one columnar part, through the engine's `run_fused` dispatch — the
    // tree-walk as the semantic floor, then the VM at each fusion level.
    // Gate first: every rung must produce a bit-identical result tree.
    let fusion_src = r#"
        fn init() {
            h1("/f/bb_mass", 60, 0.0, 240.0);
            h1("/f/visible_energy", 60, 0.0, 600.0);
        }
        fn process(e) {
            let m = e.bb_mass;
            if m != null { fill("/f/bb_mass", m); }
            fill("/f/visible_energy", e.visible_energy);
        }
    "#;
    let fusion_events = 20_000u64;
    let frecords = ipa_dataset::RecordBatch::new(
        ipa_dataset::EventGeneratorConfig {
            events: fusion_events,
            signal_fraction: 0.4,
            ..Default::default()
        }
        .generate(),
    );
    let fcolumns = std::sync::Arc::new(
        ipa_dataset::ColumnBatch::from_records(&frecords).expect("homogeneous event batch"),
    );
    let fprogram = ipa_script::compile(fusion_src).unwrap();
    let fusion_mode = |backend: ipa_core::ScriptBackend, fusion: ipa_core::ScriptFusion| {
        let run_once = || {
            let mut engine = ipa_script::engine_for(&fprogram, backend, fusion).unwrap();
            let mut kernel = (backend == ipa_core::ScriptBackend::Vm
                && fusion == ipa_core::ScriptFusion::Kernel)
                .then(|| ipa_script::BatchKernel::compile(&fprogram))
                .flatten();
            let mut host = ipa_script::AidaHost::new();
            engine.run_init(&mut host).unwrap();
            let (done, err) = ipa_script::run_fused(
                engine.as_mut(),
                kernel.as_mut(),
                &frecords,
                Some(&fcolumns),
                0..frecords.len(),
                &mut host,
            );
            assert_eq!(done as u64, fusion_events);
            assert!(err.is_none(), "{err:?}");
            engine.run_end(&mut host).unwrap();
            host
        };
        let tree = format!("{:?}", run_once().tree); // warmup doubles as the gate run
        let t0 = Instant::now();
        run_once();
        (fusion_events as f64 / t0.elapsed().as_secs_f64(), tree)
    };
    let (interp_rps, interp_tree) =
        fusion_mode(ipa_core::ScriptBackend::Interp, ipa_core::ScriptFusion::Off);
    let (vm_off_rps, vm_off_tree) =
        fusion_mode(ipa_core::ScriptBackend::Vm, ipa_core::ScriptFusion::Off);
    let (vm_super_rps, vm_super_tree) =
        fusion_mode(ipa_core::ScriptBackend::Vm, ipa_core::ScriptFusion::Super);
    let (vm_kernel_rps, vm_kernel_tree) =
        fusion_mode(ipa_core::ScriptBackend::Vm, ipa_core::ScriptFusion::Kernel);
    assert_eq!(interp_tree, vm_off_tree, "vm/off diverges from tree-walk");
    assert_eq!(
        interp_tree, vm_super_tree,
        "vm/super diverges from tree-walk"
    );
    assert_eq!(
        interp_tree, vm_kernel_tree,
        "vm/kernel diverges from tree-walk"
    );
    let kernel_speedup = vm_kernel_rps / vm_off_rps;
    println!(
        "script fusion: interp {interp_rps:.0} rec/s, vm/off {vm_off_rps:.0}, \
         vm/super {vm_super_rps:.0}, vm/kernel {vm_kernel_rps:.0} ({kernel_speedup:.1}x vm/off)"
    );

    // Node sweep: records/s vs engine count under the default layout,
    // on the compute-bound interpreted script (Table 2's analysis shape).
    let sweep_events = 40_000u64;
    let sweep_rig = LiveRig::new(sweep_events, 5_000);
    let mut sweep_json = String::new();
    for (i, &n) in [1usize, 2, 4, 8].iter().enumerate() {
        let wall = sweep_rig.run_code_to_completion(n, LiveRig::higgs_script());
        if i > 0 {
            sweep_json.push_str(", ");
        }
        sweep_json.push_str(&format!("\"{}\": {:.0}", n, sweep_events as f64 / wall));
    }

    // Multi-tenant sweep: aggregate records/s as tenants stack onto one
    // manager with and without the shared engine pool, then idle-session
    // poll RTT through the reactor gateway as connected clients pile up.
    // The acceptance shape: aggregate throughput scales with the pool,
    // idle p99 stays flat under client fan-in.
    let mt_events = 20_000u64;
    let mt_rig = |pool: bool| {
        LiveRig::with_config(
            mt_events,
            ipa_core::IpaConfig {
                engine_pool: pool,
                pool_size: if pool { 8 } else { 0 },
                pool_lease_timeout_ms: 30_000,
                scheduler: ipa_core::SchedulerPolicy::WorkStealing,
                publish_every: 2_000,
                ..Default::default()
            },
        )
    };
    let mut mt_json = String::new();
    for (i, pool) in [false, true].into_iter().enumerate() {
        let rig = mt_rig(pool);
        if i > 0 {
            mt_json.push_str(", ");
        }
        mt_json.push_str(&format!(
            "\"pool_{}\": {{ ",
            if pool { "on" } else { "off" }
        ));
        for (j, tenants) in [1usize, 2, 4].into_iter().enumerate() {
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..tenants {
                    scope.spawn(|| {
                        rig.run_code_to_completion(2, AnalysisCode::Native("higgs-search".into()));
                    });
                }
            });
            let agg = (mt_events * tenants as u64) as f64 / t0.elapsed().as_secs_f64();
            if j > 0 {
                mt_json.push_str(", ");
            }
            mt_json.push_str(&format!("\"{tenants}\": {agg:.0}"));
        }
        mt_json.push_str(" }");
    }

    // Idle-session poll RTT vs parked connections on the same gateway.
    let rtt_rig = mt_rig(true);
    let mut gw = ipa_core::WsGateway::serve(rtt_rig.manager.clone(), ("127.0.0.1", 0)).unwrap();
    let sec = ipa_simgrid::SecurityDomain::new("bench-site", 1)
        .with_policy(ipa_simgrid::VoPolicy::new("ilc", 64));
    let proxy = sec.issue_proxy("/CN=bench", "ilc", 0.0, 1e6);
    let mut client = ipa_core::WsClient::connect(gw.addr()).unwrap();
    let session = match client
        .call_ok(&ipa_core::WsRequest::CreateSession {
            proxy,
            now: 0.0,
            engines: 2,
        })
        .unwrap()
    {
        ipa_core::WsResponse::SessionCreated { session, .. } => session,
        other => panic!("{other:?}"),
    };
    let mut rtt_json = String::new();
    let mut parked: Vec<ipa_core::WsClient> = Vec::new();
    for (i, others) in [0usize, 64, 256].into_iter().enumerate() {
        while parked.len() < others {
            parked.push(ipa_core::WsClient::connect(gw.addr()).unwrap());
        }
        let mut us: Vec<f64> = (0..300)
            .map(|_| {
                let t0 = Instant::now();
                client.call(&ipa_core::WsRequest::Poll { session }).unwrap();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = us[us.len() / 2];
        let p99 = us[us.len() * 99 / 100];
        if i > 0 {
            rtt_json.push_str(", ");
        }
        rtt_json.push_str(&format!(
            "\"{others}\": {{ \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1} }}"
        ));
    }
    client
        .call_ok(&ipa_core::WsRequest::CloseSession { session })
        .unwrap();
    drop(parked);
    gw.shutdown();

    let json = format!(
        "{{\n\
         \x20 \"generated_by\": \"reproduce perf\",\n\
         \x20 \"journal\": {{\n\
         \x20   \"events\": {},\n\
         \x20   \"bytes\": {journal_bytes},\n\
         \x20   \"append_memory_us_per_event\": {append_memory_us:.3},\n\
         \x20   \"append_file_buffered_us_per_event\": {append_buffered_us:.3},\n\
         \x20   \"append_file_fsync_us_per_event\": {append_fsync_us:.3},\n\
         \x20   \"decode_ms\": {decode_ms:.3},\n\
         \x20   \"replay_ms\": {replay_ms:.3},\n\
         \x20   \"replay_events_per_s\": {replay_events_per_s:.0}\n\
         \x20 }},\n\
         \x20 \"live\": {{\n\
         \x20   \"engines\": 2,\n\
         \x20   \"events\": {live_events},\n\
         \x20   \"wall_s\": {live_wall_s:.4},\n\
         \x20   \"records_per_s\": {live_records_per_s:.0}\n\
         \x20 }},\n\
         \x20 \"engine_throughput\": {{\n\
         \x20   \"engines\": 2,\n\
         \x20   \"events\": {layout_events},\n\
         \x20   \"row_records_per_s\": {row_records_per_s:.0},\n\
         \x20   \"columnar_records_per_s\": {col_records_per_s:.0},\n\
         \x20   \"columnar_speedup\": {:.2}\n\
         \x20 }},\n\
         \x20 \"script_fusion\": {{\n\
         \x20   \"events\": {fusion_events},\n\
         \x20   \"records_per_s\": {{\n\
         \x20     \"interp\": {interp_rps:.0},\n\
         \x20     \"vm_off\": {vm_off_rps:.0},\n\
         \x20     \"vm_super\": {vm_super_rps:.0},\n\
         \x20     \"vm_kernel\": {vm_kernel_rps:.0}\n\
         \x20   }},\n\
         \x20   \"kernel_speedup_vs_vm_off\": {kernel_speedup:.2}\n\
         \x20 }},\n\
         \x20 \"node_sweep\": {{\n\
         \x20   \"events\": {sweep_events},\n\
         \x20   \"code\": \"higgs_script\",\n\
         \x20   \"records_per_s\": {{ {sweep_json} }}\n\
         \x20 }},\n\
         \x20 \"multitenant\": {{\n\
         \x20   \"events_per_tenant\": {mt_events},\n\
         \x20   \"engines_per_tenant\": 2,\n\
         \x20   \"pool_size\": 8,\n\
         \x20   \"aggregate_records_per_s\": {{ {mt_json} }},\n\
         \x20   \"idle_poll_rtt_by_extra_clients\": {{ {rtt_json} }}\n\
         \x20 }}\n\
         }}\n",
        events.len(),
        col_records_per_s / row_records_per_s,
    );
    let previous = std::fs::read_to_string("BENCH_results.json").ok();
    std::fs::write("BENCH_results.json", &json).unwrap();
    println!("{json}");
    println!("wrote BENCH_results.json");
    if let Some(previous) = previous {
        print_perf_diff(&previous, &json);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cal = PaperCalibration::paper2006();
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| run_all || args.iter().any(|a| a == name);

    if want("table1") {
        table1_cmd(&cal);
    }
    if want("table2") {
        table2_cmd(&cal);
    }
    if want("figure5") {
        figure5_cmd(&cal);
    }
    if want("equations") {
        equations_cmd(&cal);
    }
    if want("live") {
        live_cmd();
    }
    if want("ablations") {
        ablations_cmd(&cal);
    }
    if want("perf") {
        perf_cmd();
    }
    hline();
}
