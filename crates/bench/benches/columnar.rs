//! Row vs columnar data-plane throughput on the Higgs workload.
//!
//! The columnar plane transcodes a staged part once into typed column
//! slices (materializing derived fields like `bb_mass` in the process)
//! and fills histograms in bulk; the row plane re-derives every field
//! per record. The acceptance target for the columnar plane is ≥2×
//! records/s on this workload — but only after the correctness gate:
//! both layouts must merge to bit-identical trees before we time
//! anything.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipa_core::{
    builtin_registry, instantiate_code, run_analyzer_batch, AnalysisCode, Analyzer,
    HiggsSearchAnalyzer,
};
use ipa_dataset::{ColumnBatch, EventGeneratorConfig, RecordBatch};
use ipa_script::{AidaHost, ScriptBackend, ScriptFusion};

const SCRIPT: &str = r#"
    fn init() {
        h1("/s/bb_mass", 60, 0.0, 240.0);
        h1("/s/visible_energy", 60, 0.0, 600.0);
    }
    fn process(e) {
        let m = e.bb_mass;
        if m != null { fill("/s/bb_mass", m); }
        fill("/s/visible_energy", e.visible_energy);
    }
"#;

/// Full native-analyzer lifecycle over one batch, row or columnar.
fn run_native(records: &RecordBatch, columns: Option<&Arc<ColumnBatch>>) -> AidaHost {
    let mut host = AidaHost::new();
    run_analyzer_batch(
        &mut HiggsSearchAnalyzer::default(),
        records,
        columns,
        &mut host,
    )
    .unwrap();
    host
}

/// Same lifecycle through the IPAScript VM (column-bound when columnar).
fn run_script(
    analyzer: &mut dyn Analyzer,
    records: &RecordBatch,
    columns: Option<&Arc<ColumnBatch>>,
) -> AidaHost {
    let mut host = AidaHost::new();
    run_analyzer_batch(analyzer, records, columns, &mut host).unwrap();
    host
}

fn script_analyzer() -> Box<dyn Analyzer> {
    instantiate_code(
        &AnalysisCode::Script(SCRIPT.into()),
        &builtin_registry(),
        ScriptBackend::Vm,
        ScriptFusion::from_env(),
    )
    .unwrap()
}

fn bench_data_layout(c: &mut Criterion) {
    let records = RecordBatch::new(
        EventGeneratorConfig {
            events: 20_000,
            signal_fraction: 0.4,
            ..Default::default()
        }
        .generate(),
    );
    let columns = Arc::new(ColumnBatch::from_records(&records).expect("homogeneous event batch"));

    // Correctness gate: the columnar plane must merge bit-identically to
    // the row oracle — native and scripted — before any timing runs.
    let row = run_native(&records, None);
    let col = run_native(&records, Some(&columns));
    assert_eq!(row.tree, col.tree, "native: columnar disagrees with row");
    let srow = run_script(script_analyzer().as_mut(), &records, None);
    let scol = run_script(script_analyzer().as_mut(), &records, Some(&columns));
    assert_eq!(srow.tree, scol.tree, "script: columnar disagrees with row");

    let mut g = c.benchmark_group("data_layout");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("higgs_row", |b| b.iter(|| run_native(&records, None)));
    g.bench_function("higgs_columnar", |b| {
        b.iter(|| run_native(&records, Some(&columns)))
    });
    g.bench_function("script_vm_row", |b| {
        let mut a = script_analyzer();
        b.iter(|| run_script(a.as_mut(), &records, None))
    });
    g.bench_function("script_vm_columnar", |b| {
        let mut a = script_analyzer();
        b.iter(|| run_script(a.as_mut(), &records, Some(&columns)))
    });
    // One-time staging cost the transcode cache amortizes away.
    g.bench_function("transcode", |b| {
        b.iter(|| ColumnBatch::from_records(&records).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_data_layout);
criterion_main!(benches);
