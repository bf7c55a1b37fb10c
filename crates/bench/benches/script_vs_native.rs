//! Per-record cost of the code paths the paper supports: interpreted
//! scripts (PNUTS → IPAScript) vs compiled analyzers (Java classes →
//! native Rust). Quantifies the interpretation tax users pay for on-the-fly
//! editability — and how much of it the bytecode VM claws back over the
//! tree-walk.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipa_core::{run_analyzer_serial, HiggsSearchAnalyzer};
use ipa_dataset::{EventGeneratorConfig, RecordBatch};
use ipa_script::{compile, engine_for, AidaHost, Program, RecordRef, ScriptBackend, ScriptFusion};

const SCRIPT: &str = r#"
    fn init() { h1("/higgs/bb_mass", 60, 0.0, 240.0); }
    fn process(e) {
        let m = e.bb_mass;
        if m != null { fill("/higgs/bb_mass", m); }
    }
"#;

/// Run the full analysis lifecycle on one backend, sharing the batch the
/// way the engine hot path does (`RecordRef::batch` — no record copies).
fn run_backend(program: &Program, records: &RecordBatch, backend: ScriptBackend) -> AidaHost {
    let mut host = AidaHost::new();
    let mut engine = engine_for(program, backend, ScriptFusion::Off).unwrap();
    engine.run_init(&mut host).unwrap();
    for i in 0..records.len() {
        engine
            .process(&mut host, RecordRef::batch(records, i))
            .unwrap();
    }
    engine.run_end(&mut host).unwrap();
    host
}

fn bench_code_paths(c: &mut Criterion) {
    let records = RecordBatch::new(
        EventGeneratorConfig {
            events: 2_000,
            ..Default::default()
        }
        .generate(),
    );

    let program = compile(SCRIPT).unwrap();
    // Correctness gate: both backends must produce bin-for-bin identical
    // results before we bother timing them.
    let interp_host = run_backend(&program, &records, ScriptBackend::Interp);
    let vm_host = run_backend(&program, &records, ScriptBackend::Vm);
    assert_eq!(
        interp_host.tree, vm_host.tree,
        "tree-walk and VM disagree on the bench script"
    );

    let mut g = c.benchmark_group("code_paths");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("native_higgs", |b| {
        b.iter(|| {
            let mut host = AidaHost::new();
            run_analyzer_serial(&mut HiggsSearchAnalyzer::default(), &records, &mut host).unwrap();
            host
        })
    });
    g.bench_function("script_higgs", |b| {
        b.iter(|| run_backend(&program, &records, ScriptBackend::Interp))
    });
    g.bench_function("script_higgs_vm", |b| {
        b.iter(|| run_backend(&program, &records, ScriptBackend::Vm))
    });
    g.bench_function("script_compile_only", |b| {
        b.iter(|| compile(SCRIPT).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_code_paths);
criterion_main!(benches);
