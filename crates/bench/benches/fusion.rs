//! Script fusion ladder on the Higgs workload: the unfused VM, the
//! peephole-superinstruction VM, and the vectorized batch kernel, all
//! driven through [`run_fused`] — the same dispatch the engine hot loop
//! uses — over one columnar part. The tree-walk interpreter rides along
//! as the semantic floor.
//!
//! The acceptance target for `kernel` is ≥2× the unfused VM's records/s
//! on this workload — but only after the correctness gate: every rung of
//! the ladder must produce a bit-identical result tree before anything
//! is timed.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipa_dataset::{ColumnBatch, EventGeneratorConfig, RecordBatch};
use ipa_script::{
    compile, engine_for, run_fused, AidaHost, BatchKernel, Program, ScriptBackend, ScriptFusion,
};

/// The canonical analyze shape: a guarded fill plus an unconditional
/// fill — exactly what `BatchKernel::compile` targets.
const SCRIPT: &str = r#"
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

/// Full lifecycle at one point of the (backend, fusion) matrix, through
/// the shared `run_fused` dispatch.
fn run_mode(
    program: &Program,
    records: &RecordBatch,
    columns: &Arc<ColumnBatch>,
    backend: ScriptBackend,
    fusion: ScriptFusion,
) -> AidaHost {
    let mut engine = engine_for(program, backend, fusion).unwrap();
    let mut kernel = (backend == ScriptBackend::Vm && fusion == ScriptFusion::Kernel)
        .then(|| BatchKernel::compile(program))
        .flatten();
    let mut host = AidaHost::new();
    engine.run_init(&mut host).unwrap();
    let (done, err) = run_fused(
        engine.as_mut(),
        kernel.as_mut(),
        records,
        Some(columns),
        0..records.len(),
        &mut host,
    );
    assert_eq!(done, records.len(), "workload must be error-free");
    assert!(err.is_none(), "workload must be error-free: {err:?}");
    engine.run_end(&mut host).unwrap();
    host
}

fn bench_fusion(c: &mut Criterion) {
    let records = RecordBatch::new(
        EventGeneratorConfig {
            events: 20_000,
            signal_fraction: 0.4,
            ..Default::default()
        }
        .generate(),
    );
    let columns = Arc::new(ColumnBatch::from_records(&records).expect("homogeneous event batch"));
    let program = compile(SCRIPT).unwrap();
    assert!(
        BatchKernel::compile(&program).is_some(),
        "bench script must be kernel-eligible"
    );

    // Correctness gate: every fusion level must match the tree-walk
    // bit-for-bit before any timing runs. Compared via the Debug dump —
    // it prints every bin and sidesteps NaN != NaN on empty stats.
    let ladder = [
        (ScriptBackend::Interp, ScriptFusion::Off),
        (ScriptBackend::Vm, ScriptFusion::Off),
        (ScriptBackend::Vm, ScriptFusion::Super),
        (ScriptBackend::Vm, ScriptFusion::Kernel),
    ];
    let trees: Vec<String> = ladder
        .iter()
        .map(|(b, f)| format!("{:?}", run_mode(&program, &records, &columns, *b, *f).tree))
        .collect();
    for (i, t) in trees.iter().enumerate().skip(1) {
        assert_eq!(
            &trees[0], t,
            "{}/{} diverges from the tree-walk",
            ladder[i].0, ladder[i].1
        );
    }

    let mut g = c.benchmark_group("script_fusion");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("interp", |b| {
        b.iter(|| {
            run_mode(
                &program,
                &records,
                &columns,
                ScriptBackend::Interp,
                ScriptFusion::Off,
            )
        })
    });
    g.bench_function("vm_off", |b| {
        b.iter(|| {
            run_mode(
                &program,
                &records,
                &columns,
                ScriptBackend::Vm,
                ScriptFusion::Off,
            )
        })
    });
    g.bench_function("vm_super", |b| {
        b.iter(|| {
            run_mode(
                &program,
                &records,
                &columns,
                ScriptBackend::Vm,
                ScriptFusion::Super,
            )
        })
    });
    g.bench_function("vm_kernel", |b| {
        b.iter(|| {
            run_mode(
                &program,
                &records,
                &columns,
                ScriptBackend::Vm,
                ScriptFusion::Kernel,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
