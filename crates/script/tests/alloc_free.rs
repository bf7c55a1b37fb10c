//! The steady-state `process(record)` path of the bytecode VM allocates
//! nothing: operands and local slots live on two stacks the VM owns,
//! strings and arrays are shared by reference count, and an AIDA path
//! lookup borrows the caller's `&str`. A counting allocator holds it to
//! that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ipa_dataset::{ColumnBatch, EventGeneratorConfig, GeneratorConfig, RecordBatch};
use ipa_script::{
    compile, engine_for, AidaHost, NullHost, RecordRef, ScriptBackend, ScriptError, ScriptFusion,
};

thread_local! {
    // Per thread, because the test harness runs tests side by side. Const
    // initialised and without a destructor, so touching it from inside the
    // allocator cannot allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    ALLOCATED_BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every request is passed to `System` unchanged; the counters are
// plain thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (allocations, bytes) this thread made while `f` ran.
fn allocated_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.get(), ALLOCATED_BYTES.get());
    f();
    (
        ALLOCATIONS.get() - before.0,
        ALLOCATED_BYTES.get() - before.1,
    )
}

/// The shape of the benchmark's `vm_script`: two user functions, a global
/// array indexed from a `for i in 0..4`, three fills of constant paths and
/// a nullable field — enough to stay out of the batch kernel.
const CUT_FLOW: &str = r#"
    let cuts = [40.0, 80.0, 120.0, 160.0];
    fn passes(x, cut) { return x > cut; }
    fn balanced(energy, missing) { return missing < 0.5 * energy; }
    fn init() {
        h1("/higgs/bb_mass", 60, 0.0, 240.0);
        h1("/higgs/n_btags", 8, 0.0, 8.0);
        h1("/higgs/cut_flow", 4, 0.0, 4.0);
    }
    fn process(e) {
        fill("/higgs/n_btags", e.n_btags);
        let m = e.bb_mass;
        if m != null { fill("/higgs/bb_mass", m); }
        let energy = e.visible_energy;
        let missing = e.missing_pt;
        for i in 0..4 {
            if passes(energy, cuts[i]) && balanced(energy, missing) {
                fill("/higgs/cut_flow", i);
            }
        }
    }
"#;

#[test]
fn steady_state_records_allocate_nothing() {
    const WARM_UP: usize = 100;
    const MEASURED: usize = 10_000;
    let records = RecordBatch::new(
        GeneratorConfig::Event(EventGeneratorConfig {
            events: (WARM_UP + MEASURED) as u64,
            seed: 7,
            ..Default::default()
        })
        .generate(),
    );
    let columns = Arc::new(ColumnBatch::from_records(&records).expect("uniform part"));
    let program = compile(CUT_FLOW).unwrap();
    let mut engine = engine_for(&program, ScriptBackend::Vm, ScriptFusion::Kernel).unwrap();
    let mut host = AidaHost::new();
    engine.run_init(&mut host).unwrap();
    engine.bind_columns(&records, &columns);
    for i in 0..WARM_UP {
        engine
            .process(&mut host, RecordRef::batch(&records, i))
            .unwrap();
    }
    let (allocations, _) = allocated_during(|| {
        for i in WARM_UP..WARM_UP + MEASURED {
            engine
                .process(&mut host, RecordRef::batch(&records, i))
                .unwrap();
        }
    });
    assert_eq!(allocations, 0, "over {MEASURED} records");
    // The records did their work: every one filled n_btags, some the rest.
    let entries = |path| host.tree.get(path).unwrap().entries();
    assert_eq!(entries("/higgs/n_btags"), (WARM_UP + MEASURED) as u64);
    assert!(entries("/higgs/bb_mass") > 0 && entries("/higgs/bb_mass") < entries("/higgs/n_btags"));
    assert!(entries("/higgs/cut_flow") > 0);
}

#[test]
fn an_oversized_range_costs_fuel_not_memory() {
    let program = compile("for i in 0..100000000000000000 { }").unwrap();
    let mut engine = engine_for(&program, ScriptBackend::Vm, ScriptFusion::Kernel).unwrap();
    engine.set_fuel(50_000);
    let mut result = Ok(());
    let (_, bytes) = allocated_during(|| result = engine.run_init(&mut NullHost));
    assert_eq!(result, Err(ScriptError::OutOfFuel));
    assert!(bytes < 1024, "allocated {bytes} bytes before OutOfFuel");
}
