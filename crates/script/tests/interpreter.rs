//! End-to-end script engine tests: language semantics, host interaction,
//! fuel limits, and dynamic reload.
//!
//! Every test routes through [`engine_for`] with the backend selected by
//! `IPA_SCRIPT_BACKEND`, so CI runs this whole file against both the
//! tree-walk and the bytecode VM. A few tests at the bottom pin one
//! backend explicitly.

use std::sync::Arc;

use ipa_dataset::{AnyRecord, CollisionEvent, DnaRead, FourVector, Particle, RecordBatch};
use ipa_script::{
    compile, engine_for, AidaHost, Interpreter, NullHost, RecordRef, ScriptBackend, ScriptEngine,
    ScriptError, ScriptFusion, Value,
};

fn engine(src: &str) -> Box<dyn ScriptEngine> {
    let p = compile(src).unwrap();
    engine_for(&p, ScriptBackend::from_env(), ScriptFusion::from_env()).unwrap()
}

fn process(
    e: &mut Box<dyn ScriptEngine>,
    host: &mut dyn ipa_script::Host,
    rec: &AnyRecord,
) -> Result<(), ScriptError> {
    e.process(host, RecordRef::one(Arc::new(rec.clone())))
}

fn run_expr(expr: &str) -> Value {
    let src = format!("fn main() {{ return {expr}; }}");
    let mut e = engine(&src);
    e.call("main", vec![], &mut NullHost).unwrap()
}

fn num(v: Value) -> f64 {
    match v {
        Value::Num(n) => n,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(num(run_expr("1 + 2 * 3")), 7.0);
    assert_eq!(num(run_expr("(1 + 2) * 3")), 9.0);
    assert_eq!(num(run_expr("10 / 4")), 2.5);
    assert_eq!(num(run_expr("10 % 3")), 1.0);
    assert_eq!(num(run_expr("-2 * -3")), 6.0);
    assert_eq!(num(run_expr("2 + 3 * 4 - 6 / 2")), 11.0);
}

#[test]
fn string_concatenation() {
    assert!(matches!(run_expr("\"a\" + 1"), Value::Str(s) if &*s == "a1"));
    assert!(matches!(run_expr("1 + \"a\""), Value::Str(s) if &*s == "1a"));
    assert!(matches!(run_expr("\"a\" + \"b\""), Value::Str(s) if &*s == "ab"));
}

#[test]
fn comparisons_and_logic() {
    assert!(matches!(run_expr("1 < 2"), Value::Bool(true)));
    assert!(matches!(run_expr("2 <= 2"), Value::Bool(true)));
    assert!(matches!(run_expr("1 == 1 && 2 == 2"), Value::Bool(true)));
    assert!(matches!(run_expr("1 == 2 || 2 == 2"), Value::Bool(true)));
    assert!(matches!(run_expr("!(1 == 1)"), Value::Bool(false)));
    assert!(matches!(run_expr("null == null"), Value::Bool(true)));
    assert!(matches!(run_expr("null == 0"), Value::Bool(false)));
}

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    // Division by zero in rhs would be NaN, not an error, so use an unknown
    // function to prove the rhs never runs.
    let mut e = engine("fn main() { return false && boom(); }");
    assert!(matches!(
        e.call("main", vec![], &mut NullHost).unwrap(),
        Value::Bool(false)
    ));
    let mut e = engine("fn main() { return true || boom(); }");
    assert!(matches!(
        e.call("main", vec![], &mut NullHost).unwrap(),
        Value::Bool(true)
    ));
}

#[test]
fn control_flow_loops() {
    let src = r#"
        fn main() {
            let total = 0;
            for i in 0..10 {
                if i % 2 == 0 { continue; }
                if i == 9 { break; }
                total = total + i;   # 1 + 3 + 5 + 7
            }
            let j = 0;
            while j < 5 { j = j + 1; }
            return total + j;
        }
    "#;
    let mut e = engine(src);
    assert_eq!(num(e.call("main", vec![], &mut NullHost).unwrap()), 21.0);
}

#[test]
fn arrays_index_and_assign() {
    let src = r#"
        fn main() {
            let xs = [10, 20, 30];
            xs[1] = xs[1] + 5;
            let s = 0;
            for x in xs { s = s + x; }
            return s + len(xs);
        }
    "#;
    let mut e = engine(src);
    assert_eq!(num(e.call("main", vec![], &mut NullHost).unwrap()), 68.0);
}

#[test]
fn recursion_fibonacci() {
    let src = "fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); }";
    let mut e = engine(src);
    let v = e
        .call("fib", vec![Value::Num(15.0)], &mut NullHost)
        .unwrap();
    assert_eq!(num(v), 610.0);
}

#[test]
fn runaway_recursion_hits_stack_limit() {
    let mut e = engine("fn f(n) { return f(n + 1); }");
    let err = e
        .call("f", vec![Value::Num(0.0)], &mut NullHost)
        .unwrap_err();
    assert!(matches!(
        err,
        ScriptError::StackOverflow | ScriptError::OutOfFuel
    ));
}

#[test]
fn infinite_loop_runs_out_of_fuel() {
    let mut e = engine("fn main() { while true { } }");
    e.set_fuel(100_000);
    let err = e.call("main", vec![], &mut NullHost).unwrap_err();
    assert_eq!(err, ScriptError::OutOfFuel);
}

#[test]
fn runtime_errors_carry_line_numbers() {
    let src = "fn main() {\n  let a = 1;\n  return a + \"\"[5];\n}";
    let mut e = engine(src);
    match e.call("main", vec![], &mut NullHost).unwrap_err() {
        ScriptError::Runtime { line, .. } => assert_eq!(line, 3),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unknown_variable_and_function_errors() {
    let mut e = engine("fn main() { return nope; }");
    assert!(e.call("main", vec![], &mut NullHost).is_err());
    let mut e = engine("fn main() { return nope(); }");
    assert!(e.call("main", vec![], &mut NullHost).is_err());
}

#[test]
fn globals_from_top_level() {
    let src = r#"
        let cut = 30.0;
        fn main() { return cut * 2; }
    "#;
    let mut e = engine(src);
    e.run_init(&mut NullHost).unwrap();
    assert_eq!(num(e.call("main", vec![], &mut NullHost).unwrap()), 60.0);
    assert!(e.global("cut").is_some());
}

fn higgs_event(mass_pair: f64) -> AnyRecord {
    let half = mass_pair / 2.0;
    AnyRecord::Event(CollisionEvent {
        event_id: 1,
        run: 1,
        sqrt_s: 500.0,
        is_signal: true,
        particles: vec![
            Particle::new(5, -1.0 / 3.0, FourVector::new(half, half, 0.0, 0.0)),
            Particle::new(-5, 1.0 / 3.0, FourVector::new(half, -half, 0.0, 0.0)),
        ],
    })
}

#[test]
fn full_analysis_against_aida_host() {
    let src = r#"
        fn init() {
            h1("/higgs/mass", 60, 0.0, 240.0);
            h2("/higgs/corr", 10, 0.0, 10.0, 10, 0.0, 10.0);
            prof("/higgs/prof", 10, 0.0, 10.0);
        }
        fn process(event) {
            let m = event.bb_mass;
            if m != null {
                fill("/higgs/mass", m);
                fill2("/higgs/corr", event.n_btags, event.n_particles);
                pfill("/higgs/prof", event.n_btags, m);
            }
        }
        fn end() { log("analysis complete"); }
    "#;
    let mut host = AidaHost::new();
    let mut e = engine(src);
    e.run_init(&mut host).unwrap();
    for m in [120.0, 121.0, 119.5] {
        process(&mut e, &mut host, &higgs_event(m)).unwrap();
    }
    e.run_end(&mut host).unwrap();

    let h = host.tree.get("/higgs/mass").unwrap().as_h1().unwrap();
    assert_eq!(h.entries(), 3);
    assert!((h.mean() - 120.1666).abs() < 1e-3);
    assert_eq!(host.messages, vec!["analysis complete".to_string()]);
    assert_eq!(host.tree.get("/higgs/corr").unwrap().entries(), 3);
    assert_eq!(host.tree.get("/higgs/prof").unwrap().entries(), 3);
}

#[test]
fn missing_field_reads_null_unknown_field_errors() {
    let rec = AnyRecord::Dna(DnaRead {
        read_id: 1,
        sample: 0,
        bases: "GATTACA".into(),
        quality: 30.0,
    });
    let src = r#"
        fn process(r) {
            if r.gc_content > 0.2 { log("gc-rich"); }
        }
    "#;
    let mut host = AidaHost::new();
    let mut e = engine(src);
    process(&mut e, &mut host, &rec).unwrap();
    assert_eq!(host.messages.len(), 1);

    let src_bad = "fn process(r) { return r.not_a_field; }";
    let mut e = engine(src_bad);
    assert!(process(&mut e, &mut NullHost, &rec).is_err());
}

#[test]
fn field_builtin_matches_dot_access() {
    let rec = Arc::new(higgs_event(100.0));
    let src = r#"
        fn process(e) {
            if field(e, "n_btags") != e.n_btags { log("mismatch"); }
        }
    "#;
    let mut host = AidaHost::new();
    let mut e = engine(src);
    e.process(&mut host, RecordRef::one(rec)).unwrap();
    assert!(host.messages.is_empty());
}

#[test]
fn filling_unbooked_histogram_is_a_runtime_error() {
    let mut host = AidaHost::new();
    let mut e = engine("fn process(e) { fill(\"/nope\", 1.0); }");
    let err = process(&mut e, &mut host, &higgs_event(1.0)).unwrap_err();
    assert!(matches!(err, ScriptError::Runtime { .. }));
}

#[test]
fn rebooking_same_histogram_is_idempotent_but_kind_conflict_errors() {
    let src = "fn init() { h1(\"/h\", 10, 0.0, 1.0); h1(\"/h\", 10, 0.0, 1.0); }";
    let mut host = AidaHost::new();
    engine(src).run_init(&mut host).unwrap();

    let src = "fn init() { h1(\"/h\", 10, 0.0, 1.0); h2(\"/h\", 2, 0.0, 1.0, 2, 0.0, 1.0); }";
    let mut host = AidaHost::new();
    assert!(engine(src).run_init(&mut host).is_err());
}

#[test]
fn missing_process_entry_point() {
    let mut e = engine("fn init() { }");
    assert_eq!(
        process(&mut e, &mut NullHost, &higgs_event(1.0)).unwrap_err(),
        ScriptError::MissingEntryPoint("process")
    );
}

#[test]
fn hot_reload_replaces_behaviour() {
    // Session flow: run v1, "edit the code", run v2 against a fresh host —
    // the paper's §3.6 dynamic reload between runs.
    let v1 = "fn init() { h1(\"/m\", 10, 0.0, 10.0); } fn process(e) { fill(\"/m\", 1.0); }";
    let v2 = "fn init() { h1(\"/m\", 10, 0.0, 10.0); } fn process(e) { fill(\"/m\", 9.0); }";
    let rec = higgs_event(5.0);

    let mut host = AidaHost::new();
    let mut e = engine(v1);
    e.run_init(&mut host).unwrap();
    process(&mut e, &mut host, &rec).unwrap();
    let h = host.tree.get("/m").unwrap().as_h1().unwrap();
    assert_eq!(h.bin_entries(1), 1);

    // Reload: new engine, new result tree (rewind semantics).
    let mut host2 = AidaHost::new();
    let mut e2 = engine(v2);
    e2.run_init(&mut host2).unwrap();
    process(&mut e2, &mut host2, &rec).unwrap();
    let h2 = host2.tree.get("/m").unwrap().as_h1().unwrap();
    assert_eq!(h2.bin_entries(9), 1);
    assert_eq!(h2.bin_entries(1), 0);
}

#[test]
fn stdlib_functions_from_scripts() {
    assert_eq!(num(run_expr("sqrt(16)")), 4.0);
    assert_eq!(num(run_expr("max(min(5, 3), 2)")), 3.0);
    assert_eq!(num(run_expr("len(\"GATTACA\")")), 7.0);
    assert_eq!(num(run_expr("count_matches(\"AAAA\", \"AA\")")), 3.0);
    assert!(matches!(run_expr("is_null(null)"), Value::Bool(true)));
    assert!(matches!(
        run_expr("contains(upper(\"gattaca\"), \"TTA\")"),
        Value::Bool(true)
    ));
    assert_eq!(num(run_expr("len(append([1,2], 3))")), 3.0);
}

#[test]
fn user_function_shadows_builtin() {
    let src = "fn sqrt(x) { return 99; } fn main() { return sqrt(4); }";
    let mut e = engine(src);
    assert_eq!(num(e.call("main", vec![], &mut NullHost).unwrap()), 99.0);
}

#[test]
fn run_analysis_convenience() {
    let records: Vec<AnyRecord> = (0..10).map(|i| higgs_event(100.0 + i as f64)).collect();
    let mut host = AidaHost::new();
    ipa_script::run_analysis(
        "fn init() { h1(\"/m\", 50, 0.0, 200.0); } fn process(e) { fill(\"/m\", e.bb_mass); }",
        &records,
        &mut host,
    )
    .unwrap();
    assert_eq!(host.tree.get("/m").unwrap().entries(), 10);
}

#[test]
fn tuple_bindings_book_and_fill() {
    let src = r#"
        fn init() { tuple("/nt/events", "mass, ntracks"); }
        fn process(e) {
            let m = e.bb_mass;
            if m != null { tfill("/nt/events", m, e.n_particles); }
        }
    "#;
    let mut host = AidaHost::new();
    let mut e = engine(src);
    e.run_init(&mut host).unwrap();
    for m in [100.0, 120.0, 140.0] {
        process(&mut e, &mut host, &higgs_event(m)).unwrap();
    }
    let t = host.tree.get("/nt/events").unwrap().as_tuple().unwrap();
    assert_eq!(t.rows(), 3);
    assert_eq!(
        t.column_names(),
        ["mass".to_string(), "ntracks".to_string()]
    );
    // Project the tuple column back into a histogram client-side.
    let h = t.project1d("mass", 12, 0.0, 240.0).unwrap();
    assert_eq!(h.entries(), 3);

    // Re-booking with the same schema is idempotent; different schema errors.
    let mut e2 = engine(src);
    e2.run_init(&mut host).unwrap();
    let bad = r#"fn init() { tuple("/nt/events", "other"); } fn process(e) { }"#;
    let mut e3 = engine(bad);
    assert!(e3.run_init(&mut host).is_err());

    // Filling with the wrong arity is a runtime error.
    let wrong = r#"fn process(e) { tfill("/nt/events", 1.0); }"#;
    let mut e4 = engine(wrong);
    assert!(process(&mut e4, &mut host, &higgs_event(1.0)).is_err());
}

// ---------------------------------------------------------------------------
// Backend-pinned tests: these construct a specific backend regardless of
// IPA_SCRIPT_BACKEND.

#[test]
fn tree_walk_backend_remains_directly_usable() {
    let p = compile("fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); }").unwrap();
    let mut i = Interpreter::new(&p);
    let v = i
        .call_function("fib", vec![Value::Num(10.0)], &mut NullHost)
        .unwrap();
    assert_eq!(num(v), 55.0);
}

#[test]
fn both_backends_agree_on_a_small_analysis() {
    let src = r#"
        let scale = 2.0;
        fn init() { h1("/x", 10, 0.0, 20.0); }
        fn process(e) { fill("/x", e.n_particles * scale); }
    "#;
    let p = compile(src).unwrap();
    let mut trees = Vec::new();
    for backend in [ScriptBackend::Interp, ScriptBackend::Vm] {
        let mut e = engine_for(&p, backend, ScriptFusion::from_env()).unwrap();
        let mut host = AidaHost::new();
        e.run_init(&mut host).unwrap();
        for m in [10.0, 11.0, 12.0] {
            e.process(&mut host, RecordRef::one(Arc::new(higgs_event(m))))
                .unwrap();
        }
        e.run_end(&mut host).unwrap();
        trees.push(host.tree);
    }
    assert_eq!(trees[0], trees[1]);
}

#[test]
fn no_per_record_deep_clone_either_backend() {
    // The engines hand records to scripts as shared handles; retaining
    // one in a global must keep pointing at the batch's own record instead
    // of deep-copying it. This is the regression test for the old
    // per-record `clone()` hot path.
    let src = "let keep = null; fn process(e) { keep = e; }";
    let p = compile(src).unwrap();
    for backend in [ScriptBackend::Interp, ScriptBackend::Vm] {
        let mut e = engine_for(&p, backend, ScriptFusion::from_env()).unwrap();
        e.run_init(&mut NullHost).unwrap();
        let batch = RecordBatch::new(vec![higgs_event(120.0)]);
        e.process(&mut NullHost, RecordRef::batch(&batch, 0))
            .unwrap();
        match e.global("keep") {
            Some(Value::Record(kept)) => {
                assert!(std::ptr::eq(kept.get(), &batch[0]), "{backend}")
            }
            other => panic!("{backend}: script kept {other:?}"),
        }
    }
}
