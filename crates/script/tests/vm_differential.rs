//! Differential tests: every execution mode against the tree-walk oracle.
//!
//! Random programs — including ones that error at runtime — are executed
//! by every mode of the engine matrix through the full analysis
//! lifecycle, and the entire observable transcript must match: every
//! `Result` (errors compared exactly, message and line included), every
//! global, every host message, and the final AIDA tree bin-for-bin. The
//! matrix covers both backends and every fusion level:
//!
//! * `interp` — the AST tree-walk (the semantic oracle),
//! * `vm` with fusion `off` — the resolver's raw op stream,
//! * `vm` with fusion `super` — peephole superinstructions,
//! * `vm` with fusion `kernel` — superinstructions plus the vectorized
//!   batch kernel over `ColumnBatch` parts (with per-record fallback).
//!
//! Two paths drive the matrix: the per-record `process` path (mixed-type
//! record slices) and the batch path through [`run_fused`] (uniform
//! parts with a columnar transcode, where the kernel actually runs).
//! Both backends funnel operator and builtin semantics through shared
//! helpers, so any divergence here is a compiler, fuser, or kernel bug,
//! not a formatting nit.

use std::sync::Arc;

use proptest::prelude::*;

use ipa_dataset::{
    AnyRecord, CollisionEvent, ColumnBatch, DnaRead, FourVector, Particle, RecordBatch, TradeRecord,
};
use ipa_script::{
    compile, engine_for, run_fused, AidaHost, BatchKernel, NullHost, RecordRef, ScriptBackend,
    ScriptError, ScriptFusion, Value,
};

/// The full mode matrix, oracle first.
const MODES: [(ScriptBackend, ScriptFusion); 4] = [
    (ScriptBackend::Interp, ScriptFusion::Off),
    (ScriptBackend::Vm, ScriptFusion::Off),
    (ScriptBackend::Vm, ScriptFusion::Super),
    (ScriptBackend::Vm, ScriptFusion::Kernel),
];

fn higgs_event(mass_pair: f64) -> AnyRecord {
    let half = mass_pair / 2.0;
    AnyRecord::Event(CollisionEvent {
        event_id: 7,
        run: 3,
        sqrt_s: 500.0,
        is_signal: false,
        particles: vec![
            Particle::new(5, -1.0 / 3.0, FourVector::new(half, half, 0.0, 0.0)),
            Particle::new(-5, 1.0 / 3.0, FourVector::new(half, -half, 0.0, 0.0)),
        ],
    })
}

fn dna_read() -> AnyRecord {
    AnyRecord::Dna(DnaRead {
        read_id: 9,
        sample: 1,
        bases: "GATTACAGATTACA".into(),
        quality: 31.5,
    })
}

fn trades(n: usize) -> RecordBatch {
    RecordBatch::new(
        (0..n)
            .map(|i| {
                AnyRecord::Trade(TradeRecord {
                    trade_id: i as u64,
                    timestamp_ms: 1_000 * i as u64,
                    symbol: "IPA".into(),
                    price: 100.0 + (i as f64) * 0.75,
                    volume: 50 + (i as u32 % 90),
                    buyer_initiated: i % 3 == 0,
                })
            })
            .collect(),
    )
}

/// Run the full lifecycle on one mode via the per-record path and record
/// everything a user could observe. The tree goes in as a `Debug` dump:
/// the derived `Debug` prints every bin, and it sidesteps the
/// `NaN != NaN` hole in the derived `PartialEq` (empty stats carry NaN
/// min/max).
fn transcript(
    src: &str,
    backend: ScriptBackend,
    fusion: ScriptFusion,
    records: &[AnyRecord],
) -> Vec<String> {
    let p = compile(src).expect("generated source parses");
    let mut e = engine_for(&p, backend, fusion).expect("program resolves");
    let mut host = AidaHost::new();
    let mut out = Vec::new();
    out.push(format!("init: {:?}", e.run_init(&mut host)));
    for r in records {
        out.push(format!(
            "process: {:?}",
            e.process(&mut host, RecordRef::one(Arc::new(r.clone())))
        ));
    }
    out.push(format!("end: {:?}", e.run_end(&mut host)));
    out.push(format!("main: {:?}", e.call("main", vec![], &mut host)));
    for g in ["g0", "g1", "a", "b"] {
        out.push(format!("global {g}: {:?}", e.global(g)));
    }
    out.push(format!("messages: {:?}", host.messages));
    out.push(format!("tree: {:?}", host.tree));
    out
}

/// Run the full lifecycle on one mode via the batch path — the engine's
/// real dispatch: a columnar transcode when the part is uniform, the
/// batch kernel when the mode builds one, per-record fallback otherwise.
fn batch_transcript(
    src: &str,
    backend: ScriptBackend,
    fusion: ScriptFusion,
    records: &RecordBatch,
) -> Vec<String> {
    let p = compile(src).expect("generated source parses");
    let mut e = engine_for(&p, backend, fusion).expect("program resolves");
    let mut kernel = (backend == ScriptBackend::Vm && fusion == ScriptFusion::Kernel)
        .then(|| BatchKernel::compile(&p))
        .flatten();
    let columns = ColumnBatch::from_records(records).map(Arc::new);
    let mut host = AidaHost::new();
    let mut out = Vec::new();
    out.push(format!("init: {:?}", e.run_init(&mut host)));
    let (done, err) = run_fused(
        e.as_mut(),
        kernel.as_mut(),
        records,
        columns.as_ref(),
        0..records.len(),
        &mut host,
    );
    out.push(format!("batch: done={done} err={err:?}"));
    out.push(format!("end: {:?}", e.run_end(&mut host)));
    for g in ["g0", "g1", "a", "b", "seen", "cut"] {
        out.push(format!("global {g}: {:?}", e.global(g)));
    }
    out.push(format!("messages: {:?}", host.messages));
    out.push(format!("tree: {:?}", host.tree));
    out
}

fn assert_backends_agree(src: &str, records: &[AnyRecord]) {
    let want = transcript(src, MODES[0].0, MODES[0].1, records);
    for (backend, fusion) in &MODES[1..] {
        let got = transcript(src, *backend, *fusion, records);
        assert_eq!(
            want, got,
            "per-record transcript diverged for {backend}/{fusion}:\n{src}"
        );
    }
}

fn assert_fusion_modes_agree(src: &str, records: &RecordBatch) {
    let want = batch_transcript(src, MODES[0].0, MODES[0].1, records);
    for (backend, fusion) in &MODES[1..] {
        let got = batch_transcript(src, *backend, *fusion, records);
        assert_eq!(
            want, got,
            "batch transcript diverged for {backend}/{fusion}:\n{src}"
        );
    }
}

// ---------------------------------------------------------------------------
// Random program generation. Variables draw from a small pool that mixes
// locals, globals, a `process`-bound name, and a deliberately unbound name,
// so unknown-variable error paths get exercised alongside happy paths.

const VARS: [&str; 6] = ["a", "b", "m", "g0", "g1", "mystery"];
const BINOPS: [&str; 13] = [
    "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||",
];
const FN1: [&str; 5] = ["abs", "floor", "ceil", "round", "sqrt"];

#[derive(Debug, Clone)]
enum GExpr {
    Num(i32),
    Var(u8),
    Bin(u8, Box<GExpr>, Box<GExpr>),
    Neg(Box<GExpr>),
    Not(Box<GExpr>),
    Call1(u8, Box<GExpr>),
    Helper(Box<GExpr>, Box<GExpr>),
    Arr(Vec<GExpr>),
    Idx(Box<GExpr>, Box<GExpr>),
    UnknownCall(Box<GExpr>),
}

impl GExpr {
    fn render(&self, out: &mut String) {
        match self {
            GExpr::Num(n) => {
                if *n < 0 {
                    out.push_str(&format!("({n})"));
                } else {
                    out.push_str(&n.to_string());
                }
            }
            GExpr::Var(i) => out.push_str(VARS[*i as usize % VARS.len()]),
            GExpr::Bin(op, l, r) => {
                out.push('(');
                l.render(out);
                out.push_str(&format!(" {} ", BINOPS[*op as usize % BINOPS.len()]));
                r.render(out);
                out.push(')');
            }
            GExpr::Neg(e) => {
                out.push_str("(-");
                e.render(out);
                out.push(')');
            }
            GExpr::Not(e) => {
                out.push_str("(!");
                e.render(out);
                out.push(')');
            }
            GExpr::Call1(f, e) => {
                out.push_str(FN1[*f as usize % FN1.len()]);
                out.push('(');
                e.render(out);
                out.push(')');
            }
            GExpr::Helper(x, y) => {
                out.push_str("helper(");
                x.render(out);
                out.push_str(", ");
                y.render(out);
                out.push(')');
            }
            GExpr::Arr(items) => {
                out.push('[');
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    e.render(out);
                }
                out.push(']');
            }
            GExpr::Idx(t, i) => {
                t.render(out);
                out.push('[');
                i.render(out);
                out.push(']');
            }
            GExpr::UnknownCall(e) => {
                out.push_str("no_such_fn(");
                e.render(out);
                out.push(')');
            }
        }
    }
}

#[derive(Debug, Clone)]
enum GStmt {
    Let(u8, GExpr),
    Assign(u8, GExpr),
    ExprStmt(GExpr),
    If(GExpr, Vec<GStmt>, Vec<GStmt>),
    For(u8, u8, Vec<GStmt>),
    Log(GExpr),
}

impl GStmt {
    fn render(&self, out: &mut String) {
        match self {
            GStmt::Let(v, e) => {
                out.push_str("let ");
                out.push_str(VARS[*v as usize % 3]); // only a/b/m bind locally
                out.push_str(" = ");
                e.render(out);
                out.push_str(";\n");
            }
            GStmt::Assign(v, e) => {
                out.push_str(VARS[*v as usize % VARS.len()]);
                out.push_str(" = ");
                e.render(out);
                out.push_str(";\n");
            }
            GStmt::ExprStmt(e) => {
                e.render(out);
                out.push_str(";\n");
            }
            GStmt::If(c, t, f) => {
                out.push_str("if ");
                c.render(out);
                out.push_str(" {\n");
                for s in t {
                    s.render(out);
                }
                out.push('}');
                if !f.is_empty() {
                    out.push_str(" else {\n");
                    for s in f {
                        s.render(out);
                    }
                    out.push('}');
                }
                out.push('\n');
            }
            GStmt::For(v, n, body) => {
                out.push_str("for ");
                out.push_str(VARS[*v as usize % 2]); // a or b
                out.push_str(&format!(" in 0..{} {{\n", n % 5));
                for s in body {
                    s.render(out);
                }
                out.push_str("}\n");
            }
            GStmt::Log(e) => {
                out.push_str("log(str(");
                e.render(out);
                out.push_str("));\n");
            }
        }
    }
}

fn arb_expr() -> impl Strategy<Value = GExpr> {
    let leaf = prop_oneof![
        (-20i32..20).prop_map(GExpr::Num),
        (0u8..6).prop_map(GExpr::Var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (0u8..13, inner.clone(), inner.clone()).prop_map(|(op, l, r)| GExpr::Bin(
                op,
                Box::new(l),
                Box::new(r)
            )),
            inner.clone().prop_map(|e| GExpr::Neg(Box::new(e))),
            inner.clone().prop_map(|e| GExpr::Not(Box::new(e))),
            (0u8..5, inner.clone()).prop_map(|(f, e)| GExpr::Call1(f, Box::new(e))),
            (inner.clone(), inner.clone())
                .prop_map(|(x, y)| GExpr::Helper(Box::new(x), Box::new(y))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(GExpr::Arr),
            (inner.clone(), inner.clone()).prop_map(|(t, i)| GExpr::Idx(Box::new(t), Box::new(i))),
            inner.prop_map(|e| GExpr::UnknownCall(Box::new(e))),
        ]
    })
}

fn arb_stmts() -> impl Strategy<Value = Vec<GStmt>> {
    let stmt = prop_oneof![
        (0u8..3, arb_expr()).prop_map(|(v, e)| GStmt::Let(v, e)),
        (0u8..6, arb_expr()).prop_map(|(v, e)| GStmt::Assign(v, e)),
        arb_expr().prop_map(GStmt::ExprStmt),
        arb_expr().prop_map(GStmt::Log),
    ];
    let nested = stmt.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            (
                arb_expr(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(c, t, f)| GStmt::If(c, t, f)),
            (0u8..2, 0u8..5, prop::collection::vec(inner, 0..3))
                .prop_map(|(v, n, b)| GStmt::For(v, n, b)),
        ]
    });
    prop::collection::vec(nested, 0..6)
}

fn render_program(
    init_g0: &GExpr,
    helper_body: &[GStmt],
    helper_ret: &GExpr,
    process_body: &[GStmt],
    main_body: &[GStmt],
    main_ret: &GExpr,
) -> String {
    let mut s = String::new();
    s.push_str("let g0 = ");
    init_g0.render(&mut s);
    s.push_str(";\nlet g1 = 1;\n");
    s.push_str("fn init() { h1(\"/d/h\", 10, 0.0, 10.0); }\n");
    s.push_str("fn helper(a, b) {\n");
    for st in helper_body {
        st.render(&mut s);
    }
    s.push_str("return ");
    helper_ret.render(&mut s);
    s.push_str(";\n}\n");
    s.push_str("fn process(ev) {\nlet m = ev.n_particles;\n");
    s.push_str("if m != null { fill(\"/d/h\", m % 10); }\n");
    for st in process_body {
        st.render(&mut s);
    }
    s.push_str("}\n");
    s.push_str("fn main() {\n");
    for st in main_body {
        st.render(&mut s);
    }
    s.push_str("return ");
    main_ret.render(&mut s);
    s.push_str(";\n}\n");
    s
}

// ---------------------------------------------------------------------------
// Kernel-shaped generation: `process` bodies of `let` bindings over trade
// fields, guarded fills, and weighted fills — the shape
// `BatchKernel::compile` targets — written the way users write them:
// helper functions, literal-range loops, a global constant array, several
// fills on one path. Salted with constructs that are deliberately
// *ineligible* (log calls, global mutation, string fields) or that only
// fail at run time (an out-of-bounds element, a null one), so the matrix
// exercises the expanded vectorized path, the run-time and bind-time
// fallbacks, and the compile-time fallback side by side.

/// What one rendering of a generated body draws its names from.
#[derive(Debug, Clone, Copy)]
struct Palette {
    /// Record fields `Field(i)` reads. The first four exist and hold
    /// numbers or booleans; the last two are the salts: a string column
    /// or a field no record has (bind falls back), or the like.
    fields: [&'static str; 6],
    /// Unsalted renderings keep to the first four fields and to `cuts`'
    /// four elements and drop the compile-time-ineligible statements, so
    /// that most of them reach the vectorized path.
    salted: bool,
    /// Rendering a loop body: `cuts[i]` has a constant index there. An
    /// unsalted rendering reads `cuts[1]` elsewhere (`i` is then the
    /// global, or what the last loop left — the salted renderings' job).
    in_loop: bool,
}

/// Trades: every numeric field is always present. `symbol` is a string
/// column, `absent` is not a field at all.
const TRADE_FIELDS: [&str; 6] = [
    "price",
    "volume",
    "trade_id",
    "buyer_initiated",
    "symbol",
    "absent",
];
/// Collider events: `bb_mass` and `lead_pt` are null on some rows, so
/// errors — and with them the kernel's prefix — depend on the row.
const EVENT_FIELDS: [&str; 6] = [
    "visible_energy",
    "n_btags",
    "bb_mass",
    "is_signal",
    "lead_pt",
    "absent",
];
const KPATHS: [&str; 3] = ["/k/h0", "/k/h1", "/k/h2"];
const KMATH1: [&str; 5] = ["abs", "floor", "ceil", "round", "sqrt"];
const KBINOPS: [&str; 12] = [
    "+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||",
];
/// Two-parameter helpers the generated bodies call: a plain predicate,
/// one with a `let` and a global read of its own, one that ignores an
/// argument (whose errors must still count), one that calls another.
const KHELPERS: [(&str, &str); 4] = [
    ("above", "fn above(x, c) { return x > c; }"),
    (
        "scaled",
        "fn scaled(x, k) { let twice = cut * 2; return x * twice + k; }",
    ),
    ("first", "fn first(a, b) { return a; }"),
    (
        "between",
        "fn between(x, c) { return above(x, c) && !above(x, scaled(c, 1)); }",
    ),
];
/// `cuts` has four elements — a number, a fraction, a boolean and a null
/// — so index 4 is out of bounds.
const KCUTS: &str = "let cuts = [2, 5.5, true, null];";

#[derive(Debug, Clone)]
enum KgExpr {
    Num(i8),
    Field(u8),
    /// The `cut` global.
    Global,
    /// One of the two leading `let` bindings.
    Local(u8),
    Bin(u8, Box<KgExpr>, Box<KgExpr>),
    Neg(Box<KgExpr>),
    Not(Box<KgExpr>),
    IsNull(Box<KgExpr>),
    Math1(u8, Box<KgExpr>),
    /// The loop variable `i`: the global of that name until a loop has
    /// bound the local, and the loop's last value afterwards.
    LoopVar,
    /// `cuts[k]` at a literal index (4 is out of bounds), or `cuts[i]`.
    CutAt(Option<u8>),
    /// A call to one of [`KHELPERS`].
    Helper(u8, Box<KgExpr>, Box<KgExpr>),
}

impl KgExpr {
    fn render(&self, out: &mut String, pal: Palette) {
        match self {
            KgExpr::Num(n) => {
                if *n < 0 {
                    out.push_str(&format!("({n})"));
                } else {
                    out.push_str(&n.to_string());
                }
            }
            KgExpr::Field(i) => {
                out.push_str("t.");
                out.push_str(pal.fields[*i as usize % if pal.salted { 6 } else { 4 }]);
            }
            KgExpr::Global => out.push_str("cut"),
            KgExpr::Local(i) => out.push_str(if i % 2 == 0 { "l0" } else { "l1" }),
            KgExpr::Bin(op, l, r) => {
                out.push('(');
                l.render(out, pal);
                out.push_str(&format!(" {} ", KBINOPS[*op as usize % KBINOPS.len()]));
                r.render(out, pal);
                out.push(')');
            }
            KgExpr::Neg(e) => {
                out.push_str("(-");
                e.render(out, pal);
                out.push(')');
            }
            KgExpr::Not(e) => {
                out.push_str("(!");
                e.render(out, pal);
                out.push(')');
            }
            KgExpr::IsNull(e) => {
                out.push_str("is_null(");
                e.render(out, pal);
                out.push(')');
            }
            KgExpr::Math1(f, e) => {
                out.push_str(KMATH1[*f as usize % KMATH1.len()]);
                out.push('(');
                e.render(out, pal);
                out.push(')');
            }
            KgExpr::LoopVar => out.push('i'),
            KgExpr::CutAt(Some(k)) => {
                out.push_str(&format!("cuts[{}]", k % if pal.salted { 5 } else { 4 }))
            }
            KgExpr::CutAt(None) if !pal.salted && !pal.in_loop => out.push_str("cuts[1]"),
            KgExpr::CutAt(None) => out.push_str("cuts[i]"),
            KgExpr::Helper(h, x, y) => {
                out.push_str(KHELPERS[*h as usize % KHELPERS.len()].0);
                out.push('(');
                x.render(out, pal);
                out.push_str(", ");
                y.render(out, pal);
                out.push(')');
            }
        }
    }
}

#[derive(Debug, Clone)]
enum KgStmt {
    /// `fill(path, x)` / `fill(path, x, w)` with a literal weight.
    Fill(u8, KgExpr, Option<i8>),
    /// `fill(path, x, w)` with an expression weight.
    FillWeighted(u8, KgExpr, KgExpr),
    /// `if cond { fills… }` — branches hold only fills, as the kernel
    /// requires.
    Guard(KgExpr, Vec<(u8, KgExpr)>),
    /// Compile-time ineligible: a host call that is not a fill.
    Log(KgExpr),
    /// Compile-time ineligible: global mutation.
    GlobalBump,
    /// `let l1 = expr;` — rebinds the second leading `let`, also from
    /// inside a loop.
    Rebind(KgExpr),
    /// `for i in lo..lo+len { … }` over literal bounds (`len` 0 runs no
    /// iteration).
    Loop(u8, u8, Vec<KgStmt>),
}

impl KgStmt {
    fn render(&self, out: &mut String, pal: Palette) {
        match self {
            KgStmt::Fill(p, x, w) => {
                out.push_str(&format!(
                    "fill(\"{}\", ",
                    KPATHS[*p as usize % KPATHS.len()]
                ));
                x.render(out, pal);
                if let Some(w) = w {
                    out.push_str(&format!(", {w}"));
                }
                out.push_str(");\n");
            }
            KgStmt::FillWeighted(p, x, w) => {
                out.push_str(&format!(
                    "fill(\"{}\", ",
                    KPATHS[*p as usize % KPATHS.len()]
                ));
                x.render(out, pal);
                out.push_str(", ");
                w.render(out, pal);
                out.push_str(");\n");
            }
            KgStmt::Guard(cond, fills) => {
                out.push_str("if ");
                cond.render(out, pal);
                out.push_str(" {\n");
                for (p, x) in fills {
                    out.push_str(&format!(
                        "fill(\"{}\", ",
                        KPATHS[*p as usize % KPATHS.len()]
                    ));
                    x.render(out, pal);
                    out.push_str(");\n");
                }
                out.push_str("}\n");
            }
            KgStmt::Log(_) | KgStmt::GlobalBump if !pal.salted => {}
            KgStmt::Log(e) => {
                out.push_str("log(str(");
                e.render(out, pal);
                out.push_str("));\n");
            }
            KgStmt::GlobalBump => out.push_str("seen = seen + 1;\n"),
            KgStmt::Rebind(e) => {
                out.push_str("let l1 = ");
                e.render(out, pal);
                out.push_str(";\n");
            }
            KgStmt::Loop(lo, len, body) => {
                out.push_str(&format!("for i in {lo}..{} {{\n", lo + len));
                let pal = Palette {
                    in_loop: true,
                    ..pal
                };
                for st in body {
                    st.render(out, pal);
                }
                out.push_str("}\n");
            }
        }
    }
}

fn arb_kernel_expr() -> impl Strategy<Value = KgExpr> {
    let leaf = prop_oneof![
        (-9i8..10).prop_map(KgExpr::Num),
        (0u8..6).prop_map(KgExpr::Field),
        (0u8..2).prop_map(KgExpr::Local),
        (0u8..2).prop_map(|_| KgExpr::Global),
        (0u8..1).prop_map(|_| KgExpr::LoopVar),
        (0u8..5).prop_map(|k| KgExpr::CutAt(Some(k))),
        (0u8..1).prop_map(|_| KgExpr::CutAt(None)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (0u8..4, inner.clone(), inner.clone()).prop_map(|(h, x, y)| KgExpr::Helper(
                h,
                Box::new(x),
                Box::new(y)
            )),
            (0u8..12, inner.clone(), inner.clone()).prop_map(|(op, l, r)| KgExpr::Bin(
                op,
                Box::new(l),
                Box::new(r)
            )),
            inner.clone().prop_map(|e| KgExpr::Neg(Box::new(e))),
            inner.clone().prop_map(|e| KgExpr::Not(Box::new(e))),
            inner.clone().prop_map(|e| KgExpr::IsNull(Box::new(e))),
            (0u8..5, inner).prop_map(|(f, e)| KgExpr::Math1(f, Box::new(e))),
        ]
    })
}

fn arb_kernel_body() -> impl Strategy<Value = Vec<KgStmt>> {
    let fill_pair = (0u8..3, arb_kernel_expr());
    let stmt = prop_oneof![
        (
            0u8..3,
            arb_kernel_expr(),
            prop_oneof![(0i8..1).prop_map(|_| None), (1i8..5).prop_map(Some),]
        )
            .prop_map(|(p, x, w)| KgStmt::Fill(p, x, w)),
        (0u8..3, arb_kernel_expr(), arb_kernel_expr())
            .prop_map(|(p, x, w)| KgStmt::FillWeighted(p, x, w)),
        (arb_kernel_expr(), prop::collection::vec(fill_pair, 1..3))
            .prop_map(|(c, f)| KgStmt::Guard(c, f)),
        arb_kernel_expr().prop_map(KgStmt::Log),
        (0u8..1).prop_map(|_| KgStmt::GlobalBump),
        arb_kernel_expr().prop_map(KgStmt::Rebind),
    ]
    .boxed();
    let looped = prop_oneof![
        stmt.clone(),
        stmt.clone(),
        (0u8..3, 0u8..4, prop::collection::vec(stmt, 0..3))
            .prop_map(|(lo, len, body)| KgStmt::Loop(lo, len, body)),
    ];
    prop::collection::vec(looped, 0..5)
}

fn render_kernel_program(l0: &KgExpr, l1: &KgExpr, body: &[KgStmt], pal: Palette) -> String {
    let mut s = String::new();
    // A global `i` too: what the loop variable reads before any loop of
    // `process` has bound the local of that name.
    s.push_str("let cut = 3;\nlet seen = 0;\nlet i = 1;\n");
    s.push_str(KCUTS);
    s.push('\n');
    for (_, helper) in KHELPERS {
        s.push_str(helper);
        s.push('\n');
    }
    s.push_str("fn init() {\n");
    for p in KPATHS {
        s.push_str(&format!("h1(\"{p}\", 16, 0.0, 400.0);\n"));
    }
    s.push_str("}\n");
    s.push_str("fn process(t) {\nlet l0 = ");
    l0.render(&mut s, pal);
    s.push_str(";\nlet l1 = ");
    l1.render(&mut s, pal);
    s.push_str(";\n");
    for st in body {
        st.render(&mut s, pal);
    }
    s.push_str("}\n");
    s
}

/// Collider events for the kernel-shaped bodies: every third has no
/// b-tagged pair (`bb_mass` null), every seventh no particle at all
/// (`lead_pt` null too).
fn events(n: usize) -> RecordBatch {
    RecordBatch::new(
        (0..n)
            .map(|i| {
                let half = 20.0 + 3.0 * i as f64;
                let flavour = if i % 3 == 2 { 1 } else { 5 };
                AnyRecord::Event(CollisionEvent {
                    event_id: i as u64,
                    run: 3,
                    sqrt_s: 500.0,
                    is_signal: i % 4 == 1,
                    particles: if i % 7 == 6 {
                        Vec::new()
                    } else {
                        vec![
                            Particle::new(
                                flavour,
                                -1.0 / 3.0,
                                FourVector::new(half, half, 0.0, 0.0),
                            ),
                            Particle::new(
                                -flavour,
                                1.0 / 3.0,
                                FourVector::new(half, -half, 0.0, 0.0),
                            ),
                        ]
                    },
                })
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: for random programs over the full lifecycle,
    /// every mode in the matrix produces a transcript identical to the
    /// tree-walk's — values, errors (message and line), globals, log
    /// output, and result trees.
    #[test]
    fn vm_matches_interp(
        init_g0 in arb_expr(),
        helper_body in arb_stmts(),
        helper_ret in arb_expr(),
        process_body in arb_stmts(),
        main_body in arb_stmts(),
        main_ret in arb_expr(),
    ) {
        let src = render_program(
            &init_g0, &helper_body, &helper_ret, &process_body, &main_body, &main_ret,
        );
        let records = [higgs_event(120.0), dna_read(), higgs_event(80.0)];
        // Generated programs are bounded (loops ≤ 4 iterations, helper
        // recursion cut by the depth limit), so no mode can come near the
        // default fuel budget and fuel never skews the outcome.
        let want = transcript(&src, MODES[0].0, MODES[0].1, &records);
        for (backend, fusion) in &MODES[1..] {
            let got = transcript(&src, *backend, *fusion, &records);
            prop_assert_eq!(&want, &got, "transcript diverged for {}/{}:\n{}", backend, fusion, &src);
        }
    }

    /// The fusion axis over the batch path: kernel-shaped random programs
    /// (and near misses that must fall back) run over a uniform part —
    /// trades, or events with null cells — with its columnar transcode,
    /// in every mode. The kernel's inlining and unrolling, bulk fills,
    /// selection masks, and fallback boundaries must be
    /// transcript-identical to per-record execution: the error's row,
    /// message and line, the erroring record's partial fills, the
    /// processed count.
    #[test]
    fn fusion_modes_agree_on_uniform_batches(
        l0 in arb_kernel_expr(),
        l1 in arb_kernel_expr(),
        body in arb_kernel_body(),
        n in 1usize..48,
        of_events in any::<bool>(),
        salted in any::<bool>(),
    ) {
        let (fields, records) = if of_events {
            (EVENT_FIELDS, events(n))
        } else {
            (TRADE_FIELDS, trades(n))
        };
        let pal = Palette {
            fields,
            salted,
            in_loop: false,
        };
        let src = render_kernel_program(&l0, &l1, &body, pal);
        let want = batch_transcript(&src, MODES[0].0, MODES[0].1, &records);
        for (backend, fusion) in &MODES[1..] {
            let got = batch_transcript(&src, *backend, *fusion, &records);
            prop_assert_eq!(&want, &got, "batch diverged for {}/{}:\n{}", backend, fusion, &src);
        }
    }
}

// ---------------------------------------------------------------------------
// Handwritten corners: exact error equality (message AND line) on the
// paths most likely to diverge between a compiler and a tree-walk.

#[test]
fn error_paths_are_byte_identical() {
    let cases = [
        // Unknown variable, lazily reported with the right line.
        "fn main() {\n  let a = 1;\n  return zzz;\n}",
        // Unknown function after evaluating its arguments.
        "fn main() { return no_such(1 + 2); }",
        // Arity mismatch reported at the definition line.
        "fn f(a, b) { return a; }\nfn main() { return f(1); }",
        // break outside a loop inside a function.
        "fn main() { break; }",
        // Iterating a non-array.
        "fn main() { for x in 42 { } }",
        // Range used outside `for`.
        "fn main() { return 0..3; }",
        // Range with a non-numeric start: start error wins over the end.
        "fn main() { for x in \"a\"..zzz { } }",
        // Index assignment: index conversion error beats unknown variable.
        "fn main() { zzz[\"x\"] = 1; }",
        // Index assignment to a non-array.
        "fn main() { let a = 5; a[0] = 1; }",
        // Out-of-bounds element assignment.
        "fn main() { let a = [1]; a[9] = 2; }",
        // Ordering non-numbers.
        "fn main() { return [1] < [2]; }",
        // Negating a string.
        "fn main() { return -\"x\"; }",
        // Field access on a non-record.
        "fn main() { return 1.x; }",
        // substr with a negative start (satellite fix, both backends).
        "fn main() { return substr(\"abc\", -1, 2); }",
        // Histogram booking with a bogus bin count (satellite fix).
        "fn main() { return h1(\"/h\", 0 / 0, 0.0, 1.0); }",
        // Division by zero is a value, not an error.
        "fn main() { return 1 / 0; }",
        // Deep recursion → stack overflow in both.
        "fn f(n) { return f(n + 1); }\nfn main() { return f(0); }",
        // Top-level return halts silently; globals still promote.
        "let a = 1; return; let b = 2;",
        // Top-level break halts silently too.
        "let a = 1; break; a = 2;",
        // Shadowing: a function-local binder hides the global.
        "let a = 10;\nfn main() { let a = 1; return a; }",
        // Assignment to a global from a function writes the global.
        "let a = 10;\nfn bump() { a = a + 1; }\nfn main() { bump(); bump(); return a; }",
        // Implicit local creation when no binder exists anywhere.
        "fn main() { q = 5; return q; }",
    ];
    for src in cases {
        assert_backends_agree(src, &[]);
    }
}

#[test]
fn record_semantics_are_identical() {
    // Field reads, missing-field nulls, record equality, and the `field`
    // builtin, against both an event and a DNA record.
    let src = r#"
        fn init() { h1("/r/h", 10, 0.0, 10.0); }
        fn process(ev) {
            if ev == ev { log("self-equal"); }
            let n = ev.n_particles;
            if n != null { fill("/r/h", n % 10); }
            if field(ev, "quality") != null { log("dna"); }
        }
        fn main() { return 0; }
    "#;
    assert_backends_agree(src, &[higgs_event(100.0), dna_read()]);
}

#[test]
fn fuel_exhaustion_hits_both_backends() {
    // Exact fuel counts differ by design (per-op vs per-AST-node burn),
    // but an unbounded loop must end in OutOfFuel on both.
    let src = "fn main() { while true { } }";
    let p = compile(src).unwrap();
    for (backend, fusion) in MODES {
        let mut e = engine_for(&p, backend, fusion).unwrap();
        e.set_fuel(20_000);
        let err = e.call("main", vec![], &mut NullHost).unwrap_err();
        assert_eq!(err, ScriptError::OutOfFuel, "{backend}/{fusion}");
    }
}

#[test]
fn fuel_error_ordering_is_stable_per_backend() {
    // A loop that errors after k iterations: with ample fuel both report
    // the runtime error, not OutOfFuel — the error ordering survives the
    // switch from AST-node accounting to per-op accounting.
    let src = "fn main() { let i = 0; while true { i = i + 1; if i > 50 { return zzz; } } }";
    let p = compile(src).unwrap();
    for (backend, fusion) in MODES {
        let mut e = engine_for(&p, backend, fusion).unwrap();
        let err = e.call("main", vec![], &mut NullHost).unwrap_err();
        assert_eq!(
            err,
            ScriptError::runtime("unknown variable 'zzz'", 1),
            "{backend}/{fusion}"
        );
    }
}

#[test]
fn multibyte_string_literals_agree() {
    // Satellite: the lexer's UTF-8 fix, observable through both backends.
    let src = "fn main() { let s = \"µ→αβγ\"; return len(s) + len(s[1]); }";
    assert_backends_agree(src, &[]);
    let src = "fn main() { return upper(\"gattaca µ\"); }";
    assert_backends_agree(src, &[]);
}

/// `main()` of `src` in one mode.
fn main_in(src: &str, backend: ScriptBackend, fusion: ScriptFusion) -> Result<Value, ScriptError> {
    let p = compile(src).unwrap();
    let mut e = engine_for(&p, backend, fusion).unwrap();
    e.run_init(&mut NullHost).unwrap();
    e.call("main", vec![], &mut NullHost)
}

#[test]
fn bad_indices_are_errors_in_every_mode() {
    // `as usize` used to saturate a negative or NaN index to 0, so these
    // read or overwrote element 0. The messages are pinned per mode; the
    // non-numeric wording is the old one.
    let err = |msg: &str, line| Err(ScriptError::runtime(msg, line));
    let cases: [(&str, Result<Value, ScriptError>); 13] = [
        (
            "return cuts[-1];",
            err("index must not be negative, got -1", 2),
        ),
        (
            "return cuts[0 / 0];",
            err("index must be finite, got NaN", 2),
        ),
        (
            "return cuts[1 / 0];",
            err("index must be finite, got inf", 2),
        ),
        (
            "return \"abc\"[-2];",
            err("index must not be negative, got -2", 2),
        ),
        ("return cuts[\"x\"];", err("index must be numeric", 2)),
        (
            "cuts[-1] = 5;",
            err("array index must not be negative, got -1", 2),
        ),
        (
            "cuts[0 / 0] = 5;",
            err("array index must be finite, got NaN", 2),
        ),
        (
            "cuts[-1 / 0] = 5;",
            err("array index must be finite, got -inf", 2),
        ),
        ("cuts[\"x\"] = 5;", err("array index must be numeric", 2)),
        // The index error still wins over the unknown-variable error.
        (
            "zzz[-1] = 5;",
            err("array index must not be negative, got -1", 2),
        ),
        ("zzz[0] = 5;", err("unknown variable 'zzz'", 2)),
        // Fractions truncate toward zero, on reads and on writes.
        ("return cuts[1.9];", Ok(Value::Num(20.0))),
        (
            "cuts[2.5] = 7; return cuts[2] + cuts[0];",
            Ok(Value::Num(17.0)),
        ),
    ];
    for (body, want) in cases {
        let src = format!("let cuts = [10, 20, 30];\nfn main() {{ {body} }}");
        for (backend, fusion) in MODES {
            assert_eq!(
                main_in(&src, backend, fusion),
                want,
                "{backend}/{fusion}: {body}"
            );
        }
    }
    // And on the per-record path of a batch, where the kernel mode falls
    // back: element 0 must stay what it was.
    let src = r#"
        let cuts = [1, 2];
        fn init() { h1("/i/h", 4, 0.0, 4.0); }
        fn process(t) {
            fill("/i/h", cuts[0]);
            if t.volume == 52 { cuts[-1] = 3; }
        }
    "#;
    assert_fusion_modes_agree(src, &trades(6));
    let oracle = batch_transcript(src, MODES[0].0, MODES[0].1, &trades(6));
    assert!(
        oracle[1].contains("done=2") && oracle[1].contains("must not be negative, got -1"),
        "{oracle:?}"
    );
}

#[test]
fn arrays_keep_value_semantics_in_every_mode() {
    // Arrays are shared behind a reference count and copied on the first
    // write through `name[i] = v`; none of that may show.
    let cases = [
        // Alias, then mutate the alias: the original keeps its element.
        (
            "fn main() { let a = [1, 2]; let b = a; b[0] = 9; return a[0] * 10 + b[0]; }",
            19.0,
        ),
        // Mutating an array argument inside the callee is invisible outside.
        (
            "fn poke(x) { x[0] = 9; return x[0]; }\nfn main() { let a = [1, 2]; let r = poke(a); return a[0] * 10 + r; }",
            19.0,
        ),
        // Mutating the global array inside `for x in arr`: the loop walks
        // the snapshot it took, the global has the write.
        (
            "let arr = [1, 2, 3];\nfn main() { let t = 0; for x in arr { arr[2] = 100; t = t + x; } return t * 1000 + arr[2]; }",
            6100.0,
        ),
        // An element that is itself an array is shared, then copied, too.
        (
            "fn main() { let row = [1, 2]; let m = [row, row]; row[0] = 7; let first = m[0]; return first[0] * 10 + row[0]; }",
            17.0,
        ),
        // Duplicate parameter names share a slot: the last argument wins.
        ("fn f(a, a) { return a; }\nfn main() { return f(1, 2); }", 2.0),
        // A range counter yields what materializing the range yielded.
        (
            "fn main() { let t = 0; for i in (-2)..2.5 { t = t * 10 + (i + 3); } return t; }",
            12345.0,
        ),
        // Fractional start: still one value per repeated `+ 1`.
        (
            "fn main() { let t = 0; for i in 0.5..3 { t = t + i; } return t; }",
            4.5,
        ),
        // Empty and NaN-bounded ranges run no iteration.
        (
            "fn main() { let t = 0; for i in 3..3 { t = t + 1; } for i in 0..(0 / 0) { t = t + 1; } for i in (0 / 0)..5 { t = t + 1; } return t; }",
            0.0,
        ),
        // The loop variable can be reassigned without disturbing the count.
        (
            "fn main() { let t = 0; for i in 0..3 { i = i * 10; t = t + i; } return t; }",
            30.0,
        ),
    ];
    for (src, want) in cases {
        for (backend, fusion) in MODES {
            assert_eq!(
                main_in(src, backend, fusion),
                Ok(Value::Num(want)),
                "{backend}/{fusion}: {src}"
            );
        }
    }
}

#[test]
fn range_past_exact_integers_is_out_of_fuel_in_every_mode() {
    // Repeated `+ 1` sticks at 2^53, so a range that ends above it never
    // ends: the tree-walk burns its fuel finding out, the VM knows.
    for src in [
        "fn main() { for i in 0..100000000000000000 { } }",
        "fn main() { for i in 9007199254740990..9007199254740994 { } }",
        "fn main() { for i in 0..(1 / 0) { } }",
        "fn main() { for i in 0..30000 { } }",
    ] {
        let p = compile(src).unwrap();
        for (backend, fusion) in MODES {
            let mut e = engine_for(&p, backend, fusion).unwrap();
            e.set_fuel(20_000);
            let err = e.call("main", vec![], &mut NullHost).unwrap_err();
            assert_eq!(err, ScriptError::OutOfFuel, "{backend}/{fusion}: {src}");
        }
    }
}

#[test]
fn an_error_three_calls_deep_leaves_the_next_record_clean() {
    // Record 3 fails inside c() with operands of process(), a() and b()
    // still on the VM's operand stack and four calls' slots on its locals
    // stack; record 4 onwards must run as if nothing had happened.
    let src = r#"
        let n = 0;
        fn init() { h1("/u/h", 8, 0.0, 8.0); }
        fn c(t) { if n == 4 { return [1][t.volume]; } return t.volume % 7; }
        fn b(t, k) { return k + c(t); }
        fn a(t) { return 1 + b(t, 0) * 1; }
        fn process(t) { n = n + 1; fill("/u/h", 0 + a(t), 1 + 0 * a(t)); }
        fn main() { return n; }
    "#;
    let records: Vec<AnyRecord> = trades(8).iter().cloned().collect();
    let want = transcript(src, MODES[0].0, MODES[0].1, &records);
    let failed: Vec<bool> = want
        .iter()
        .filter(|l| l.starts_with("process:"))
        .map(|l| l.contains("Err"))
        .collect();
    assert_eq!(
        failed,
        [false, false, false, true, false, false, false, false]
    );
    assert!(want.iter().any(|l| l == "main: Ok(Num(8.0))"), "{want:?}");
    for (backend, fusion) in &MODES[1..] {
        assert_eq!(
            want,
            transcript(src, *backend, *fusion, &records),
            "{backend}/{fusion}"
        );
    }
}

#[test]
fn stack_overflow_leaves_every_mode_usable() {
    // 64 nested calls fit, the 65th is StackOverflow (before any slot of
    // it exists), and the engine then answers as before.
    let src = "fn f(n) { if n == 0 { return 0; } return 1 + f(n - 1); }";
    let p = compile(src).unwrap();
    for (backend, fusion) in MODES {
        let mut e = engine_for(&p, backend, fusion).unwrap();
        e.run_init(&mut NullHost).unwrap();
        let mut f = |n: f64| e.call("f", vec![Value::Num(n)], &mut NullHost);
        assert_eq!(f(63.0), Ok(Value::Num(63.0)), "{backend}/{fusion}");
        assert_eq!(
            f(64.0),
            Err(ScriptError::StackOverflow),
            "{backend}/{fusion}"
        );
        assert_eq!(f(63.0), Ok(Value::Num(63.0)), "{backend}/{fusion}");
    }
}

// ---------------------------------------------------------------------------
// Fallback-boundary corners for the batch kernel: each one pins *where*
// the fallback happens (compile time vs bind time vs probe time) and that
// the observable transcript is unchanged by it.

#[test]
fn string_guard_is_compile_time_ineligible_and_agrees() {
    // A string literal in the guard predicate is outside the kernel's
    // expression language: `BatchKernel::compile` must refuse, and the
    // per-record fallback must still fill every row (all symbols match).
    let src = r#"
        fn init() { h1("/s/h", 16, 0.0, 400.0); }
        fn process(t) {
            if t.symbol == "IPA" { fill("/s/h", t.price); }
        }
    "#;
    assert!(BatchKernel::compile(&compile(src).unwrap()).is_none());
    assert_fusion_modes_agree(src, &trades(64));
}

#[test]
fn global_mutation_is_compile_time_ineligible_and_agrees() {
    // Writing a global from `process` cannot vectorize (each record
    // observes the previous record's write). The transcript — including
    // the final value of `seen` — must match per-record execution.
    let src = r#"
        let seen = 0;
        fn init() { h1("/g/h", 16, 0.0, 400.0); }
        fn process(t) {
            seen = seen + 1;
            fill("/g/h", t.volume);
        }
    "#;
    assert!(BatchKernel::compile(&compile(src).unwrap()).is_none());
    assert_fusion_modes_agree(src, &trades(33));
}

#[test]
fn string_column_read_falls_back_at_bind_time() {
    // `t.symbol` is an eligible *name* at compile time but binds to a
    // string column, which the kernel cannot evaluate: compile succeeds,
    // bind refuses, and every mode reports the identical per-row error
    // (a string is not a number) at the identical row.
    let src = r#"
        fn init() { h1("/b/h", 16, 0.0, 400.0); }
        fn process(t) {
            fill("/b/h", t.symbol + 1);
        }
    "#;
    assert!(BatchKernel::compile(&compile(src).unwrap()).is_some());
    assert_fusion_modes_agree(src, &trades(8));
}

#[test]
fn missing_column_falls_back_at_bind_time() {
    // `t.absent` reads null per record and has no column at all in the
    // batch: the kernel binds `None` and the fallback's null-guarded
    // fills never fire — in every mode.
    let src = r#"
        fn init() { h1("/m/h", 16, 0.0, 400.0); h1("/m/v", 16, 0.0, 400.0); }
        fn process(t) {
            let a = t.absent;
            if a != null { fill("/m/h", a); }
            fill("/m/v", t.volume);
        }
    "#;
    assert!(BatchKernel::compile(&compile(src).unwrap()).is_some());
    assert_fusion_modes_agree(src, &trades(21));
}

#[test]
fn mixed_type_batch_has_no_columns_and_agrees() {
    // A part mixing record types has no columnar transcode: `run_fused`
    // gets `columns: None` and every mode degrades to the plain
    // per-record loop over `RecordRef::batch` handles.
    let src = r#"
        fn init() { h1("/x/h", 10, 0.0, 10.0); }
        fn process(r) {
            let n = r.n_particles;
            if n != null { fill("/x/h", n); }
        }
    "#;
    let records = RecordBatch::new(vec![higgs_event(120.0), dna_read(), higgs_event(80.0)]);
    assert!(ColumnBatch::from_records(&records).is_none());
    assert_fusion_modes_agree(src, &records);
}

#[test]
fn unbooked_fill_path_aborts_at_probe_time_with_exact_row() {
    // `/e/missing` is never booked. The kernel's empty-slice probe
    // errors, so it must abort before ANY side effect and let the
    // per-record loop reproduce the error at the exact row (volume hits
    // 57 at row 7) with the erroring record's partial fills applied.
    let src = r#"
        fn init() { h1("/e/h", 16, 0.0, 400.0); }
        fn process(t) {
            fill("/e/h", t.price);
            if t.volume == 57 { fill("/e/missing", 1); }
        }
    "#;
    let records = trades(20);
    let want = batch_transcript(src, MODES[0].0, MODES[0].1, &records);
    assert!(
        want.iter().any(|l| l.contains("done=7")),
        "oracle must stop at row 7: {want:?}"
    );
    for (backend, fusion) in &MODES[1..] {
        let got = batch_transcript(src, *backend, *fusion, &records);
        assert_eq!(want, got, "batch diverged for {backend}/{fusion}");
    }
}

#[test]
fn global_read_in_guard_vectorizes_and_agrees() {
    // Reading (not writing) a global in the predicate is eligible: the
    // kernel snapshots it once, which is sound because the body cannot
    // change it. Transcript-identical across the matrix.
    let src = r#"
        let cut = 100.0;
        fn init() { h1("/c/h", 16, 0.0, 400.0); }
        fn process(t) {
            if t.price > cut { fill("/c/h", t.price); }
        }
    "#;
    assert!(BatchKernel::compile(&compile(src).unwrap()).is_some());
    assert_fusion_modes_agree(src, &trades(40));
}
