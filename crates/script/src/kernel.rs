//! The batch kernel: vectorized execution of canonical analyze bodies.
//!
//! The per-record hot path — even through the bytecode VM with
//! superinstructions — pays per-record dispatch, `RecordRef` construction,
//! and boxed-`Value` traffic for every row. But the dominant analysis
//! shape is tiny and regular: a straight-line `process(rec)` body of
//! `let` bindings over record fields, an optional guard predicate, and
//! `fill`/`fill2`/`pfill` calls:
//!
//! ```text
//! fn process(e) {
//!     fill("/higgs/n_btags", e.n_btags);
//!     let m = e.bb_mass;
//!     if m != null { fill("/higgs/bb_mass", m); }
//! }
//! ```
//!
//! [`BatchKernel::compile`] recognizes that shape and lowers it to a small
//! dataflow plan executed directly over [`ColumnBatch`] typed slices:
//! every expression evaluates column-at-a-time into flat `f64` vectors
//! with validity and error bitmaps, guards become selection masks, and
//! each fill call becomes one bulk [`Host`] slice fill over the surviving
//! rows. Anything the plan cannot express — string operations, loops,
//! global mutation, user-function calls, records as first-class values —
//! makes the whole program ineligible, and everything falls back to the
//! per-record engine loop.
//!
//! # Record-exact semantics
//!
//! The kernel's contract ([`BatchKernel::run`]) is a *prefix* contract:
//! `Some(p)` means the first `p` rows of the range executed exactly as the
//! per-record loop would have — same fills, bit-identical accumulator
//! values (AIDA bulk fills are defined as the scalar fill repeated in
//! slice order), no observable errors. The caller resumes the per-record
//! VM at row `p`, which reproduces any error with its exact message and
//! line, including the erroring record's partial fills. `None` means the
//! batch was ineligible (missing column, string column, unresolvable
//! global, unbooked fill path, fuel budget below the static bound) and no
//! side effects happened. Error detection is conservative: a row is
//! marked erroring if *any* statement the per-record loop would execute
//! errors there, and the prefix stops at the first such row — marking too
//! many rows only shrinks the prefix, never changes results.
//!
//! Fuel: eligible bodies are loop-free and call-free, so per-record fuel
//! use is bounded by a static count. `run` executes only when the
//! engine's per-record budget is at least 16 + 8 × (AST node count) — a
//! generous over-estimate of the per-record burn — which proves
//! `OutOfFuel` unobservable and licenses skipping per-op accounting.
//!
//! # Host contract for bulk fills
//!
//! Before applying any fill the kernel *probes* every fill path with an
//! empty slice; a probe error (unbooked path, kind mismatch) aborts to
//! the fallback before any side effect. After successful probes the bulk
//! fills are assumed infallible: [`Host`] fill errors must depend only on
//! the path, never on the coordinates (true of [`AidaHost`] and every
//! host in this codebase). A host violating that contract panics here.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use ipa_dataset::{ColumnBatch, RecordBatch};

use crate::ast::{BinOp, Expr, ExprKind, Program, Stmt, UnOp};
use crate::error::ScriptError;
use crate::interp::Host;
use crate::stdlib::Builtin;
use crate::value::{RecordRef, Value};
use crate::ScriptEngine;

/// Static value kind of a vectorized expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Numbers (booleans widen to 0/1 exactly like [`Value::as_num`]).
    Num,
    /// Booleans, stored as 0.0/1.0.
    Bool,
    /// The `null` literal (and unbound-looking rows).
    Null,
}

/// A vectorizable expression over one batch range.
#[derive(Debug, Clone)]
enum KExpr {
    /// Numeric literal.
    Num(f64),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// `param.field`, by index into the plan's field list.
    Col(usize),
    /// A global read, by index into the plan's global list.
    Global(usize),
    /// A prior `let` binding, by definition order.
    Let(usize),
    /// Binary operator (including short-circuit `&&`/`||`, which
    /// vectorize because eligible operands are side-effect-free).
    Bin(BinOp, Box<KExpr>, Box<KExpr>),
    /// Numeric negation.
    Neg(Box<KExpr>),
    /// Logical not.
    Not(Box<KExpr>),
    /// `is_null(x)` (never errors).
    IsNull(Box<KExpr>),
    /// One-argument math builtin (`sqrt`…`round`).
    Math1(Builtin, Box<KExpr>),
    /// Two-argument math builtin (`pow`/`atan2`/`min`/`max`).
    Math2(Builtin, Box<KExpr>, Box<KExpr>),
}

/// Which fill family a [`KFill`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillKind {
    /// `fill(path, x, w?)` → [`Host::fill1_slice`].
    H1,
    /// `fill2(path, x, y, w?)` → [`Host::fill2_slice`].
    H2,
    /// `pfill(path, x, y, w?)` → [`Host::fill_profile_slice`].
    Prof,
}

/// The weight operand of a fill.
#[derive(Debug, Clone)]
enum Weight {
    /// No weight argument: 1.0.
    One,
    /// A numeric literal weight (the only expression form the 2-D slice
    /// fills can carry).
    Const(f64),
    /// An arbitrary eligible weight expression (1-D fills only, via
    /// [`Host::fill1_slice_weighted`]).
    Expr(KExpr),
}

/// One lowered fill call.
#[derive(Debug, Clone)]
struct KFill {
    kind: FillKind,
    path: String,
    x: KExpr,
    /// Second coordinate for `H2`/`Prof`.
    y: Option<KExpr>,
    w: Weight,
}

/// One lowered statement of the `process` body.
#[derive(Debug, Clone)]
enum KStep {
    /// `let name = expr;` — evaluated unconditionally (errors count even
    /// when the binding goes unused).
    Let(KExpr),
    /// An unconditional fill.
    Fill(KFill),
    /// `if cond { fills… } else { fills… }` — branches may contain only
    /// fill calls, which become disjoint selection masks.
    If {
        cond: KExpr,
        then: Vec<KFill>,
        els: Vec<KFill>,
    },
}

/// The full lowered `process` body.
#[derive(Debug, Clone)]
struct KernelProgram {
    /// Record fields read by the body, in [`KExpr::Col`] index order.
    fields: Vec<String>,
    /// Globals read by the body, in [`KExpr::Global`] index order.
    globals: Vec<String>,
    steps: Vec<KStep>,
}

/// One resolved record field of the bound batch.
#[derive(Debug)]
struct BoundCol {
    kind: Kind,
    /// Column index in the batch (validity lookups).
    col: usize,
    /// Cells converted to `f64` for integer/boolean columns; `None` for
    /// native `f64` columns, which are read in place.
    conv: Option<Vec<f64>>,
}

/// Per-batch binding, cached by pointer identity so the integer/boolean
/// conversions happen once per part, not once per `process_batch` chunk.
#[derive(Debug)]
struct Bind {
    batch: Arc<ColumnBatch>,
    /// `None`: this batch can never run the kernel (missing field or
    /// string-typed column).
    cols: Option<Vec<BoundCol>>,
}

/// A compiled vectorized `process` body. Construct with
/// [`BatchKernel::compile`]; drive with [`BatchKernel::run`] (or the
/// [`run_fused`] helper, which owns the fallback loop too).
#[derive(Debug)]
pub struct BatchKernel {
    plan: KernelProgram,
    /// Static per-record fuel bound; `run` refuses budgets below it.
    cost: u64,
    bind: Option<Bind>,
}

// ---------------------------------------------------------------------------
// Compilation: AST shape recognition.

struct Lowerer<'p> {
    program: &'p Program,
    param: &'p str,
    fields: Vec<String>,
    globals: Vec<String>,
    /// In-scope `let` bindings: name → definition index.
    lets: HashMap<String, usize>,
    n_lets: usize,
    nodes: u64,
}

impl<'p> Lowerer<'p> {
    fn intern(list: &mut Vec<String>, name: &str) -> usize {
        match list.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                list.push(name.to_string());
                list.len() - 1
            }
        }
    }

    /// Lower an eligible value expression, or bail.
    fn expr(&mut self, e: &Expr) -> Option<KExpr> {
        self.nodes += 1;
        Some(match &e.kind {
            ExprKind::Null => KExpr::Null,
            ExprKind::Bool(b) => KExpr::Bool(*b),
            ExprKind::Num(n) => KExpr::Num(*n),
            // Strings, arrays, ranges, indexing, and the record itself as
            // a value all stay on the per-record path.
            ExprKind::Str(_) | ExprKind::Array(_) | ExprKind::Range { .. } => return None,
            ExprKind::Index { .. } => return None,
            ExprKind::Var(name) => {
                if name.as_str() == self.param {
                    return None;
                }
                match self.lets.get(name) {
                    Some(&i) => KExpr::Let(i),
                    None => KExpr::Global(Self::intern(&mut self.globals, name)),
                }
            }
            ExprKind::Field { target, field } => match &target.kind {
                ExprKind::Var(v) if v.as_str() == self.param => {
                    KExpr::Col(Self::intern(&mut self.fields, field))
                }
                _ => return None,
            },
            ExprKind::Binary { op, lhs, rhs } => {
                KExpr::Bin(*op, Box::new(self.expr(lhs)?), Box::new(self.expr(rhs)?))
            }
            ExprKind::Unary { op, expr } => match op {
                UnOp::Neg => KExpr::Neg(Box::new(self.expr(expr)?)),
                UnOp::Not => KExpr::Not(Box::new(self.expr(expr)?)),
            },
            ExprKind::Call { name, args } => {
                // User functions shadow builtins, and their bodies can do
                // anything — punt.
                if self.program.functions.contains_key(name) {
                    return None;
                }
                match Builtin::lookup(name)? {
                    b @ (Builtin::Sqrt
                    | Builtin::Abs
                    | Builtin::Ln
                    | Builtin::Log10
                    | Builtin::Exp
                    | Builtin::Sin
                    | Builtin::Cos
                    | Builtin::Tan
                    | Builtin::Floor
                    | Builtin::Ceil
                    | Builtin::Round) => {
                        if args.len() != 1 {
                            return None; // arity error: per-record path reports it
                        }
                        KExpr::Math1(b, Box::new(self.expr(&args[0])?))
                    }
                    b @ (Builtin::Pow | Builtin::Atan2 | Builtin::Min | Builtin::Max) => {
                        if args.len() != 2 {
                            return None;
                        }
                        KExpr::Math2(
                            b,
                            Box::new(self.expr(&args[0])?),
                            Box::new(self.expr(&args[1])?),
                        )
                    }
                    Builtin::Pi => {
                        if !args.is_empty() {
                            return None;
                        }
                        KExpr::Num(std::f64::consts::PI)
                    }
                    Builtin::IsNull => {
                        if args.len() != 1 {
                            return None;
                        }
                        KExpr::IsNull(Box::new(self.expr(&args[0])?))
                    }
                    _ => return None,
                }
            }
        })
    }

    /// Lower a fill-family call statement, or bail.
    fn fill(&mut self, e: &Expr) -> Option<KFill> {
        self.nodes += 1;
        let ExprKind::Call { name, args } = &e.kind else {
            return None;
        };
        if self.program.functions.contains_key(name) {
            return None;
        }
        let (kind, n_coords) = match Builtin::lookup(name)? {
            Builtin::Fill => (FillKind::H1, 1),
            Builtin::Fill2 => (FillKind::H2, 2),
            Builtin::Pfill => (FillKind::Prof, 2),
            _ => return None,
        };
        // path + coordinates, optionally + weight.
        if args.len() < 1 + n_coords || args.len() > 2 + n_coords {
            return None;
        }
        let ExprKind::Str(path) = &args[0].kind else {
            return None; // dynamic paths stay per-record
        };
        let x = self.expr(&args[1])?;
        let y = if n_coords == 2 {
            Some(self.expr(&args[2])?)
        } else {
            None
        };
        let w = match args.get(1 + n_coords) {
            None => Weight::One,
            Some(warg) => match (&warg.kind, kind) {
                (ExprKind::Num(w), _) => Weight::Const(*w),
                // Only the 1-D fill has a per-row weighted slice call.
                (_, FillKind::H1) => Weight::Expr(self.expr(warg)?),
                _ => return None,
            },
        };
        Some(KFill {
            kind,
            path: path.clone(),
            x,
            y,
            w,
        })
    }

    /// Lower a branch body: fill-family calls only.
    fn branch(&mut self, stmts: &[Stmt]) -> Option<Vec<KFill>> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Expr(e) => self.fill(e),
                _ => None,
            })
            .collect()
    }
}

impl BatchKernel {
    /// Try to lower `program`'s `process` body to a vectorized plan.
    /// `None` means the body is not kernel-shaped; callers run the
    /// per-record engine loop unconditionally.
    pub fn compile(program: &Program) -> Option<BatchKernel> {
        let process = program.function("process")?;
        let [param] = process.params.as_slice() else {
            return None;
        };
        let mut lo = Lowerer {
            program,
            param: param.as_str(),
            fields: Vec::new(),
            globals: Vec::new(),
            lets: HashMap::new(),
            n_lets: 0,
            nodes: 0,
        };
        let mut steps = Vec::new();
        for stmt in &process.body {
            lo.nodes += 1;
            match stmt {
                Stmt::Let { name, value } => {
                    if name == param {
                        return None; // shadowing the record breaks Col resolution
                    }
                    let e = lo.expr(value)?;
                    lo.lets.insert(name.clone(), lo.n_lets);
                    lo.n_lets += 1;
                    steps.push(KStep::Let(e));
                }
                Stmt::Expr(e) => steps.push(KStep::Fill(lo.fill(e)?)),
                Stmt::If {
                    cond,
                    then,
                    otherwise,
                } => {
                    let cond = lo.expr(cond)?;
                    let then = lo.branch(then)?;
                    let els = lo.branch(otherwise)?;
                    steps.push(KStep::If { cond, then, els });
                }
                _ => return None, // loops, assignment, return, break, continue
            }
        }
        // Two fills into one path would interleave differently per-record
        // vs. in bulk (f64 accumulation is order-sensitive): require
        // distinct paths so each histogram sees record order either way.
        let mut paths: Vec<&str> = Vec::new();
        for_each_fill(&steps, &mut |f| paths.push(&f.path));
        let n_paths = paths.len();
        paths.sort_unstable();
        paths.dedup();
        if paths.len() != n_paths {
            return None;
        }
        Some(BatchKernel {
            cost: 16 + 8 * lo.nodes,
            plan: KernelProgram {
                fields: lo.fields,
                globals: lo.globals,
                steps,
            },
            bind: None,
        })
    }

    /// The static per-record fuel bound `run` requires of the budget.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Execute the plan over `columns[range]`, filling `host` in bulk.
    ///
    /// Returns `Some(prefix)` when the first `prefix` rows of the range
    /// executed exactly as the per-record loop would have (the caller runs
    /// rows `range.start + prefix..range.end` through the engine), or
    /// `None` — with no side effects — when this batch cannot run
    /// vectorized. `globals` resolves current global values (the engine's
    /// [`ScriptEngine::global`]); `fuel_budget` is the engine's per-record
    /// budget.
    pub fn run(
        &mut self,
        columns: &Arc<ColumnBatch>,
        range: Range<usize>,
        globals: &dyn Fn(&str) -> Option<Value>,
        fuel_budget: u64,
        host: &mut dyn Host,
    ) -> Option<usize> {
        if fuel_budget < self.cost || range.end > columns.len() {
            return None;
        }
        let n = range.end.saturating_sub(range.start);
        if n == 0 {
            return Some(0);
        }
        self.ensure_bind(columns);
        let bind = self.bind.as_ref().expect("bind ensured above");
        let cols = bind.cols.as_ref()?;

        // Globals resolve fresh per run (eligible bodies never mutate
        // them). Anything non-scalar falls back.
        let mut gvals: Vec<(Kind, f64)> = Vec::with_capacity(self.plan.globals.len());
        for name in &self.plan.globals {
            gvals.push(match globals(name)? {
                Value::Num(x) => (Kind::Num, x),
                Value::Bool(b) => (Kind::Bool, b as u8 as f64),
                Value::Null => (Kind::Null, 0.0),
                _ => return None,
            });
        }

        // Probe every fill path with an empty slice before any side
        // effect: unbooked paths and kind mismatches fall back here.
        let mut probes_ok = true;
        for_each_fill(&self.plan.steps, &mut |f| {
            let r = match (f.kind, &f.w) {
                (FillKind::H1, Weight::Expr(_)) => host.fill1_slice_weighted(&f.path, &[], &[]),
                (FillKind::H1, _) => host.fill1_slice(&f.path, &[], 1.0),
                (FillKind::H2, _) => host.fill2_slice(&f.path, &[], &[], 1.0),
                (FillKind::Prof, _) => host.fill_profile_slice(&f.path, &[], &[], 1.0),
            };
            probes_ok &= r.is_ok();
        });
        if !probes_ok {
            return None;
        }

        let ctx = EvalCtx {
            batch: &bind.batch,
            cols,
            gvals: &gvals,
            range: range.clone(),
            n,
        };

        // Evaluate every step, accumulating per-row error flags and the
        // fill argument vectors (gathered after the prefix is known).
        let mut lets: Vec<Ev> = Vec::new();
        let mut err_any = vec![false; n];
        let mut apps: Vec<FillApp<'_>> = Vec::new();
        for step in &self.plan.steps {
            match step {
                KStep::Let(e) => {
                    let ev = ctx.eval(e, &lets);
                    or_assign(&mut err_any, &ev.err);
                    lets.push(ev);
                }
                KStep::Fill(f) => {
                    let app = ctx.fill_app(f, None, &lets, &mut err_any);
                    apps.push(app);
                }
                KStep::If { cond, then, els } => {
                    let cev = ctx.eval(cond, &lets);
                    or_assign(&mut err_any, &cev.err);
                    let mut then_sel = vec![false; n];
                    let mut els_sel = vec![false; n];
                    for r in 0..n {
                        if !cev.err[r] {
                            let t = cev.truthy(r);
                            then_sel[r] = t;
                            els_sel[r] = !t;
                        }
                    }
                    for f in then {
                        let app = ctx.fill_app(f, Some(then_sel.clone()), &lets, &mut err_any);
                        apps.push(app);
                    }
                    for f in els {
                        let app = ctx.fill_app(f, Some(els_sel.clone()), &lets, &mut err_any);
                        apps.push(app);
                    }
                }
            }
        }

        let prefix = err_any.iter().position(|&e| e).unwrap_or(n);

        // Apply the fills for the error-free prefix, in statement order.
        // Paths are distinct (compile invariant), so each histogram sees
        // its values in record order — bit-identical to the scalar loop.
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut ws: Vec<f64> = Vec::new();
        for app in &apps {
            xs.clear();
            ys.clear();
            ws.clear();
            let selected = (0..prefix).filter(|&r| app.sel.as_ref().is_none_or(|s| s[r]));
            for r in selected {
                xs.push(app.x.vals[r]);
                if let Some(y) = &app.y {
                    ys.push(y.vals[r]);
                }
                if let WeightApp::Expr(w) = &app.w {
                    ws.push(w.vals[r]);
                }
            }
            let scalar_w = match &app.w {
                WeightApp::Scalar(w) => *w,
                WeightApp::Expr(_) => 1.0,
            };
            // Probed above; see the module docs for the host contract.
            let res = match (app.fill.kind, &app.w) {
                (FillKind::H1, WeightApp::Expr(_)) => {
                    host.fill1_slice_weighted(&app.fill.path, &xs, &ws)
                }
                (FillKind::H1, _) => host.fill1_slice(&app.fill.path, &xs, scalar_w),
                (FillKind::H2, _) => host.fill2_slice(&app.fill.path, &xs, &ys, scalar_w),
                (FillKind::Prof, _) => host.fill_profile_slice(&app.fill.path, &xs, &ys, scalar_w),
            };
            res.expect("bulk fill failed after its empty-slice probe succeeded; host fill errors must depend only on the path");
        }
        Some(prefix)
    }

    /// (Re)build the per-batch column binding when the batch changes.
    fn ensure_bind(&mut self, columns: &Arc<ColumnBatch>) {
        if let Some(b) = &self.bind {
            if Arc::ptr_eq(&b.batch, columns) {
                return;
            }
        }
        let mut cols = Vec::with_capacity(self.plan.fields.len());
        let mut ok = true;
        for name in &self.plan.fields {
            let Some(ci) = columns.column_index(name) else {
                ok = false; // unknown field: per-record path reports it
                break;
            };
            let col = columns.column(ci);
            let bc = if col.f64s().is_some() {
                BoundCol {
                    kind: Kind::Num,
                    col: ci,
                    conv: None,
                }
            } else if let Some(is) = col.i64s() {
                BoundCol {
                    kind: Kind::Num,
                    col: ci,
                    conv: Some(is.iter().map(|&i| i as f64).collect()),
                }
            } else if let Some(bs) = col.bools() {
                BoundCol {
                    kind: Kind::Bool,
                    col: ci,
                    conv: Some(bs.iter().map(|&b| b as u8 as f64).collect()),
                }
            } else {
                ok = false; // string column: stays per-record
                break;
            };
            cols.push(bc);
        }
        self.bind = Some(Bind {
            batch: columns.clone(),
            cols: ok.then_some(cols),
        });
    }
}

/// Visit every fill of `steps` in statement order.
fn for_each_fill<'a>(steps: &'a [KStep], f: &mut dyn FnMut(&'a KFill)) {
    for step in steps {
        match step {
            KStep::Let(_) => {}
            KStep::Fill(fill) => f(fill),
            KStep::If { then, els, .. } => {
                for fill in then {
                    f(fill);
                }
                for fill in els {
                    f(fill);
                }
            }
        }
    }
}

fn or_assign(acc: &mut [bool], src: &[bool]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a |= s;
    }
}

// ---------------------------------------------------------------------------
// Vector evaluation.

/// A vectorized expression result over the active range: `vals[r]` is the
/// numeric view (booleans as 0/1), `valid[r]` false means the row is
/// `null`, `err[r]` true means the per-record loop would have errored at
/// or before this expression on row `r`.
#[derive(Clone)]
struct Ev {
    kind: Kind,
    vals: Vec<f64>,
    valid: Vec<bool>,
    err: Vec<bool>,
}

impl Ev {
    fn broadcast(n: usize, kind: Kind, val: f64) -> Ev {
        Ev {
            kind,
            vals: vec![val; n],
            valid: vec![kind != Kind::Null; n],
            err: vec![false; n],
        }
    }

    /// Row truthiness, mirroring [`Value::truthy`] for Num/Bool/Null
    /// (`NaN` is truthy: `NaN != 0.0`).
    fn truthy(&self, r: usize) -> bool {
        self.valid[r] && self.vals[r] != 0.0
    }
}

/// Evaluated fill arguments awaiting the prefix gather.
struct FillApp<'a> {
    fill: &'a KFill,
    /// Branch selection mask; `None` for unconditional fills.
    sel: Option<Vec<bool>>,
    x: Ev,
    y: Option<Ev>,
    w: WeightApp,
}

enum WeightApp {
    Scalar(f64),
    Expr(Ev),
}

struct EvalCtx<'a> {
    batch: &'a ColumnBatch,
    cols: &'a [BoundCol],
    gvals: &'a [(Kind, f64)],
    range: Range<usize>,
    n: usize,
}

impl EvalCtx<'_> {
    fn eval(&self, e: &KExpr, lets: &[Ev]) -> Ev {
        let n = self.n;
        match e {
            KExpr::Num(k) => Ev::broadcast(n, Kind::Num, *k),
            KExpr::Bool(b) => Ev::broadcast(n, Kind::Bool, *b as u8 as f64),
            KExpr::Null => Ev::broadcast(n, Kind::Null, 0.0),
            KExpr::Col(i) => {
                let bc = &self.cols[*i];
                let col = self.batch.column(bc.col);
                let vals: Vec<f64> = match &bc.conv {
                    Some(v) => v[self.range.clone()].to_vec(),
                    None => col.f64s().expect("bound as native f64")[self.range.clone()].to_vec(),
                };
                let valid: Vec<bool> = if col.all_valid() {
                    vec![true; n]
                } else {
                    (self.range.clone()).map(|row| col.is_valid(row)).collect()
                };
                Ev {
                    kind: bc.kind,
                    vals,
                    valid,
                    err: vec![false; n],
                }
            }
            KExpr::Global(i) => {
                let (kind, val) = self.gvals[*i];
                Ev::broadcast(n, kind, val)
            }
            KExpr::Let(i) => lets[*i].clone(),
            KExpr::Bin(op, a, b) => {
                let a = self.eval(a, lets);
                let b = self.eval(b, lets);
                self.bin(*op, a, b)
            }
            KExpr::Neg(a) => {
                let a = self.eval(a, lets);
                let mut out = Ev::broadcast(n, Kind::Num, 0.0);
                for r in 0..n {
                    out.err[r] = a.err[r] || !a.valid[r];
                    out.vals[r] = -a.vals[r];
                }
                out
            }
            KExpr::Not(a) => {
                let a = self.eval(a, lets);
                let mut out = Ev::broadcast(n, Kind::Bool, 0.0);
                for r in 0..n {
                    out.err[r] = a.err[r];
                    out.vals[r] = (!a.truthy(r)) as u8 as f64;
                }
                out
            }
            KExpr::IsNull(a) => {
                let a = self.eval(a, lets);
                let mut out = Ev::broadcast(n, Kind::Bool, 0.0);
                for r in 0..n {
                    out.err[r] = a.err[r];
                    out.vals[r] = (!a.valid[r]) as u8 as f64;
                }
                out
            }
            KExpr::Math1(b, a) => {
                let a = self.eval(a, lets);
                let mut out = Ev::broadcast(n, Kind::Num, 0.0);
                let f = math1(*b);
                for r in 0..n {
                    out.err[r] = a.err[r] || !a.valid[r];
                    out.vals[r] = f(a.vals[r]);
                }
                out
            }
            KExpr::Math2(b, x, y) => {
                let x = self.eval(x, lets);
                let y = self.eval(y, lets);
                let mut out = Ev::broadcast(n, Kind::Num, 0.0);
                let f = math2(*b);
                for r in 0..n {
                    out.err[r] = x.err[r] || y.err[r] || !x.valid[r] || !y.valid[r];
                    out.vals[r] = f(x.vals[r], y.vals[r]);
                }
                out
            }
        }
    }

    /// Apply a binary operator row-wise, mirroring
    /// [`crate::interp`]'s `eval_binary_values` and the short-circuit
    /// evaluation order for `&&`/`||`.
    fn bin(&self, op: BinOp, a: Ev, b: Ev) -> Ev {
        let n = self.n;
        match op {
            BinOp::And => {
                let mut out = Ev::broadcast(n, Kind::Bool, 0.0);
                for r in 0..n {
                    let ta = a.truthy(r);
                    // rhs only evaluates (and can only error) when the
                    // lhs is truthy.
                    out.err[r] = a.err[r] || (ta && b.err[r]);
                    out.vals[r] = (ta && b.truthy(r)) as u8 as f64;
                }
                out
            }
            BinOp::Or => {
                let mut out = Ev::broadcast(n, Kind::Bool, 0.0);
                for r in 0..n {
                    let ta = a.truthy(r);
                    out.err[r] = a.err[r] || (!ta && b.err[r]);
                    out.vals[r] = (ta || b.truthy(r)) as u8 as f64;
                }
                out
            }
            BinOp::Eq | BinOp::Ne => {
                // `Value::equals`: null == null, cross-kind never equal,
                // NaN != NaN. Never errors.
                let mut out = Ev::broadcast(n, Kind::Bool, 0.0);
                let same_kind = a.kind == b.kind;
                for r in 0..n {
                    out.err[r] = a.err[r] || b.err[r];
                    let eq = match (a.valid[r], b.valid[r]) {
                        (false, false) => true,
                        (true, true) => same_kind && a.vals[r] == b.vals[r],
                        _ => false,
                    };
                    out.vals[r] = (eq != (op == BinOp::Ne)) as u8 as f64;
                }
                out
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let mut out = Ev::broadcast(n, Kind::Bool, 0.0);
                for r in 0..n {
                    // "cannot order": null rows have no numeric view.
                    out.err[r] = a.err[r] || b.err[r] || !a.valid[r] || !b.valid[r];
                    let (x, y) = (a.vals[r], b.vals[r]);
                    out.vals[r] = (match op {
                        BinOp::Lt => x < y,
                        BinOp::Le => x <= y,
                        BinOp::Gt => x > y,
                        BinOp::Ge => x >= y,
                        _ => unreachable!(),
                    }) as u8 as f64;
                }
                out
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                // String operands are compile-ineligible, so `+` is
                // always arithmetic here; "arithmetic needs numbers" on
                // null rows.
                let mut out = Ev::broadcast(n, Kind::Num, 0.0);
                for r in 0..n {
                    out.err[r] = a.err[r] || b.err[r] || !a.valid[r] || !b.valid[r];
                    let (x, y) = (a.vals[r], b.vals[r]);
                    out.vals[r] = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Rem => x % y,
                        _ => unreachable!(),
                    };
                }
                out
            }
        }
    }

    /// Evaluate one fill's arguments and fold its per-row eligibility
    /// into `err_any` (a fill errors where its selection is live and a
    /// coordinate or weight is erroring or null).
    fn fill_app<'a>(
        &self,
        fill: &'a KFill,
        sel: Option<Vec<bool>>,
        lets: &[Ev],
        err_any: &mut [bool],
    ) -> FillApp<'a> {
        let x = self.eval(&fill.x, lets);
        let y = fill.y.as_ref().map(|y| self.eval(y, lets));
        let w = match &fill.w {
            Weight::One => WeightApp::Scalar(1.0),
            Weight::Const(w) => WeightApp::Scalar(*w),
            Weight::Expr(e) => WeightApp::Expr(self.eval(e, lets)),
        };
        for (r, err) in err_any.iter_mut().enumerate() {
            if sel.as_ref().is_some_and(|s| !s[r]) {
                continue;
            }
            let mut bad = x.err[r] || !x.valid[r];
            if let Some(y) = &y {
                bad |= y.err[r] || !y.valid[r];
            }
            if let WeightApp::Expr(w) = &w {
                bad |= w.err[r] || !w.valid[r];
            }
            *err |= bad;
        }
        FillApp { fill, sel, x, y, w }
    }
}

fn math1(b: Builtin) -> fn(f64) -> f64 {
    match b {
        Builtin::Sqrt => f64::sqrt,
        Builtin::Abs => f64::abs,
        Builtin::Ln => f64::ln,
        Builtin::Log10 => f64::log10,
        Builtin::Exp => f64::exp,
        Builtin::Sin => f64::sin,
        Builtin::Cos => f64::cos,
        Builtin::Tan => f64::tan,
        Builtin::Floor => f64::floor,
        Builtin::Ceil => f64::ceil,
        Builtin::Round => f64::round,
        _ => unreachable!("not a 1-arg math builtin"),
    }
}

fn math2(b: Builtin) -> fn(f64, f64) -> f64 {
    match b {
        Builtin::Pow => f64::powf,
        Builtin::Atan2 => f64::atan2,
        Builtin::Min => f64::min,
        Builtin::Max => f64::max,
        _ => unreachable!("not a 2-arg math builtin"),
    }
}

// ---------------------------------------------------------------------------
// The shared fused dispatch loop.

/// Run `records[range]` through `engine`, letting `kernel` vectorize an
/// error-free prefix when `columns` is the batch's transcode.
///
/// This is the one dispatch path shared by the engine's script analyzer
/// and the differential tests, so every fusion level drives identical
/// code. Returns `(processed, error)`: `processed` counts records fully
/// executed (kernel prefix + per-record loop), and an error stops the
/// loop exactly at the offending record, leaving its partial side effects
/// applied — byte-for-byte the plain per-record contract.
pub fn run_fused(
    engine: &mut dyn ScriptEngine,
    kernel: Option<&mut BatchKernel>,
    records: &RecordBatch,
    columns: Option<&Arc<ColumnBatch>>,
    range: Range<usize>,
    host: &mut dyn Host,
) -> (usize, Option<ScriptError>) {
    let mut start = range.start;
    if let Some(cols) = columns {
        engine.bind_columns(records, cols);
        if let Some(k) = kernel {
            if cols.len() == records.len() {
                let budget = engine.fuel_budget();
                let eng: &dyn ScriptEngine = engine;
                if let Some(prefix) =
                    k.run(cols, range.clone(), &|name| eng.global(name), budget, host)
                {
                    start += prefix;
                }
            }
        }
    }
    let mut done = start - range.start;
    for i in start..range.end {
        if let Err(e) = engine.process(host, RecordRef::batch(records, i)) {
            return (done, Some(e));
        }
        done += 1;
    }
    (done, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::AidaHost;
    use crate::{compile, engine_for, ScriptBackend, ScriptFusion};
    use ipa_dataset::{AnyRecord, TradeRecord};

    const HIGGS_LIKE: &str = r#"
        fn init() {
            h1("/t/volume", 20, 0.0, 200.0);
            h1("/t/price", 30, 0.0, 300.0);
        }
        fn process(t) {
            fill("/t/volume", t.volume);
            let p = t.price;
            if p != null { fill("/t/price", p); }
        }
    "#;

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

    /// Drive `src` over `records` at the given fusion level and return
    /// the host.
    fn run_mode(src: &str, records: &RecordBatch, fusion: ScriptFusion) -> AidaHost {
        let program = compile(src).unwrap();
        let mut engine = engine_for(&program, ScriptBackend::Vm, fusion).unwrap();
        let mut kernel = (fusion == ScriptFusion::Kernel)
            .then(|| BatchKernel::compile(&program))
            .flatten();
        let columns = ColumnBatch::from_records(records).map(Arc::new);
        let mut host = AidaHost::new();
        engine.run_init(&mut host).unwrap();
        let (done, err) = run_fused(
            engine.as_mut(),
            kernel.as_mut(),
            records,
            columns.as_ref(),
            0..records.len(),
            &mut host,
        );
        assert_eq!(done, records.len());
        assert!(err.is_none(), "unexpected error: {err:?}");
        engine.run_end(&mut host).unwrap();
        host
    }

    /// Tree comparison via the Debug dump: empty stats carry NaN
    /// min/max, and NaN != NaN under the derived `PartialEq`, so
    /// structural equality spuriously fails on any empty profile bin.
    fn dump(host: &AidaHost) -> String {
        format!("{:?}", host.tree)
    }

    #[test]
    fn canonical_body_compiles_and_matches_per_record_execution() {
        let program = compile(HIGGS_LIKE).unwrap();
        assert!(BatchKernel::compile(&program).is_some());
        let records = trades(257);
        let vectorized = run_mode(HIGGS_LIKE, &records, ScriptFusion::Kernel);
        let scalar = run_mode(HIGGS_LIKE, &records, ScriptFusion::Off);
        assert_eq!(dump(&vectorized), dump(&scalar));
    }

    #[test]
    fn kernel_prefix_runs_the_whole_clean_batch() {
        let program = compile(HIGGS_LIKE).unwrap();
        let mut kernel = BatchKernel::compile(&program).unwrap();
        let records = trades(64);
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut engine = engine_for(&program, ScriptBackend::Vm, ScriptFusion::Kernel).unwrap();
        let mut host = AidaHost::new();
        engine.run_init(&mut host).unwrap();
        let eng: &dyn ScriptEngine = engine.as_ref();
        let prefix = kernel
            .run(
                &columns,
                0..64,
                &|n| eng.global(n),
                crate::DEFAULT_FUEL,
                &mut host,
            )
            .unwrap();
        assert_eq!(prefix, 64);
        assert_eq!(host.tree.get("/t/volume").unwrap().entries(), 64);
    }

    #[test]
    fn fuel_budget_below_cost_refuses_to_run() {
        let program = compile(HIGGS_LIKE).unwrap();
        let mut kernel = BatchKernel::compile(&program).unwrap();
        assert!(kernel.cost() > 1);
        let records = trades(8);
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut host = AidaHost::new();
        host.book_h1("/t/volume", 20, 0.0, 200.0).unwrap();
        host.book_h1("/t/price", 30, 0.0, 300.0).unwrap();
        assert_eq!(kernel.run(&columns, 0..8, &|_| None, 1, &mut host), None);
        assert_eq!(host.tree.get("/t/volume").unwrap().entries(), 0);
    }

    #[test]
    fn unbooked_fill_path_falls_back_without_side_effects() {
        let program = compile(HIGGS_LIKE).unwrap();
        let mut kernel = BatchKernel::compile(&program).unwrap();
        let records = trades(8);
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut host = AidaHost::new(); // nothing booked
        assert_eq!(
            kernel.run(&columns, 0..8, &|_| None, crate::DEFAULT_FUEL, &mut host),
            None
        );
    }

    #[test]
    fn string_operations_are_ineligible() {
        let src = r#"fn process(t) { if t.symbol == "IPA" { fill("/x", t.price); } }"#;
        assert!(BatchKernel::compile(&compile(src).unwrap()).is_none());
    }

    #[test]
    fn global_mutation_is_ineligible() {
        let src = "fn init() { n = 0; } fn process(t) { n = n + 1; }";
        assert!(BatchKernel::compile(&compile(src).unwrap()).is_none());
    }

    #[test]
    fn user_function_calls_are_ineligible() {
        let src = "fn cut(p) { return p > 100; } fn process(t) { if cut(t.price) { fill(\"/x\", t.price); } }";
        assert!(BatchKernel::compile(&compile(src).unwrap()).is_none());
    }

    #[test]
    fn duplicate_fill_paths_are_ineligible() {
        // Two fills into one path would reorder f64 accumulation.
        let src = "fn process(t) { fill(\"/x\", t.price); fill(\"/x\", t.volume); }";
        assert!(BatchKernel::compile(&compile(src).unwrap()).is_none());
    }

    #[test]
    fn loops_and_logging_are_ineligible() {
        for src in [
            "fn process(t) { while t.volume > 0 { fill(\"/x\", 1); } }",
            "fn process(t) { for i in 0..3 { fill(\"/x\", i); } }",
            "fn process(t) { log(t.price); }",
        ] {
            assert!(BatchKernel::compile(&compile(src).unwrap()).is_none());
        }
    }

    #[test]
    fn string_column_read_falls_back_at_bind_time() {
        // `t.symbol` compiles nowhere… use a body that reads it through a
        // comparison-free let so compile succeeds, then bind must refuse.
        let src = "fn process(t) { let s = t.symbol; }";
        let program = compile(src).unwrap();
        let mut kernel = BatchKernel::compile(&program).expect("let of a field is eligible");
        let records = trades(4);
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut host = AidaHost::new();
        assert_eq!(
            kernel.run(&columns, 0..4, &|_| None, crate::DEFAULT_FUEL, &mut host),
            None
        );
    }

    #[test]
    fn unknown_field_falls_back_at_bind_time() {
        let src = "fn process(t) { fill(\"/x\", t.no_such_field); }";
        let program = compile(src).unwrap();
        let mut kernel = BatchKernel::compile(&program).unwrap();
        let records = trades(4);
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut host = AidaHost::new();
        host.book_h1("/x", 10, 0.0, 1.0).unwrap();
        assert_eq!(
            kernel.run(&columns, 0..4, &|_| None, crate::DEFAULT_FUEL, &mut host),
            None
        );
    }

    #[test]
    fn guards_weights_math_and_globals_match_scalar_execution() {
        let src = r#"
            scale = 2.5;
            fn init() {
                h1("/w/hist", 25, 0.0, 500.0);
                h2("/w/h2", 10, 0.0, 300.0, 10, 0.0, 200.0);
                prof("/w/prof", 10, 0.0, 300.0);
            }
            fn process(t) {
                let v = t.volume;
                let p = t.price;
                if p > 110.0 && v < 120 {
                    fill("/w/hist", sqrt(p * v), scale);
                    fill2("/w/h2", p, v, 0.5);
                    pfill("/w/prof", p, v);
                }
            }
        "#;
        let program = compile(src).unwrap();
        assert!(BatchKernel::compile(&program).is_some());
        let records = trades(200);
        let vectorized = run_mode(src, &records, ScriptFusion::Kernel);
        let scalar = run_mode(src, &records, ScriptFusion::Off);
        assert_eq!(dump(&vectorized), dump(&scalar));
        assert!(vectorized.tree.get("/w/hist").unwrap().entries() > 0);
    }

    #[test]
    fn missing_heavy_columns_match_scalar_execution() {
        // `bb_mass`-style missing data: guard on null, fill survivors.
        let src = r#"
            fn init() { h1("/m/q", 10, 0.0, 60.0); }
            fn process(d) {
                let q = d.quality;
                if q != null { fill("/m/q", q); }
            }
        "#;
        let records = RecordBatch::new(
            (0..50u64)
                .map(|i| {
                    AnyRecord::Dna(ipa_dataset::DnaRead {
                        read_id: i,
                        sample: (i % 4) as u32,
                        bases: if i % 3 == 0 { "".into() } else { "ACGT".into() },
                        quality: (i % 45) as f32,
                    })
                })
                .collect(),
        );
        let vectorized = run_mode(src, &records, ScriptFusion::Kernel);
        let scalar = run_mode(src, &records, ScriptFusion::Off);
        assert_eq!(dump(&vectorized), dump(&scalar));
    }

    #[test]
    fn erroring_row_stops_the_prefix_and_the_vm_reports_it() {
        // Ordering null errors per-record at the guard; the kernel must
        // hand exactly the clean prefix back and let the VM produce the
        // error at the first bad row.
        let src = r#"
            fn init() { h1("/e/x", 10, 0.0, 10.0); }
            fn process(t) {
                if t.price < nothing { fill("/e/x", 1); }
            }
        "#;
        // `nothing` is an unknown global → kernel global resolution fails
        // → full fallback; VM errors on record 0.
        let program = compile(src).unwrap();
        let mut kernel = BatchKernel::compile(&program);
        assert!(kernel.is_some());
        let records = trades(6);
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut engine = engine_for(&program, ScriptBackend::Vm, ScriptFusion::Kernel).unwrap();
        let mut host = AidaHost::new();
        engine.run_init(&mut host).unwrap();
        let (done, err) = run_fused(
            engine.as_mut(),
            kernel.as_mut(),
            &records,
            Some(&columns),
            0..6,
            &mut host,
        );
        assert_eq!(done, 0);
        let err = err.expect("unknown variable must surface");
        assert!(err.to_string().contains("unknown variable"), "{err}");
    }

    #[test]
    fn run_fused_without_kernel_or_columns_is_the_plain_loop() {
        let program = compile(HIGGS_LIKE).unwrap();
        let records = trades(10);
        let mut engine = engine_for(&program, ScriptBackend::Vm, ScriptFusion::Off).unwrap();
        let mut host = AidaHost::new();
        engine.run_init(&mut host).unwrap();
        let (done, err) = run_fused(engine.as_mut(), None, &records, None, 0..10, &mut host);
        assert_eq!((done, err), (10, None));
        assert_eq!(host.tree.get("/t/volume").unwrap().entries(), 10);
    }

    #[test]
    fn parts_sharing_an_allocation_read_their_own_columns() {
        // Staged parts are ranges of one allocation, so "same allocation"
        // does not mean "same part": a column binding made for part 0
        // must never answer for a record of part 1.
        const VM_ONLY: &str = r#"
            fn init() {
                h1("/t/volume", 20, 0.0, 200.0);
                h1("/t/price", 30, 0.0, 300.0);
            }
            fn process(t) {
                let n = 0;
                while n < 1 { fill("/t/volume", t.volume); n = n + 1; }
                fill("/t/price", t.price);
            }
        "#;
        let dataset = trades(90);
        let parts = [dataset.slice(0..30), dataset.slice(30..90)];
        let columns: Vec<Arc<ColumnBatch>> = parts
            .iter()
            .map(|p| Arc::new(ColumnBatch::from_records(p).unwrap()))
            .collect();
        for (src, vectorizes) in [(VM_ONLY, false), (HIGGS_LIKE, true)] {
            let program = compile(src).unwrap();
            assert_eq!(BatchKernel::compile(&program).is_some(), vectorizes);
            // One engine fed a sequence of (part, staged with columns?).
            let feed = |sequence: &[(usize, bool)]| {
                let mut engine =
                    engine_for(&program, ScriptBackend::Vm, ScriptFusion::Kernel).unwrap();
                let mut kernel = BatchKernel::compile(&program);
                let mut host = AidaHost::new();
                engine.run_init(&mut host).unwrap();
                for &(k, columnar) in sequence {
                    let (done, err) = run_fused(
                        engine.as_mut(),
                        kernel.as_mut(),
                        &parts[k],
                        columnar.then(|| &columns[k]),
                        0..parts[k].len(),
                        &mut host,
                    );
                    assert_eq!((done, err), (parts[k].len(), None));
                }
                engine.run_end(&mut host).unwrap();
                dump(&host)
            };
            let row_layout = feed(&[(0, false), (1, false), (0, false)]);
            assert_eq!(feed(&[(0, true), (1, true), (0, true)]), row_layout);
            // Part 1 arriving without a transcode leaves part 0's binding
            // in place; its records must fall back to row reads.
            assert_eq!(feed(&[(0, true), (1, false), (0, true)]), row_layout);
        }
    }

    #[test]
    fn subrange_prefixes_compose_across_chunks() {
        // The engine feeds parts in publish-cadence chunks; two chunked
        // kernel runs must equal one whole-part run.
        let records = trades(100);
        let program = compile(HIGGS_LIKE).unwrap();
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut whole = AidaHost::new();
        let mut chunked = AidaHost::new();
        let cuts: [(&mut AidaHost, &[usize]); 2] =
            [(&mut whole, &[0, 100]), (&mut chunked, &[0, 33, 66, 100])];
        for (host, edges) in cuts {
            let mut engine = engine_for(&program, ScriptBackend::Vm, ScriptFusion::Kernel).unwrap();
            let mut kernel = BatchKernel::compile(&program);
            engine.run_init(host).unwrap();
            for range in edges.windows(2).map(|w| w[0]..w[1]) {
                let expect = range.len();
                let (done, err) = run_fused(
                    engine.as_mut(),
                    kernel.as_mut(),
                    &records,
                    Some(&columns),
                    range,
                    host,
                );
                assert_eq!((done, err), (expect, None));
            }
            engine.run_end(host).unwrap();
        }
        assert_eq!(dump(&whole), dump(&chunked));
    }
}
