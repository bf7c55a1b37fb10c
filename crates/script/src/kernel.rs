//! The batch kernel: vectorized execution of fill-only analyze bodies.
//!
//! The per-record hot path — even through the bytecode VM with
//! superinstructions — pays per-record dispatch, `RecordRef` construction,
//! and boxed-`Value` traffic for every row. But the dominant analysis
//! shape is small and regular: `let` bindings over record fields, guard
//! predicates, and `fill`/`fill2`/`pfill` calls — written the way a
//! physicist writes them, with a helper function for a cut and a loop
//! over a cut array:
//!
//! ```text
//! let cuts = [40.0, 80.0, 120.0];
//! fn passes(x, cut) { return x > cut; }
//! fn process(e) {
//!     fill("/higgs/n_btags", e.n_btags);
//!     let m = e.bb_mass;
//!     if m != null { fill("/higgs/bb_mass", m); }
//!     for i in 0..3 {
//!         if passes(e.visible_energy, cuts[i]) { fill("/higgs/cut_flow", i); }
//!     }
//! }
//! ```
//!
//! [`BatchKernel::compile`] lowers that to a flat dataflow plan executed
//! directly over [`ColumnBatch`] typed slices: every expression evaluates
//! column-at-a-time into `f64` lanes with validity and error flags,
//! guards become selection masks, and the fills of each histogram become
//! one bulk [`Host`] slice fill over the surviving rows. Lowering
//! *expands* what a flat plan cannot hold:
//!
//! * **helper calls inline** — a call to a non-recursive user function
//!   whose body is `let`s followed by one `return <expr>` becomes that
//!   expression, its arguments evaluated once, left to right, before it.
//!   An argument's errors count exactly where the call would have run:
//!   on the right of `&&`/`||` only on rows the left side lets through;
//! * **constant `for` loops unroll** — `for v in a..b` whose bounds fold
//!   to numbers repeats its body (the statement forms the top level
//!   takes) with `v` a constant, under `MAX_EXPANDED_NODES`;
//! * **constant global elements read once** — `g[k]` on a global with
//!   `k` constant after unrolling is a run-time constant like a global
//!   scalar: an eligible body cannot assign, so neither can change.
//!
//! Constant-only subexpressions fold while lowering. Anything the plan
//! cannot express — strings, `log`, dynamic fill paths, assignment,
//! `while`/`break`/`continue`, recursion, records as first-class values —
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
//! global, non-scalar or out-of-bounds global element, unbooked fill
//! path, fuel budget below the static bound) and no side effects
//! happened. Error detection is conservative: a row is marked erroring if
//! *any* statement the per-record loop would execute errors there, and
//! the prefix stops at the first such row — marking too many rows only
//! shrinks the prefix, never changes results.
//!
//! Unrolling puts several fills on one histogram, and `f64` accumulation
//! is order-sensitive, so fills are gathered *record-major*: all fills of
//! one path form one slice ordered by row, then by statement, with a
//! weight per entry where the statements' weights differ. Each histogram
//! sees exactly the sequence of `(x, w)` the per-record loop would have
//! fed it; histograms are independent objects, so the order *between*
//! them is unobservable.
//!
//! Fuel: an expanded body is loop-free and call-free, so per-record fuel
//! use is bounded by a static count over the *expanded* tree (every
//! inlined body and every unrolled iteration counted each time). `run`
//! executes only when the engine's per-record budget is at least
//! 16 + 8 × (expanded node count) — a generous over-estimate of the
//! per-record burn of either backend — which proves `OutOfFuel`
//! unobservable and licenses skipping per-op accounting. Inlining is at
//! most `MAX_INLINE_DEPTH` deep, well inside the call-depth limit, so
//! `StackOverflow` is unobservable too.
//!
//! # Host contract for bulk fills
//!
//! Before applying any fill the kernel *probes* every fill path with an
//! empty slice; a probe error (unbooked path, kind mismatch) aborts to
//! the fallback before any side effect. After successful probes the bulk
//! fills are assumed infallible: [`Host`] fill errors must depend only on
//! the path, never on the coordinates (true of [`crate::AidaHost`] and every
//! host in this codebase). A host violating that contract panics here.

use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use ipa_dataset::{Column, ColumnBatch, RecordBatch};

use crate::ast::{BinOp, Expr, ExprKind, Function, Program, Stmt, UnOp};
use crate::error::ScriptError;
use crate::interp::Host;
use crate::stdlib::{checked_index, Builtin};
use crate::value::{RecordRef, Value};
use crate::ScriptEngine;

/// Cap on the expanded plan: AST nodes counted once per inlined call and
/// per unrolled iteration. Bounds compile time, the static fuel bound
/// (far below any sane budget) and the evaluator's live vectors; a body
/// that expands past it runs per-record.
const MAX_EXPANDED_NODES: u64 = 4096;

/// Deepest helper-in-helper inlining. The per-record path allows 64
/// frames; staying well inside it keeps `StackOverflow` unobservable.
const MAX_INLINE_DEPTH: usize = 16;

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
    /// Numeric constant: a literal, a loop variable, or a folded
    /// subexpression.
    Num(f64),
    /// Boolean constant.
    Bool(bool),
    /// `null`.
    Null,
    /// `param.field`, by index into the plan's field list.
    Col(usize),
    /// A global read (`g` or `g[k]`), by index into the plan's global
    /// list.
    Global(usize),
    /// A bound value — a `let`, or an argument of an inlined call — by
    /// slot on the evaluator's binding stack.
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
    /// An inlined helper call: `binds` (arguments, then the helper's
    /// `let`s) evaluate in order onto the binding stack, then `body`;
    /// the slots are released afterwards. Errors in any bind are errors
    /// of the whole expression, so an enclosing `&&`/`||` masks them the
    /// way it masks the call.
    Inline { binds: Vec<KExpr>, body: Box<KExpr> },
}

impl KExpr {
    fn is_const(&self) -> bool {
        matches!(self, KExpr::Num(_) | KExpr::Bool(_) | KExpr::Null)
    }
}

/// A global the body reads: the whole value, or one constant element.
#[derive(Debug, Clone, PartialEq)]
struct GlobalRef {
    name: String,
    /// `Some(k)` for `name[k]`.
    index: Option<usize>,
}

/// Which fill family a [`FillGroup`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillKind {
    /// `fill(path, x, w?)` → [`Host::fill1_slice`] /
    /// [`Host::fill1_slice_weighted`].
    H1,
    /// `fill2(path, x, y, w?)` → [`Host::fill2_slice`].
    H2,
    /// `pfill(path, x, y, w?)` → [`Host::fill_profile_slice`].
    Prof,
}

/// The weight operand of a fill.
#[derive(Debug, Clone)]
enum Weight {
    /// A weight known while lowering: absent (1.0), a literal, a loop
    /// variable. The only form the 2-D slice fills can carry.
    Const(f64),
    /// An arbitrary eligible weight expression (1-D fills only, via
    /// [`Host::fill1_slice_weighted`]).
    Expr(KExpr),
}

/// Every fill of one family into one path: the unit of the record-major
/// gather, one histogram's whole input.
#[derive(Debug, Clone)]
struct FillGroup {
    kind: FillKind,
    path: String,
    /// The weight all members share, when they do; `None` gathers a
    /// weight per entry.
    uniform_w: Option<f64>,
}

/// One lowered fill call.
#[derive(Debug, Clone)]
struct KFill {
    /// Index into the plan's groups.
    group: usize,
    x: KExpr,
    /// Second coordinate for `H2`/`Prof`.
    y: Option<KExpr>,
    w: Weight,
}

/// One lowered statement of the expanded `process` body.
#[derive(Debug, Clone)]
enum KStep {
    /// `let name = expr;` — evaluated unconditionally (errors count even
    /// when the binding goes unused) onto the next binding-stack slot.
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
    globals: Vec<GlobalRef>,
    /// Fill targets, in [`KFill::group`] index order.
    groups: Vec<FillGroup>,
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
// Compilation: AST shape recognition and expansion.

/// The names one function body can see. IPAScript scopes by function,
/// not by block, and an eligible body has no conditional binder, so the
/// map, updated in execution order, is exactly the per-record lookup: a
/// name not in it reads a global.
struct Scope<'p> {
    /// The record parameter (`process` only; helpers cannot take one).
    record: Option<&'p str>,
    /// Name → [`KExpr::Let`] slot, constant, or global it is bound to.
    vars: HashMap<&'p str, KExpr>,
}

struct Lowerer<'p> {
    program: &'p Program,
    fields: Vec<String>,
    globals: Vec<GlobalRef>,
    groups: Vec<FillGroup>,
    scope: Scope<'p>,
    /// Functions being expanded, outermost first.
    calls: Vec<&'p str>,
    /// Live binding-stack slots at this point of the evaluation.
    slots: usize,
    /// Expanded node count so far.
    nodes: u64,
}

fn intern<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
    match list.iter().position(|it| *it == item) {
        Some(i) => i,
        None => {
            list.push(item);
            list.len() - 1
        }
    }
}

impl<'p> Lowerer<'p> {
    /// Count one expanded node, or bail past the cap.
    fn bump(&mut self) -> Option<()> {
        self.nodes += 1;
        (self.nodes <= MAX_EXPANDED_NODES).then_some(())
    }

    fn global(&mut self, name: &str, index: Option<usize>) -> KExpr {
        let name = name.to_string();
        KExpr::Global(intern(&mut self.globals, GlobalRef { name, index }))
    }

    /// What a name gets bound to for value `v`: constants, globals and
    /// existing bindings are pure and error-free, so they substitute;
    /// anything else is evaluated once onto a new slot, pushed to `binds`.
    fn bind(&mut self, v: KExpr, binds: &mut Vec<KExpr>) -> KExpr {
        if v.is_const() || matches!(v, KExpr::Global(_) | KExpr::Let(_)) {
            return v;
        }
        binds.push(v);
        self.slots += 1;
        KExpr::Let(self.slots - 1)
    }

    /// Lower an eligible value expression, or bail.
    fn expr(&mut self, e: &'p Expr) -> Option<KExpr> {
        self.bump()?;
        let lowered = match &e.kind {
            ExprKind::Null => KExpr::Null,
            ExprKind::Bool(b) => KExpr::Bool(*b),
            ExprKind::Num(n) => KExpr::Num(*n),
            // Strings, arrays, ranges, and the record itself as a value
            // all stay on the per-record path.
            ExprKind::Str(_) | ExprKind::Array(_) | ExprKind::Range { .. } => return None,
            ExprKind::Var(name) => {
                if self.scope.record == Some(name.as_str()) {
                    return None;
                }
                match self.scope.vars.get(name.as_str()) {
                    Some(bound) => bound.clone(),
                    None => self.global(name, None),
                }
            }
            // `g[k]`: a global's element at a constant index. A local has
            // no array form here, and a varying index stays per-record.
            ExprKind::Index { target, index } => {
                let ExprKind::Var(name) = &target.kind else {
                    return None;
                };
                let name = name.as_str();
                if self.scope.record == Some(name) || self.scope.vars.contains_key(name) {
                    return None;
                }
                self.bump()?;
                let KExpr::Num(k) = self.expr(index)? else {
                    return None;
                };
                // Negative/non-finite: per-record path reports it.
                let k = checked_index(k, "index", e.line).ok()?;
                self.global(name, Some(k))
            }
            ExprKind::Field { target, field } => match &target.kind {
                ExprKind::Var(v) if self.scope.record == Some(v.as_str()) => {
                    KExpr::Col(intern(&mut self.fields, field.clone()))
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
                // User functions shadow builtins.
                if let Some((name, f)) = self.program.functions.get_key_value(name) {
                    return self.inline(name, f, args);
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
        };
        Some(fold(lowered))
    }

    /// Inline a call to user function `f`: arguments first (in the
    /// caller's scope, left to right), then the helper's `let`s and its
    /// returned expression in a scope of their own.
    fn inline(&mut self, name: &'p str, f: &'p Function, args: &'p [Expr]) -> Option<KExpr> {
        // Arity errors and unbounded recursion: per-record path reports.
        if args.len() != f.params.len()
            || self.calls.len() >= MAX_INLINE_DEPTH
            || self.calls.contains(&name)
        {
            return None;
        }
        let (Stmt::Return(Some(ret)), lets) = f.body.split_last()? else {
            return None;
        };
        let base = self.slots;
        let mut binds = Vec::new();
        let mut vars = HashMap::new();
        for (param, arg) in f.params.iter().zip(args) {
            let v = self.expr(arg)?;
            // Duplicate parameter names: the last argument wins.
            vars.insert(param.as_str(), self.bind(v, &mut binds));
        }
        let caller = std::mem::replace(&mut self.scope, Scope { record: None, vars });
        self.calls.push(name);
        for stmt in lets {
            let Stmt::Let { name, value } = stmt else {
                return None;
            };
            self.bump()?;
            let v = self.expr(value)?;
            let bound = self.bind(v, &mut binds);
            self.scope.vars.insert(name.as_str(), bound);
        }
        self.bump()?; // the `return`
        let body = self.expr(ret)?;
        self.calls.pop();
        self.scope = caller;
        self.slots = base;
        Some(if binds.is_empty() {
            body
        } else {
            KExpr::Inline {
                binds,
                body: Box::new(body),
            }
        })
    }

    /// Lower a fill-family call statement, or bail.
    fn fill(&mut self, e: &'p Expr) -> Option<KFill> {
        self.bump()?;
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
            None => Weight::Const(1.0),
            Some(warg) => match (self.expr(warg)?, kind) {
                (KExpr::Num(w), _) => Weight::Const(w),
                // Only the 1-D fill has a per-row weighted slice call.
                (w, FillKind::H1) => Weight::Expr(w),
                _ => return None,
            },
        };
        // A group fills with one weight while every member carries that
        // same constant; otherwise each gathered entry carries its own.
        let constant = match &w {
            Weight::Const(w) => Some(w.to_bits()),
            Weight::Expr(_) => None,
        };
        let group = match self
            .groups
            .iter()
            .position(|g| g.kind == kind && g.path == *path)
        {
            Some(g) => {
                let shared = &mut self.groups[g].uniform_w;
                if shared.map(f64::to_bits) != constant {
                    *shared = None;
                }
                g
            }
            None => {
                self.groups.push(FillGroup {
                    kind,
                    path: path.clone(),
                    uniform_w: constant.map(f64::from_bits),
                });
                self.groups.len() - 1
            }
        };
        Some(KFill { group, x, y, w })
    }

    /// Lower a branch body: fill-family calls only.
    fn branch(&mut self, stmts: &'p [Stmt]) -> Option<Vec<KFill>> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Expr(e) => self.fill(e),
                _ => None,
            })
            .collect()
    }

    /// Lower one statement of `process` (or of an unrolled loop body)
    /// onto `steps`, or bail.
    fn stmt(&mut self, stmt: &'p Stmt, steps: &mut Vec<KStep>) -> Option<()> {
        self.bump()?;
        match stmt {
            Stmt::Let { name, value } => {
                if self.scope.record == Some(name.as_str()) {
                    return None; // shadowing the record breaks Col resolution
                }
                let v = self.expr(value)?;
                let mut binds = Vec::new();
                let bound = self.bind(v, &mut binds);
                steps.extend(binds.into_iter().map(KStep::Let));
                self.scope.vars.insert(name.as_str(), bound);
            }
            Stmt::Expr(e) => steps.push(KStep::Fill(self.fill(e)?)),
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.expr(cond)?;
                let then = self.branch(then)?;
                let els = self.branch(otherwise)?;
                steps.push(KStep::If { cond, then, els });
            }
            // `for v in a..b` with constant bounds: the body once per
            // value, `v` bound to it. The values are the per-record
            // loop's: `a`, then repeated `+ 1`, while below `b`.
            Stmt::For { var, iter, body } => {
                if self.scope.record == Some(var.as_str()) {
                    return None;
                }
                let ExprKind::Range { start, end } = &iter.kind else {
                    return None; // array iteration stays per-record
                };
                let (KExpr::Num(start), KExpr::Num(end)) = (self.expr(start)?, self.expr(end)?)
                else {
                    return None;
                };
                let mut x = start;
                while x < end {
                    // Also what ends a range too long (or, stuck at 2^53
                    // or -inf, too endless) to unroll.
                    self.bump()?;
                    self.scope.vars.insert(var.as_str(), KExpr::Num(x));
                    for s in body {
                        self.stmt(s, steps)?;
                    }
                    x += 1.0;
                }
            }
            // while, assignment, return, break, continue
            _ => return None,
        }
        Some(())
    }
}

/// Fold an operator whose operands are all constants, through the very
/// row functions `run` evaluates with. A constant error (`-null`) is left
/// in place: the run marks every row it executes on and the VM reports it.
fn fold(e: KExpr) -> KExpr {
    let foldable = match &e {
        KExpr::Bin(_, a, b) | KExpr::Math2(_, a, b) => a.is_const() && b.is_const(),
        KExpr::Neg(a) | KExpr::Not(a) | KExpr::IsNull(a) | KExpr::Math1(_, a) => a.is_const(),
        _ => false,
    };
    if !foldable {
        return e;
    }
    let ctx = EvalCtx {
        cols: &[],
        gvals: &[],
        range: 0..1,
    };
    let ev = ctx.eval(&e, &mut Vec::new());
    if ev.err.at(0) {
        e
    } else if !ev.valid.at(0) {
        KExpr::Null
    } else if ev.kind == Kind::Bool {
        KExpr::Bool(ev.vals.at(0) != 0.0)
    } else {
        KExpr::Num(ev.vals.at(0))
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
            fields: Vec::new(),
            globals: Vec::new(),
            groups: Vec::new(),
            scope: Scope {
                record: Some(param.as_str()),
                vars: HashMap::new(),
            },
            calls: vec!["process"],
            slots: 0,
            nodes: 0,
        };
        let mut steps = Vec::new();
        for stmt in &process.body {
            lo.stmt(stmt, &mut steps)?;
        }
        Some(BatchKernel {
            cost: 16 + 8 * lo.nodes,
            plan: KernelProgram {
                fields: lo.fields,
                globals: lo.globals,
                groups: lo.groups,
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
        let cols: Vec<ColView<'_>> = bind
            .cols
            .as_ref()?
            .iter()
            .map(|bc| {
                let col = bind.batch.column(bc.col);
                let vals = match &bc.conv {
                    Some(v) => v.as_slice(),
                    None => col.f64s().expect("bound as native f64"),
                };
                ColView {
                    kind: bc.kind,
                    col,
                    vals,
                }
            })
            .collect();

        // Globals resolve fresh per run (eligible bodies never mutate
        // them). Anything non-scalar — an element out of bounds, an array
        // read whole — falls back, and the VM reports what it makes of it.
        let mut gvals: Vec<(Kind, f64)> = Vec::with_capacity(self.plan.globals.len());
        for g in &self.plan.globals {
            let value = match (globals(&g.name)?, g.index) {
                (v, None) => v,
                (Value::Array(items), Some(k)) => items.get(k)?.clone(),
                _ => return None,
            };
            gvals.push(match value {
                Value::Num(x) => (Kind::Num, x),
                Value::Bool(b) => (Kind::Bool, b as u8 as f64),
                Value::Null => (Kind::Null, 0.0),
                _ => return None,
            });
        }

        // Probe every fill target with an empty slice before any side
        // effect: unbooked paths and kind mismatches fall back here.
        for group in &self.plan.groups {
            group.emit(host, &[], &[], &[]).ok()?;
        }

        let ctx = EvalCtx {
            cols: &cols,
            gvals: &gvals,
            range: range.clone(),
        };

        // Evaluate every step, accumulating per-row error flags, the
        // branch masks, and the fill argument vectors (gathered after the
        // prefix is known).
        let mut lets: Vec<Rc<Ev>> = Vec::new();
        let mut err_any = vec![false; n];
        let mut masks: Vec<Lane<bool>> = Vec::new();
        let mut apps: Vec<FillApp> = Vec::new();
        for step in &self.plan.steps {
            match step {
                KStep::Let(e) => {
                    let ev = ctx.eval(e, &mut lets);
                    or_assign(&mut err_any, &ev.err);
                    lets.push(ev);
                }
                KStep::Fill(f) => {
                    apps.push(ctx.fill_app(f, None, &masks, &mut lets, &mut err_any));
                }
                KStep::If { cond, then, els } => {
                    let cev = ctx.eval(cond, &mut lets);
                    or_assign(&mut err_any, &cev.err);
                    let truthy = cev.truthy();
                    for (fills, taken) in [(then, true), (els, false)] {
                        if fills.is_empty() {
                            continue;
                        }
                        masks.push(cev.err.zip(&truthy, |err, t| !err && t == taken));
                        let sel = Some(masks.len() - 1);
                        for f in fills {
                            apps.push(ctx.fill_app(f, sel, &masks, &mut lets, &mut err_any));
                        }
                    }
                }
            }
        }

        let prefix = err_any.iter().position(|&e| e).unwrap_or(n);

        // Apply the fills of the error-free prefix, one histogram at a
        // time, each in record-major order: row by row, and within a row
        // in statement order — the sequence the scalar loop feeds it.
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let mut ws: Vec<f64> = Vec::new();
        for (g, group) in self.plan.groups.iter().enumerate() {
            let members: Vec<&FillApp> = apps.iter().filter(|a| a.group == g).collect();
            xs.clear();
            ys.clear();
            ws.clear();
            for r in 0..prefix {
                for app in &members {
                    if app.sel.is_some_and(|m| !masks[m].at(r)) {
                        continue;
                    }
                    xs.push(app.x.vals.at(r));
                    if let Some(y) = &app.y {
                        ys.push(y.vals.at(r));
                    }
                    if group.uniform_w.is_none() {
                        ws.push(match &app.w {
                            WeightApp::Const(w) => *w,
                            WeightApp::Expr(w) => w.vals.at(r),
                        });
                    }
                }
            }
            // Probed above; see the module docs for the host contract.
            group.emit(host, &xs, &ys, &ws).expect("bulk fill failed after its empty-slice probe succeeded; host fill errors must depend only on the path");
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

impl FillGroup {
    /// Feed the gathered entries to the host in order: one slice call
    /// when the weight is shared (or the family takes a weight slice),
    /// else one call per run of equal weights — however it is cut, the
    /// histogram sees the same sequence of scalar fills. With empty
    /// slices this is the probe.
    fn emit(&self, host: &mut dyn Host, xs: &[f64], ys: &[f64], ws: &[f64]) -> Result<(), String> {
        let path = self.path.as_str();
        let xy = |host: &mut dyn Host, xs: &[f64], ys: &[f64], w: f64| match self.kind {
            FillKind::H2 => host.fill2_slice(path, xs, ys, w),
            _ => host.fill_profile_slice(path, xs, ys, w),
        };
        match (self.kind, self.uniform_w) {
            (FillKind::H1, Some(w)) => host.fill1_slice(path, xs, w),
            (FillKind::H1, None) => host.fill1_slice_weighted(path, xs, ws),
            (_, Some(w)) => xy(host, xs, ys, w),
            // No entry, no run below: still one call, so that this probes.
            (_, None) if ws.is_empty() => xy(host, xs, ys, 1.0),
            (_, None) => {
                let mut at = 0;
                for run in ws.chunk_by(|a, b| a.to_bits() == b.to_bits()) {
                    let to = at + run.len();
                    xy(host, &xs[at..to], &ys[at..to], run[0])?;
                    at = to;
                }
                Ok(())
            }
        }
    }
}

fn or_assign(acc: &mut [bool], src: &Lane<bool>) {
    match src {
        Lane::Uniform(false) => {}
        Lane::Uniform(true) => acc.fill(true),
        Lane::Rows(src) => {
            for (a, &s) in acc.iter_mut().zip(src) {
                *a |= s;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Vector evaluation.

/// One component of a vectorized result over the active range: a value
/// per row, or one value standing for every row. Constants, globals and
/// whatever is computed from them alone stay `Uniform`, so scalar
/// subexpressions cost no `n`-wide vector.
#[derive(Debug, Clone)]
enum Lane<T> {
    Uniform(T),
    Rows(Vec<T>),
}

impl<T: Copy> Lane<T> {
    #[inline]
    fn at(&self, r: usize) -> T {
        match self {
            Lane::Uniform(v) => *v,
            Lane::Rows(v) => v[r],
        }
    }

    fn map<U>(&self, f: impl Fn(T) -> U) -> Lane<U> {
        match self {
            Lane::Uniform(v) => Lane::Uniform(f(*v)),
            Lane::Rows(v) => Lane::Rows(v.iter().map(|&v| f(v)).collect()),
        }
    }

    /// `f` row by row over two lanes; uniform only when both are.
    fn zip<U: Copy, V>(&self, other: &Lane<U>, f: impl Fn(T, U) -> V) -> Lane<V> {
        match (self, other) {
            (Lane::Uniform(a), Lane::Uniform(b)) => Lane::Uniform(f(*a, *b)),
            (Lane::Uniform(a), Lane::Rows(b)) => Lane::Rows(b.iter().map(|&b| f(*a, b)).collect()),
            (Lane::Rows(a), Lane::Uniform(b)) => Lane::Rows(a.iter().map(|&a| f(a, *b)).collect()),
            (Lane::Rows(a), Lane::Rows(b)) => {
                Lane::Rows(a.iter().zip(b).map(|(&a, &b)| f(a, b)).collect())
            }
        }
    }
}

// The flags are almost always uniformly clear (no row errored, no cell is
// null), so the connectives look for that before looking at rows.
impl Lane<bool> {
    fn or(&self, other: &Lane<bool>) -> Lane<bool> {
        match (self, other) {
            (Lane::Uniform(false), lane) | (lane, Lane::Uniform(false)) => lane.clone(),
            _ => self.zip(other, |a, b| a || b),
        }
    }

    fn and(&self, other: &Lane<bool>) -> Lane<bool> {
        match (self, other) {
            (Lane::Uniform(false), _) | (_, Lane::Uniform(false)) => Lane::Uniform(false),
            _ => self.zip(other, |a, b| a && b),
        }
    }
}

/// A vectorized expression result over the active range: `vals` is the
/// numeric view (booleans as 0/1), `valid` false means the row is `null`,
/// `err` true means the per-record loop would have errored at or before
/// this expression on that row.
#[derive(Debug)]
struct Ev {
    kind: Kind,
    vals: Lane<f64>,
    valid: Lane<bool>,
    err: Lane<bool>,
}

impl Ev {
    fn uniform(kind: Kind, val: f64) -> Ev {
        Ev {
            kind,
            vals: Lane::Uniform(val),
            valid: Lane::Uniform(kind != Kind::Null),
            err: Lane::Uniform(false),
        }
    }

    /// A never-null boolean result.
    fn bools(vals: Lane<bool>, err: Lane<bool>) -> Ev {
        Ev {
            kind: Kind::Bool,
            vals: vals.map(|b| b as u8 as f64),
            valid: Lane::Uniform(true),
            err,
        }
    }

    /// A numeric operator's result: `vals`, erroring where any operand
    /// errored or is null ("arithmetic needs numbers").
    fn numeric(vals: Lane<f64>, operands: &[&Ev]) -> Ev {
        Ev {
            kind: Kind::Num,
            vals,
            valid: Lane::Uniform(true),
            err: any_bad(operands),
        }
    }

    /// Row truthiness, mirroring [`Value::truthy`] for Num/Bool/Null
    /// (`NaN` is truthy: `NaN != 0.0`).
    fn truthy(&self) -> Lane<bool> {
        self.valid.zip(&self.vals, |valid, x| valid && x != 0.0)
    }

    /// True where the row errored or is null — where an operator that
    /// needs a number errors.
    fn bad(&self) -> Lane<bool> {
        self.err.zip(&self.valid, |err, valid| err || !valid)
    }

    /// The cells as the language sees them: `None` for null.
    fn cells(&self) -> Lane<Option<f64>> {
        self.valid.zip(&self.vals, |valid, x| valid.then_some(x))
    }
}

fn any_bad(evs: &[&Ev]) -> Lane<bool> {
    evs.iter()
        .fold(Lane::Uniform(false), |bad, ev| bad.or(&ev.bad()))
}

/// Evaluated fill arguments awaiting the prefix gather.
struct FillApp {
    /// Index into the plan's groups.
    group: usize,
    /// Branch selection mask, by index into the run's masks; `None` for
    /// unconditional fills.
    sel: Option<usize>,
    x: Rc<Ev>,
    y: Option<Rc<Ev>>,
    w: WeightApp,
}

enum WeightApp {
    Const(f64),
    Expr(Rc<Ev>),
}

/// One bound record field over the whole batch.
struct ColView<'a> {
    kind: Kind,
    /// The column (validity lookups).
    col: &'a Column,
    /// Its cells as `f64`.
    vals: &'a [f64],
}

struct EvalCtx<'a> {
    cols: &'a [ColView<'a>],
    gvals: &'a [(Kind, f64)],
    range: Range<usize>,
}

impl EvalCtx<'_> {
    /// Evaluate `e` over the range. `lets` is the binding stack
    /// [`KExpr::Let`] indexes: the top-level `let`s so far, then the
    /// binds of every enclosing [`KExpr::Inline`].
    fn eval(&self, e: &KExpr, lets: &mut Vec<Rc<Ev>>) -> Rc<Ev> {
        Rc::new(match e {
            KExpr::Num(k) => Ev::uniform(Kind::Num, *k),
            KExpr::Bool(b) => Ev::uniform(Kind::Bool, *b as u8 as f64),
            KExpr::Null => Ev::uniform(Kind::Null, 0.0),
            KExpr::Col(i) => {
                let view = &self.cols[*i];
                Ev {
                    kind: view.kind,
                    vals: Lane::Rows(view.vals[self.range.clone()].to_vec()),
                    valid: if view.col.all_valid() {
                        Lane::Uniform(true)
                    } else {
                        Lane::Rows(
                            self.range
                                .clone()
                                .map(|row| view.col.is_valid(row))
                                .collect(),
                        )
                    },
                    err: Lane::Uniform(false),
                }
            }
            KExpr::Global(i) => {
                let (kind, val) = self.gvals[*i];
                Ev::uniform(kind, val)
            }
            KExpr::Let(i) => return lets[*i].clone(),
            KExpr::Inline { binds, body } => {
                let base = lets.len();
                let mut bind_err = Lane::Uniform(false);
                for bind in binds {
                    let ev = self.eval(bind, lets);
                    bind_err = bind_err.or(&ev.err);
                    lets.push(ev);
                }
                let body = self.eval(body, lets);
                lets.truncate(base);
                if matches!(bind_err, Lane::Uniform(false)) {
                    return body;
                }
                Ev {
                    kind: body.kind,
                    vals: body.vals.clone(),
                    valid: body.valid.clone(),
                    err: bind_err.or(&body.err),
                }
            }
            KExpr::Bin(op, a, b) => {
                let a = self.eval(a, lets);
                let b = self.eval(b, lets);
                bin(*op, &a, &b)
            }
            KExpr::Neg(a) => {
                let a = self.eval(a, lets);
                Ev::numeric(a.vals.map(|x| -x), &[&a])
            }
            KExpr::Not(a) => {
                let a = self.eval(a, lets);
                Ev::bools(a.truthy().map(|t| !t), a.err.clone())
            }
            KExpr::IsNull(a) => {
                let a = self.eval(a, lets);
                Ev::bools(a.valid.map(|valid| !valid), a.err.clone())
            }
            KExpr::Math1(b, a) => {
                let a = self.eval(a, lets);
                Ev::numeric(a.vals.map(math1(*b)), &[&a])
            }
            KExpr::Math2(b, x, y) => {
                let x = self.eval(x, lets);
                let y = self.eval(y, lets);
                Ev::numeric(x.vals.zip(&y.vals, math2(*b)), &[&x, &y])
            }
        })
    }

    /// Evaluate one fill's arguments and fold its per-row eligibility
    /// into `err_any` (a fill errors where its selection is live and a
    /// coordinate or weight is erroring or null).
    fn fill_app(
        &self,
        fill: &KFill,
        sel: Option<usize>,
        masks: &[Lane<bool>],
        lets: &mut Vec<Rc<Ev>>,
        err_any: &mut [bool],
    ) -> FillApp {
        let x = self.eval(&fill.x, lets);
        let y = fill.y.as_ref().map(|y| self.eval(y, lets));
        let w = match &fill.w {
            Weight::Const(w) => WeightApp::Const(*w),
            Weight::Expr(e) => WeightApp::Expr(self.eval(e, lets)),
        };
        let mut args: Vec<&Ev> = vec![&*x];
        args.extend(y.as_deref());
        if let WeightApp::Expr(w) = &w {
            args.push(w);
        }
        let bad = any_bad(&args);
        match sel {
            Some(m) => or_assign(err_any, &masks[m].and(&bad)),
            None => or_assign(err_any, &bad),
        }
        FillApp {
            group: fill.group,
            sel,
            x,
            y,
            w,
        }
    }
}

/// Apply a binary operator row-wise, mirroring [`crate::interp`]'s
/// `eval_binary_values` and the short-circuit evaluation order for
/// `&&`/`||`.
fn bin(op: BinOp, a: &Ev, b: &Ev) -> Ev {
    match op {
        BinOp::And | BinOp::Or => {
            // rhs only evaluates (and can only error) where the lhs does
            // not decide: where it is truthy for `&&`, falsy for `||`.
            let (ta, tb) = (a.truthy(), b.truthy());
            let (vals, rhs_runs) = if op == BinOp::And {
                (ta.and(&tb), ta)
            } else {
                (ta.or(&tb), ta.map(|t| !t))
            };
            Ev::bools(vals, a.err.or(&rhs_runs.and(&b.err)))
        }
        BinOp::Eq | BinOp::Ne => {
            // `Value::equals`: null == null, cross-kind never equal,
            // NaN != NaN. Never errors.
            let same_kind = a.kind == b.kind;
            let differ = op == BinOp::Ne;
            Ev::bools(
                a.cells().zip(&b.cells(), |x, y| {
                    let eq = match (x, y) {
                        (None, None) => true,
                        (Some(x), Some(y)) => same_kind && x == y,
                        _ => false,
                    };
                    eq != differ
                }),
                a.err.or(&b.err),
            )
        }
        BinOp::Lt => order(a, b, |x, y| x < y),
        BinOp::Le => order(a, b, |x, y| x <= y),
        BinOp::Gt => order(a, b, |x, y| x > y),
        BinOp::Ge => order(a, b, |x, y| x >= y),
        // String operands are compile-ineligible, so `+` is always
        // arithmetic here.
        BinOp::Add => arith(a, b, |x, y| x + y),
        BinOp::Sub => arith(a, b, |x, y| x - y),
        BinOp::Mul => arith(a, b, |x, y| x * y),
        BinOp::Div => arith(a, b, |x, y| x / y),
        BinOp::Rem => arith(a, b, |x, y| x % y),
    }
}

// Generic over the operator so each one gets its own tight loop.
fn arith(a: &Ev, b: &Ev, f: impl Fn(f64, f64) -> f64) -> Ev {
    Ev::numeric(a.vals.zip(&b.vals, f), &[a, b])
}

/// "cannot order": null rows have no numeric view.
fn order(a: &Ev, b: &Ev, f: impl Fn(f64, f64) -> bool) -> Ev {
    Ev {
        kind: Kind::Bool,
        ..Ev::numeric(a.vals.zip(&b.vals, |x, y| f(x, y) as u8 as f64), &[a, b])
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

    /// Drive `src` over `records` on the VM at the given fusion level and
    /// return the host.
    fn run_mode(src: &str, records: &RecordBatch, fusion: ScriptFusion) -> AidaHost {
        run_on(src, records, ScriptBackend::Vm, fusion)
    }

    fn run_on(
        src: &str,
        records: &RecordBatch,
        backend: ScriptBackend,
        fusion: ScriptFusion,
    ) -> AidaHost {
        let program = compile(src).unwrap();
        let mut engine = engine_for(&program, backend, fusion).unwrap();
        let mut kernel = (backend == ScriptBackend::Vm && fusion == ScriptFusion::Kernel)
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

    /// `src` must lower to a kernel, and the kernel's tree over `records`
    /// must render exactly as the unfused VM's and the tree-walk's.
    fn assert_kernel_matches_scalar(src: &str, records: &RecordBatch) -> AidaHost {
        let program = compile(src).unwrap();
        assert!(
            BatchKernel::compile(&program).is_some(),
            "ineligible:\n{src}"
        );
        let vectorized = run_mode(src, records, ScriptFusion::Kernel);
        let unfused = run_mode(src, records, ScriptFusion::Off);
        let tree_walk = run_on(src, records, ScriptBackend::Interp, ScriptFusion::Off);
        assert_eq!(dump(&vectorized), dump(&unfused), "vs unfused VM:\n{src}");
        assert_eq!(dump(&vectorized), dump(&tree_walk), "vs tree-walk:\n{src}");
        vectorized
    }

    fn ineligible(src: &str) -> bool {
        BatchKernel::compile(&compile(src).unwrap()).is_none()
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
    fn helper_calls_inline_and_match_scalar_execution() {
        // Nested helpers, a helper-local `let`, a parameter named like
        // the caller's record, and a user function shadowing a builtin.
        let src = r#"
            let floor_price = 110.0;
            fn init() { h1("/x", 20, 0.0, 400.0); h1("/y", 20, 0.0, 40.0); }
            fn above(p, cut) { return p > cut; }
            fn sqrt(t) { let half = t / 2; return half + floor_price / 100; }
            fn cut(p, v) { return above(p, floor_price) && above(v, sqrt(p) - 20); }
            fn process(t) {
                if cut(t.price, t.volume) { fill("/x", t.price); }
                fill("/y", sqrt(t.volume));
            }
        "#;
        let host = assert_kernel_matches_scalar(src, &trades(257));
        let filled = host.tree.get("/x").unwrap().entries();
        assert!(0 < filled && filled < 257, "the cut must cut: {filled}");
    }

    #[test]
    fn constant_loops_unroll_and_match_scalar_execution() {
        // The benchmark's cut flow: a helper per cut, the cuts in a global
        // array indexed by the loop variable, four fills on one path. Plus
        // a loop-local `let`, a nested loop, a fractional range, and the
        // loop variable read after its loop.
        let src = r#"
            let cuts = [110.0, 150.0, 190.0, 230.0];
            let flags = [true, null, 0];
            fn init() {
                h1("/flow", 4, 0.0, 4.0);
                h1("/grid", 16, 0.0, 16.0);
                h2("/h2", 4, 0.0, 4.0, 10, 0.0, 400.0);
            }
            fn passes(x, cut) { return x > cut; }
            fn process(t) {
                let p = t.price;
                for i in 0..4 {
                    if passes(p, cuts[i]) { fill("/flow", i); }
                    let scaled = p * (i + 1);
                    fill2("/h2", i, scaled / 4, i);
                }
                for a in 0.5..3 {
                    for b in 0..a { fill("/grid", a * 4 + b, 0.25); }
                }
                if flags[0] && is_null(flags[1]) && !flags[2] { fill("/grid", a + i); }
                for never in 3..3 { fill("/flow", nothing_here); }
            }
        "#;
        let host = assert_kernel_matches_scalar(src, &trades(300));
        assert_eq!(host.tree.get("/h2").unwrap().entries(), 4 * 300);
        assert_eq!(
            host.tree.get("/grid").unwrap().entries(),
            (1 + 2 + 3 + 1) * 300
        );
    }

    #[test]
    fn fills_sharing_a_path_accumulate_in_record_order() {
        // 0.1 and 0.3 do not add associatively: (0.1 + 0.3) + 0.1 is not
        // 0.1 + (0.3 + 0.1). Statement-major bulk fills would sum all the
        // 0.1s and then all the 0.3s; the histogram must see them
        // alternate, record by record, as the scalar loop feeds them.
        let src = r#"
            fn init() {
                h1("/w", 1, 0.0, 1000.0);
                h2("/w2", 1, 0.0, 1000.0, 1, 0.0, 1000.0);
                prof("/wp", 1, 0.0, 1000.0);
            }
            fn process(t) {
                fill("/w", t.price, 0.1);
                fill2("/w2", t.price, t.volume, 0.1);
                pfill("/wp", t.price, t.volume, 0.1);
                if t.buyer_initiated { fill("/w", t.volume, t.price / 1000); }
                fill("/w", t.volume, 0.3);
                fill2("/w2", t.volume, t.price, 0.3);
                pfill("/wp", t.volume, t.price, 0.3);
            }
        "#;
        let records = trades(333);
        let host = assert_kernel_matches_scalar(src, &records);
        // The order matters for this very input: summed the other way
        // round the bin height comes out different.
        let height = host
            .tree
            .get("/w2")
            .unwrap()
            .as_h2()
            .unwrap()
            .bin_height(0, 0);
        let statement_major =
            (0..333).fold(0.0, |s, _| s + 0.1) + (0..333).fold(0.0, |s, _| s + 0.3);
        let record_major = (0..333).fold(0.0, |s, _| (s + 0.1) + 0.3);
        assert_eq!(height, record_major);
        assert_ne!(height, statement_major);
    }

    /// Collider events whose `bb_mass` is null on every third row (no
    /// b-tagged pair there).
    fn events(n: usize) -> RecordBatch {
        use ipa_dataset::{CollisionEvent, FourVector, Particle};
        RecordBatch::new(
            (0..n)
                .map(|i| {
                    let half = 40.0 + i as f64;
                    AnyRecord::Event(CollisionEvent {
                        event_id: i as u64,
                        run: 1,
                        sqrt_s: 500.0,
                        is_signal: false,
                        particles: if i % 3 == 0 {
                            Vec::new()
                        } else {
                            vec![
                                Particle::new(5, -1.0 / 3.0, FourVector::new(half, half, 0.0, 0.0)),
                                Particle::new(
                                    -5,
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

    #[test]
    fn helper_argument_errors_count_only_where_the_call_runs() {
        // Negating null is an error. On the right of `&&` (and of `||`)
        // the call — argument evaluation included — runs only where the
        // left side lets it, and `bb_mass` is null exactly on the rows
        // the left side masks: the kernel must not stop the prefix at a
        // row the scalar loop sails through.
        let src = r#"
            fn init() { h1("/m", 10, 0.0, 400.0); h1("/n", 2, 0.0, 2.0); }
            fn ignores(x) { return true; }
            fn process(e) {
                let m = e.bb_mass;
                if m != null && ignores(-m) { fill("/m", m); }
                if m == null || ignores(-m) { fill("/n", 1); }
            }
        "#;
        let records = events(60);
        let host = assert_kernel_matches_scalar(src, &records);
        assert_eq!(host.tree.get("/m").unwrap().entries(), 40);
        assert_eq!(host.tree.get("/n").unwrap().entries(), 60);
        // And the whole batch ran vectorized: no row was marked erroring.
        let program = compile(src).unwrap();
        let mut kernel = BatchKernel::compile(&program).unwrap();
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let mut host = AidaHost::new();
        host.book_h1("/m", 10, 0.0, 400.0).unwrap();
        host.book_h1("/n", 2, 0.0, 2.0).unwrap();
        let prefix = kernel.run(&columns, 0..60, &|_| None, crate::DEFAULT_FUEL, &mut host);
        assert_eq!(prefix, Some(60));

        // Unmasked, the same argument error stops the prefix at the first
        // null row (row 3, two rows into the range), where the VM will
        // report it.
        let src = r#"
            fn ignores(x) { return true; }
            fn process(e) { if ignores(-e.bb_mass) { fill("/m", 1); } }
        "#;
        let mut kernel = BatchKernel::compile(&compile(src).unwrap()).unwrap();
        let prefix = kernel.run(&columns, 1..60, &|_| None, crate::DEFAULT_FUEL, &mut host);
        assert_eq!(prefix, Some(2));
    }

    #[test]
    fn constant_subexpressions_fold_while_lowering() {
        // Literals, loop variables and what is computed from them alone
        // reach the plan as constants: a weight the 2-D fills can carry,
        // an index, a range bound.
        let src = r#"
            let cuts = [1, 2, 3, 4, 5, 6, 7];
            fn init() { h2("/h2", 4, 0.0, 4.0, 4, 0.0, 400.0); }
            fn twice(k) { return k * 2; }
            fn process(t) {
                for i in 1..twice(1) + 1 {
                    fill2("/h2", cuts[twice(i) + 1], t.price, sqrt(16) / (i + 1));
                }
            }
        "#;
        let kernel = BatchKernel::compile(&compile(src).unwrap()).unwrap();
        let mut weights = Vec::new();
        for step in &kernel.plan.steps {
            match step {
                KStep::Fill(KFill {
                    x: KExpr::Global(_),
                    w: Weight::Const(w),
                    ..
                }) => weights.push(*w),
                other => panic!("not folded: {other:?}"),
            }
        }
        assert_eq!(weights, [2.0, 4.0 / 3.0]);
        let elements: Vec<_> = kernel.plan.globals.iter().map(|g| g.index).collect();
        assert_eq!(elements, [Some(3), Some(5)]);
        assert_kernel_matches_scalar(src, &trades(50));
    }

    #[test]
    fn what_cannot_expand_stays_ineligible() {
        for src in [
            // Unbounded or data-dependent control flow, host calls.
            "fn process(t) { while t.volume > 0 { fill(\"/x\", 1); } }",
            "fn process(t) { log(t.price); }",
            "fn process(t) { for i in 0..3 { if i == 1 { break; } fill(\"/x\", i); } }",
            "fn process(t) { for i in 0..3 { continue; } }",
            "fn process(t) { for i in 0..3 { i = 2; } }",
            // Recursion, direct and mutual; wrong arity; a body that is
            // more than `let`s and a `return`.
            "fn f(x) { return f(x); } fn process(t) { fill(\"/x\", f(t.price)); }",
            "fn f(x) { return g(x); } fn g(x) { return f(x); } fn process(t) { fill(\"/x\", f(1)); }",
            "fn f(x, y) { return x; } fn process(t) { fill(\"/x\", f(t.price)); }",
            "fn f(x) { if x > 1 { return 1; } return 0; } fn process(t) { fill(\"/x\", f(t.price)); }",
            "fn f(x) { let y = x; } fn process(t) { fill(\"/x\", f(t.price)); }",
            // The record cannot travel into a helper.
            "fn f(r) { return r.price; } fn process(t) { fill(\"/x\", f(t)); }",
            // Range bounds that are not constants; iterating an array.
            "fn process(t) { for i in 0..t.volume { fill(\"/x\", i); } }",
            "let n = 3; fn process(t) { for i in 0..n { fill(\"/x\", i); } }",
            "let a = [1, 2]; fn process(t) { for x in a { fill(\"/x\", x); } }",
            // Indices that vary, or that no array has.
            "let a = [1, 2]; fn process(t) { fill(\"/x\", a[t.volume]); }",
            "let a = [1, 2]; fn process(t) { fill(\"/x\", a[-1]); }",
            "let a = [1, 2]; fn process(t) { fill(\"/x\", a[0 / 0]); }",
            "fn process(t) { let a = 5; fill(\"/x\", a[0]); }",
            // Past the expansion cap: too many iterations, too much
            // nesting, a range that never ends.
            "fn process(t) { for i in 0..5000 { fill(\"/x\", i); } }",
            "fn process(t) { for i in 0..70 { for j in 0..70 { fill(\"/x\", i + j); } } }",
            "fn process(t) { for i in 0..(1 / 0) { } }",
            "fn process(t) { for i in (-1 / 0)..0 { } }",
        ] {
            assert!(ineligible(src), "{src}");
        }
        // Within the cap the same shapes are fine.
        assert!(!ineligible(
            "fn process(t) { for i in 0..20 { for j in 0..20 { fill(\"/x\", i + j); } } }"
        ));
    }

    #[test]
    fn a_constant_index_out_of_bounds_falls_back_and_the_vm_reports_it() {
        // `cuts[3]` exists in no run: the element cannot resolve, so the
        // kernel declines the batch untouched and the VM produces the
        // error at the first record that reaches the read (volume 52 is
        // row 2) — with that record's partial fills.
        let src = r#"
            let cuts = [1, 2, 3];
            fn init() { h1("/x", 10, 0.0, 400.0); }
            fn process(t) {
                fill("/x", t.price);
                for i in 0..4 {
                    if t.volume == 52 && t.price > cuts[i] { fill("/x", i); }
                }
            }
        "#;
        let program = compile(src).unwrap();
        assert!(BatchKernel::compile(&program).is_some());
        let records = trades(6);
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());
        let outcome = |backend, fusion| {
            let mut engine = engine_for(&program, backend, fusion).unwrap();
            let mut kernel = BatchKernel::compile(&program);
            let mut host = AidaHost::new();
            engine.run_init(&mut host).unwrap();
            let (done, err) = run_fused(
                engine.as_mut(),
                kernel.as_mut().filter(|_| fusion == ScriptFusion::Kernel),
                &records,
                Some(&columns),
                0..6,
                &mut host,
            );
            (done, err.map(|e| e.to_string()), dump(&host))
        };
        let fused = outcome(ScriptBackend::Vm, ScriptFusion::Kernel);
        assert_eq!(fused.0, 2);
        assert!(
            fused
                .1
                .as_deref()
                .unwrap()
                .contains("index 3 out of bounds"),
            "{fused:?}"
        );
        assert_eq!(fused, outcome(ScriptBackend::Vm, ScriptFusion::Off));
        assert_eq!(fused, outcome(ScriptBackend::Interp, ScriptFusion::Off));
    }

    #[test]
    fn fuel_bound_counts_the_expanded_tree() {
        // Every unrolled iteration and every inlined body is charged
        // again: the bound grows with the trip count, and stays above
        // what either backend really burns on a record.
        let body = |n: usize| {
            format!(
                "fn init() {{ h1(\"/x\", 4, 0.0, 400.0); }}
                 fn over(p, k) {{ let cut = k * 10; return p > cut; }}
                 fn process(t) {{ for i in 0..{n} {{ if over(t.price, i) {{ fill(\"/x\", i); }} }} }}"
            )
        };
        let cost = |n| {
            BatchKernel::compile(&compile(&body(n)).unwrap())
                .unwrap()
                .cost()
        };
        assert!(cost(8) > cost(4) && cost(4) > cost(1));
        assert_eq!(cost(8) - cost(4), cost(12) - cost(8));
        let program = compile(&body(8)).unwrap();
        let records = trades(3);
        for (backend, fusion) in [
            (ScriptBackend::Interp, ScriptFusion::Off),
            (ScriptBackend::Vm, ScriptFusion::Off),
            (ScriptBackend::Vm, ScriptFusion::Super),
        ] {
            let mut engine = engine_for(&program, backend, fusion).unwrap();
            engine.set_fuel(cost(8));
            let mut host = AidaHost::new();
            engine.run_init(&mut host).unwrap();
            let (done, err) = run_fused(engine.as_mut(), None, &records, None, 0..3, &mut host);
            assert_eq!((done, err), (3, None), "{backend}/{fusion}");
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
