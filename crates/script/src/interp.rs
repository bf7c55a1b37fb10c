//! The tree-walking interpreter and the [`Host`] interface.

use std::collections::HashMap;
use std::sync::Arc;

use ipa_aida::{Histogram1D, Histogram2D, Profile1D};

use crate::ast::*;
use crate::error::ScriptError;
use crate::stdlib::{call_builtin, checked_index};
use crate::value::{RecordRef, Value};

/// Default per-call execution budget (evaluation steps).
pub const DEFAULT_FUEL: u64 = 10_000_000;
/// Maximum user-function call depth (conservative: each script frame
/// consumes several large interpreter stack frames in debug builds).
pub(crate) const MAX_DEPTH: usize = 64;

/// Everything a script can do to the outside world.
///
/// The engine backs this with an AIDA tree ([`AidaHost`]); tests can use
/// [`NullHost`] or a recording mock. Booking is idempotent — re-running a
/// script after a rewind re-books the same plots without error.
pub trait Host {
    /// Book a 1-D histogram at `path` (idempotent for identical binning).
    fn book_h1(&mut self, path: &str, nbins: usize, lo: f64, hi: f64) -> Result<(), String>;
    /// Book a 2-D histogram.
    #[allow(clippy::too_many_arguments)]
    fn book_h2(
        &mut self,
        path: &str,
        nx: usize,
        xlo: f64,
        xhi: f64,
        ny: usize,
        ylo: f64,
        yhi: f64,
    ) -> Result<(), String>;
    /// Book a profile.
    fn book_profile(&mut self, path: &str, nbins: usize, lo: f64, hi: f64) -> Result<(), String>;
    /// Fill a 1-D histogram.
    fn fill1(&mut self, path: &str, x: f64, w: f64) -> Result<(), String>;
    /// Fill a 2-D histogram.
    fn fill2(&mut self, path: &str, x: f64, y: f64, w: f64) -> Result<(), String>;
    /// Fill a profile.
    fn fill_profile(&mut self, path: &str, x: f64, y: f64, w: f64) -> Result<(), String>;
    /// Bulk 1-D fill, equivalent to one [`Host::fill1`] per element of
    /// `xs` in slice order. The default loops; tree-backed hosts override
    /// with a single path lookup for the whole slice.
    fn fill1_slice(&mut self, path: &str, xs: &[f64], w: f64) -> Result<(), String> {
        for &x in xs {
            self.fill1(path, x, w)?;
        }
        Ok(())
    }
    /// Bulk weighted 1-D fill over parallel coordinate/weight slices.
    fn fill1_slice_weighted(&mut self, path: &str, xs: &[f64], ws: &[f64]) -> Result<(), String> {
        for (&x, &w) in xs.iter().zip(ws) {
            self.fill1(path, x, w)?;
        }
        Ok(())
    }
    /// Bulk 2-D fill, one [`Host::fill2`] per `(x, y)` pair in slice order.
    fn fill2_slice(&mut self, path: &str, xs: &[f64], ys: &[f64], w: f64) -> Result<(), String> {
        for (&x, &y) in xs.iter().zip(ys) {
            self.fill2(path, x, y, w)?;
        }
        Ok(())
    }
    /// Bulk profile fill, one [`Host::fill_profile`] per `(x, y)` pair in
    /// slice order.
    fn fill_profile_slice(
        &mut self,
        path: &str,
        xs: &[f64],
        ys: &[f64],
        w: f64,
    ) -> Result<(), String> {
        for (&x, &y) in xs.iter().zip(ys) {
            self.fill_profile(path, x, y, w)?;
        }
        Ok(())
    }
    /// Log a message from the script.
    fn log(&mut self, message: &str);
    /// Book an auto-ranging 1-D cloud (default: unsupported, so custom
    /// hosts only opt in when they can store one).
    fn book_cloud1(&mut self, path: &str) -> Result<(), String> {
        Err(format!("host cannot book cloud '{path}'"))
    }
    /// Fill a 1-D cloud.
    fn fill_cloud1(&mut self, path: &str, x: f64, w: f64) -> Result<(), String> {
        let _ = (x, w);
        Err(format!("host cannot fill cloud '{path}'"))
    }
    /// Book an ntuple with all-numeric columns (default: unsupported).
    fn book_tuple(&mut self, path: &str, columns: &[&str]) -> Result<(), String> {
        let _ = columns;
        Err(format!("host cannot book tuple '{path}'"))
    }
    /// Append one all-numeric row to an ntuple.
    fn fill_tuple(&mut self, path: &str, row: &[f64]) -> Result<(), String> {
        let _ = row;
        Err(format!("host cannot fill tuple '{path}'"))
    }
}

/// A host that ignores everything (for pure-computation tests).
pub struct NullHost;

impl Host for NullHost {
    fn book_h1(&mut self, _: &str, _: usize, _: f64, _: f64) -> Result<(), String> {
        Ok(())
    }
    fn book_h2(
        &mut self,
        _: &str,
        _: usize,
        _: f64,
        _: f64,
        _: usize,
        _: f64,
        _: f64,
    ) -> Result<(), String> {
        Ok(())
    }
    fn book_profile(&mut self, _: &str, _: usize, _: f64, _: f64) -> Result<(), String> {
        Ok(())
    }
    fn fill1(&mut self, _: &str, _: f64, _: f64) -> Result<(), String> {
        Ok(())
    }
    fn fill2(&mut self, _: &str, _: f64, _: f64, _: f64) -> Result<(), String> {
        Ok(())
    }
    fn fill_profile(&mut self, _: &str, _: f64, _: f64, _: f64) -> Result<(), String> {
        Ok(())
    }
    fn log(&mut self, _: &str) {}
}

/// [`Host`] implementation over an AIDA [`ipa_aida::Tree`].
#[derive(Debug, Default)]
pub struct AidaHost {
    /// The accumulated analysis results.
    pub tree: ipa_aida::Tree,
    /// Messages emitted by `log()`.
    pub messages: Vec<String>,
}

impl AidaHost {
    /// New empty host.
    pub fn new() -> Self {
        AidaHost::default()
    }
}

impl Host for AidaHost {
    fn book_h1(&mut self, path: &str, nbins: usize, lo: f64, hi: f64) -> Result<(), String> {
        if let Ok(obj) = self.tree.get(path) {
            return match obj.as_h1() {
                Some(_) => Ok(()), // idempotent re-book
                None => Err(format!("'{path}' already booked as {}", obj.kind())),
            };
        }
        self.tree
            .put(path, Histogram1D::new(path, nbins, lo, hi))
            .map_err(|e| e.to_string())
    }

    fn book_h2(
        &mut self,
        path: &str,
        nx: usize,
        xlo: f64,
        xhi: f64,
        ny: usize,
        ylo: f64,
        yhi: f64,
    ) -> Result<(), String> {
        if let Ok(obj) = self.tree.get(path) {
            return match obj.as_h2() {
                Some(_) => Ok(()),
                None => Err(format!("'{path}' already booked as {}", obj.kind())),
            };
        }
        self.tree
            .put(path, Histogram2D::new(path, nx, xlo, xhi, ny, ylo, yhi))
            .map_err(|e| e.to_string())
    }

    fn book_profile(&mut self, path: &str, nbins: usize, lo: f64, hi: f64) -> Result<(), String> {
        if let Ok(obj) = self.tree.get(path) {
            return match obj.as_p1() {
                Some(_) => Ok(()),
                None => Err(format!("'{path}' already booked as {}", obj.kind())),
            };
        }
        self.tree
            .put(path, Profile1D::new(path, nbins, lo, hi))
            .map_err(|e| e.to_string())
    }

    fn fill1(&mut self, path: &str, x: f64, w: f64) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::H1(h)) => {
                h.fill(x, w);
                Ok(())
            }
            Ok(other) => Err(format!(
                "'{path}' is a {}, not a 1-D histogram",
                other.kind()
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    fn fill2(&mut self, path: &str, x: f64, y: f64, w: f64) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::H2(h)) => {
                h.fill(x, y, w);
                Ok(())
            }
            Ok(other) => Err(format!(
                "'{path}' is a {}, not a 2-D histogram",
                other.kind()
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    fn fill_profile(&mut self, path: &str, x: f64, y: f64, w: f64) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::P1(p)) => {
                p.fill(x, y, w);
                Ok(())
            }
            Ok(other) => Err(format!("'{path}' is a {}, not a profile", other.kind())),
            Err(e) => Err(e.to_string()),
        }
    }

    fn fill1_slice(&mut self, path: &str, xs: &[f64], w: f64) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::H1(h)) => {
                h.fill_slice(xs, w);
                Ok(())
            }
            Ok(other) => Err(format!(
                "'{path}' is a {}, not a 1-D histogram",
                other.kind()
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    fn fill1_slice_weighted(&mut self, path: &str, xs: &[f64], ws: &[f64]) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::H1(h)) => {
                h.fill_slice_weighted(xs, ws);
                Ok(())
            }
            Ok(other) => Err(format!(
                "'{path}' is a {}, not a 1-D histogram",
                other.kind()
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    fn fill2_slice(&mut self, path: &str, xs: &[f64], ys: &[f64], w: f64) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::H2(h)) => {
                h.fill_slice(xs, ys, w);
                Ok(())
            }
            Ok(other) => Err(format!(
                "'{path}' is a {}, not a 2-D histogram",
                other.kind()
            )),
            Err(e) => Err(e.to_string()),
        }
    }

    fn fill_profile_slice(
        &mut self,
        path: &str,
        xs: &[f64],
        ys: &[f64],
        w: f64,
    ) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::P1(p)) => {
                p.fill_slice(xs, ys, w);
                Ok(())
            }
            Ok(other) => Err(format!("'{path}' is a {}, not a profile", other.kind())),
            Err(e) => Err(e.to_string()),
        }
    }

    fn log(&mut self, message: &str) {
        self.messages.push(message.to_string());
    }

    fn book_cloud1(&mut self, path: &str) -> Result<(), String> {
        if let Ok(obj) = self.tree.get(path) {
            return match obj {
                ipa_aida::AidaObject::C1(_) => Ok(()),
                other => Err(format!("'{path}' already booked as {}", other.kind())),
            };
        }
        self.tree
            .put(path, ipa_aida::Cloud1D::new(path))
            .map_err(|e| e.to_string())
    }

    fn fill_cloud1(&mut self, path: &str, x: f64, w: f64) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::C1(c)) => {
                c.fill(x, w);
                Ok(())
            }
            Ok(other) => Err(format!("'{path}' is a {}, not a cloud", other.kind())),
            Err(e) => Err(e.to_string()),
        }
    }

    fn book_tuple(&mut self, path: &str, columns: &[&str]) -> Result<(), String> {
        if let Ok(obj) = self.tree.get(path) {
            return match obj.as_tuple() {
                Some(t)
                    if t.column_names()
                        .iter()
                        .map(String::as_str)
                        .eq(columns.iter().copied()) =>
                {
                    Ok(())
                }
                Some(_) => Err(format!("'{path}' already booked with a different schema")),
                None => Err(format!("'{path}' already booked as {}", obj.kind())),
            };
        }
        let schema: Vec<(&str, ipa_aida::ColumnType)> = columns
            .iter()
            .map(|c| (*c, ipa_aida::ColumnType::Float))
            .collect();
        self.tree
            .put(path, ipa_aida::Tuple::new(path, &schema))
            .map_err(|e| e.to_string())
    }

    fn fill_tuple(&mut self, path: &str, row: &[f64]) -> Result<(), String> {
        match self.tree.get_mut(path) {
            Ok(ipa_aida::AidaObject::Tup(t)) => {
                let cells: Vec<ipa_aida::Value> =
                    row.iter().map(|&v| ipa_aida::Value::Float(v)).collect();
                t.fill_row(&cells).map_err(|e| e.to_string())
            }
            Ok(other) => Err(format!("'{path}' is a {}, not a tuple", other.kind())),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Control flow out of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// The interpreter: program + global state. One interpreter lives inside
/// each analysis engine; `process_record` is the per-event hot path.
pub struct Interpreter {
    functions: HashMap<String, Arc<Function>>,
    top_level: Arc<Vec<Stmt>>,
    globals: HashMap<String, Value>,
    /// Per-entry-point fuel budget.
    fuel_budget: u64,
    fuel: u64,
    depth: usize,
}

impl Interpreter {
    /// Build an interpreter for a compiled program.
    pub fn new(program: &Program) -> Self {
        Interpreter {
            functions: program.functions.clone(),
            top_level: program.top_level.clone(),
            globals: HashMap::new(),
            fuel_budget: DEFAULT_FUEL,
            fuel: DEFAULT_FUEL,
            depth: 0,
        }
    }

    /// Override the per-call fuel budget (tests and paranoid deployments).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel_budget = fuel;
        // Also reset the current tank: entry points that don't refill
        // (`call_function`) must see the new budget immediately.
        self.fuel = fuel;
        self
    }

    /// Run top-level statements then `init()` if defined. Call once per run.
    pub fn run_init(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        self.fuel = self.fuel_budget;
        // Clone the Arc, not the statements — run_init may be called per
        // hot-reload and the top level can be arbitrarily large.
        let stmts = Arc::clone(&self.top_level);
        let mut locals = HashMap::new();
        for s in stmts.iter() {
            // Top-level lets create globals.
            match self.exec(s, &mut locals, host)? {
                Flow::Normal => {}
                _ => break,
            }
        }
        // Promote top-level locals to globals.
        self.globals.extend(locals);
        if self.functions.contains_key("init") {
            self.call_function("init", vec![], host)?;
        }
        Ok(())
    }

    /// Feed one record to `process(record)`. Convenience wrapper that
    /// copies the record into its own allocation; hot paths should use
    /// [`Interpreter::process_ref`] with a shared handle instead.
    pub fn process_record(
        &mut self,
        host: &mut dyn Host,
        record: &ipa_dataset::AnyRecord,
    ) -> Result<(), ScriptError> {
        self.process_ref(host, RecordRef::one(Arc::new(record.clone())))
    }

    /// Feed one pre-shared record to `process(record)` without cloning.
    pub fn process_shared(
        &mut self,
        host: &mut dyn Host,
        record: Arc<ipa_dataset::AnyRecord>,
    ) -> Result<(), ScriptError> {
        self.process_ref(host, RecordRef::one(record))
    }

    /// Feed one record handle to `process(record)` — the hot path; only
    /// the `Arc` inside the handle is cloned, never the record data.
    pub fn process_ref(
        &mut self,
        host: &mut dyn Host,
        record: RecordRef,
    ) -> Result<(), ScriptError> {
        if !self.functions.contains_key("process") {
            return Err(ScriptError::MissingEntryPoint("process"));
        }
        self.fuel = self.fuel_budget;
        self.call_function("process", vec![Value::Record(record)], host)?;
        Ok(())
    }

    /// Run `end()` if defined. Call after the last record.
    pub fn run_end(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        if self.functions.contains_key("end") {
            self.fuel = self.fuel_budget;
            self.call_function("end", vec![], host)?;
        }
        Ok(())
    }

    /// Call a named user function with arguments.
    pub fn call_function(
        &mut self,
        name: &str,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        let Some(f) = self.functions.get(name).cloned() else {
            return Err(ScriptError::runtime(
                format!("unknown function '{name}'"),
                0,
            ));
        };
        if args.len() != f.params.len() {
            return Err(ScriptError::runtime(
                format!(
                    "function '{name}' takes {} arguments, got {}",
                    f.params.len(),
                    args.len()
                ),
                f.line,
            ));
        }
        if self.depth >= MAX_DEPTH {
            return Err(ScriptError::StackOverflow);
        }
        self.depth += 1;
        let mut locals: HashMap<String, Value> = f.params.iter().cloned().zip(args).collect();
        let mut result = Value::Null;
        let mut error = None;
        for s in &f.body {
            match self.exec(s, &mut locals, host) {
                Ok(Flow::Return(v)) => {
                    result = v;
                    break;
                }
                Ok(Flow::Normal) => {}
                Ok(Flow::Break) | Ok(Flow::Continue) => {
                    error = Some(ScriptError::runtime(
                        "break/continue outside a loop",
                        f.line,
                    ));
                    break;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        self.depth -= 1;
        match error {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    /// Read a global variable (inspection from tests/tools).
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    fn burn(&mut self, line: u32) -> Result<(), ScriptError> {
        let _ = line;
        match self.fuel.checked_sub(1) {
            Some(f) => {
                self.fuel = f;
                Ok(())
            }
            None => Err(ScriptError::OutOfFuel),
        }
    }

    fn exec(
        &mut self,
        stmt: &Stmt,
        locals: &mut HashMap<String, Value>,
        host: &mut dyn Host,
    ) -> Result<Flow, ScriptError> {
        match stmt {
            Stmt::Let { name, value } => {
                let v = self.eval(value, locals, host)?;
                locals.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(value, locals, host)?;
                match target {
                    AssignTarget::Var(name) => {
                        if let Some(slot) = locals.get_mut(name) {
                            *slot = v;
                        } else if let Some(slot) = self.globals.get_mut(name) {
                            *slot = v;
                        } else {
                            // Implicit creation in the current scope.
                            locals.insert(name.clone(), v);
                        }
                    }
                    AssignTarget::Index { name, index } => {
                        let idx = self.eval(index, locals, host)?;
                        let i = index_to_usize(&idx, index.line)?;
                        let slot = locals
                            .get_mut(name)
                            .or_else(|| self.globals.get_mut(name))
                            .ok_or_else(|| {
                                ScriptError::runtime(
                                    format!("unknown variable '{name}'"),
                                    index.line,
                                )
                            })?;
                        store_index(slot, name, i, v, index.line)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, locals, host)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let branch = if self.eval(cond, locals, host)?.truthy() {
                    then
                } else {
                    otherwise
                };
                for s in branch {
                    match self.exec(s, locals, host)? {
                        Flow::Normal => {}
                        flow => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, locals, host)?.truthy() {
                    self.burn(cond.line)?;
                    let mut broke = false;
                    for s in body {
                        match self.exec(s, locals, host)? {
                            Flow::Normal => {}
                            Flow::Continue => break,
                            Flow::Break => {
                                broke = true;
                                break;
                            }
                            ret @ Flow::Return(_) => return Ok(ret),
                        }
                    }
                    if broke {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iter, body } => {
                let items: Arc<Vec<Value>> = match &iter.kind {
                    ExprKind::Range { start, end } => {
                        let s = self.eval(start, locals, host)?.as_num().ok_or_else(|| {
                            ScriptError::runtime("range start must be numeric", iter.line)
                        })?;
                        let e = self.eval(end, locals, host)?.as_num().ok_or_else(|| {
                            ScriptError::runtime("range end must be numeric", iter.line)
                        })?;
                        let mut v = Vec::new();
                        let mut x = s;
                        while x < e {
                            self.burn(iter.line)?;
                            v.push(Value::Num(x));
                            x += 1.0;
                        }
                        Arc::new(v)
                    }
                    _ => match self.eval(iter, locals, host)? {
                        Value::Array(a) => a,
                        other => {
                            return Err(ScriptError::runtime(
                                format!("cannot iterate a {}", other.type_name()),
                                iter.line,
                            ))
                        }
                    },
                };
                'outer: for item in items.iter() {
                    self.burn(iter.line)?;
                    locals.insert(var.clone(), item.clone());
                    for s in body {
                        match self.exec(s, locals, host)? {
                            Flow::Normal => {}
                            Flow::Continue => continue 'outer,
                            Flow::Break => break 'outer,
                            ret @ Flow::Return(_) => return Ok(ret),
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, locals, host)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn eval(
        &mut self,
        expr: &Expr,
        locals: &mut HashMap<String, Value>,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        self.burn(expr.line)?;
        match &expr.kind {
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Num(n) => Ok(Value::Num(*n)),
            ExprKind::Str(s) => Ok(Value::str(s.as_str())),
            ExprKind::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval(e, locals, host)?);
                }
                Ok(Value::array(out))
            }
            ExprKind::Var(name) => locals
                .get(name)
                .or_else(|| self.globals.get(name))
                .cloned()
                .ok_or_else(|| {
                    ScriptError::runtime(format!("unknown variable '{name}'"), expr.line)
                }),
            ExprKind::Unary { op, expr: inner } => {
                let v = self.eval(inner, locals, host)?;
                eval_unary(*op, &v, expr.line)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.eval_binary(*op, lhs, rhs, locals, host, expr.line)
            }
            ExprKind::Index { target, index } => {
                let t = self.eval(target, locals, host)?;
                let i = self.eval(index, locals, host)?;
                index_value(t, &i, expr.line)
            }
            ExprKind::Field { target, field } => {
                let t = self.eval(target, locals, host)?;
                field_value(&t, field, expr.line)
            }
            ExprKind::Range { .. } => Err(ScriptError::runtime(
                "a range is only valid in 'for … in'",
                expr.line,
            )),
            ExprKind::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, locals, host)?);
                }
                // Builtins shadow nothing: user functions win on name clash.
                if self.functions.contains_key(name.as_str()) {
                    return self.call_function(name, vals, host);
                }
                match call_builtin(name, &vals, expr.line, host) {
                    Some(r) => r,
                    None => Err(ScriptError::runtime(
                        format!("unknown function '{name}'"),
                        expr.line,
                    )),
                }
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        locals: &mut HashMap<String, Value>,
        host: &mut dyn Host,
        line: u32,
    ) -> Result<Value, ScriptError> {
        // Short-circuit logical operators.
        match op {
            BinOp::And => {
                let l = self.eval(lhs, locals, host)?;
                if !l.truthy() {
                    return Ok(Value::Bool(false));
                }
                let r = self.eval(rhs, locals, host)?;
                return Ok(Value::Bool(r.truthy()));
            }
            BinOp::Or => {
                let l = self.eval(lhs, locals, host)?;
                if l.truthy() {
                    return Ok(Value::Bool(true));
                }
                let r = self.eval(rhs, locals, host)?;
                return Ok(Value::Bool(r.truthy()));
            }
            _ => {}
        }
        let l = self.eval(lhs, locals, host)?;
        let r = self.eval(rhs, locals, host)?;
        eval_binary_values(op, &l, &r, line)
    }
}

// ---------------------------------------------------------------------------
// Shared semantics. Both backends (tree-walk above, bytecode VM in
// `crate::vm`) funnel operator, indexing, and field-access behavior through
// these helpers so results and error messages stay bit-for-bit identical.

/// Apply a unary operator.
pub(crate) fn eval_unary(op: UnOp, v: &Value, line: u32) -> Result<Value, ScriptError> {
    match op {
        UnOp::Neg => v.as_num().map(|n| Value::Num(-n)).ok_or_else(|| {
            ScriptError::runtime(format!("cannot negate a {}", v.type_name()), line)
        }),
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
    }
}

/// Apply a non-short-circuit binary operator to two evaluated operands.
/// `And`/`Or` must be short-circuited by the caller.
pub(crate) fn eval_binary_values(
    op: BinOp,
    l: &Value,
    r: &Value,
    line: u32,
) -> Result<Value, ScriptError> {
    match op {
        BinOp::Eq => Ok(Value::Bool(l.equals(r))),
        BinOp::Ne => Ok(Value::Bool(!l.equals(r))),
        BinOp::Add => match (l, r) {
            (Value::Str(a), b) => Ok(Value::str(format!("{a}{b}"))),
            (a, Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            _ => arith(op, l, r, line),
        },
        BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => arith(op, l, r, line),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let (Some(a), Some(b)) = (l.as_num(), r.as_num()) else {
                return Err(ScriptError::runtime(
                    format!("cannot order {} and {}", l.type_name(), r.type_name()),
                    line,
                ));
            };
            let out = match op {
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(Value::Bool(out))
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops are evaluated by the caller"),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value, line: u32) -> Result<Value, ScriptError> {
    let (Some(a), Some(b)) = (l.as_num(), r.as_num()) else {
        return Err(ScriptError::runtime(
            format!(
                "arithmetic needs numbers, got {} and {}",
                l.type_name(),
                r.type_name()
            ),
            line,
        ));
    };
    let out = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        _ => unreachable!(),
    };
    Ok(Value::Num(out))
}

/// Read `target[index]` (array element or string character).
pub(crate) fn index_value(target: Value, index: &Value, line: u32) -> Result<Value, ScriptError> {
    let n = index
        .as_num()
        .ok_or_else(|| ScriptError::runtime("index must be numeric", line))?;
    let i = checked_index(n, "index", line)?;
    match target {
        Value::Array(a) => a.get(i).cloned().ok_or_else(|| {
            ScriptError::runtime(format!("index {i} out of bounds (len {})", a.len()), line)
        }),
        Value::Str(s) => s
            .chars()
            .nth(i)
            .map(|c| Value::str(c.to_string()))
            .ok_or_else(|| ScriptError::runtime(format!("index {i} out of string bounds"), line)),
        other => Err(ScriptError::runtime(
            format!("cannot index a {}", other.type_name()),
            line,
        )),
    }
}

/// Read `target.field` (record field access).
pub(crate) fn field_value(target: &Value, field: &str, line: u32) -> Result<Value, ScriptError> {
    let Value::Record(r) = target else {
        return Err(ScriptError::runtime(
            format!("cannot access field '.{field}' on a {}", target.type_name()),
            line,
        ));
    };
    match ipa_dataset::RecordFields::field(r.get(), field) {
        Some(f) => Ok(Value::from_field(f)),
        None => Err(ScriptError::runtime(
            format!("record kind '{}' has no field '{field}'", r.kind()),
            line,
        )),
    }
}

/// Convert an index-assignment index operand (checked before the variable
/// itself is resolved — that order is observable through error messages).
pub(crate) fn index_to_usize(index: &Value, line: u32) -> Result<usize, ScriptError> {
    let n = index
        .as_num()
        .ok_or_else(|| ScriptError::runtime("array index must be numeric", line))?;
    checked_index(n, "array index", line)
}

/// Store `v` into `slot[i]` for an index assignment `name[i] = v`.
pub(crate) fn store_index(
    slot: &mut Value,
    name: &str,
    i: usize,
    v: Value,
    line: u32,
) -> Result<(), ScriptError> {
    let Value::Array(a) = slot else {
        return Err(ScriptError::runtime(
            format!("'{name}' is not an array"),
            line,
        ));
    };
    if i >= a.len() {
        return Err(ScriptError::runtime(
            format!("index {i} out of bounds (len {})", a.len()),
            line,
        ));
    }
    // Value semantics: a shared array is copied before the write, so
    // aliases, callers and a `for` loop's snapshot keep what they had.
    Arc::make_mut(a)[i] = v;
    Ok(())
}

impl crate::ScriptEngine for Interpreter {
    fn run_init(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        Interpreter::run_init(self, host)
    }

    fn process(&mut self, host: &mut dyn Host, record: RecordRef) -> Result<(), ScriptError> {
        self.process_ref(host, record)
    }

    fn run_end(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        Interpreter::run_end(self, host)
    }

    fn call(
        &mut self,
        name: &str,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        self.call_function(name, args, host)
    }

    fn global(&self, name: &str) -> Option<Value> {
        self.globals.get(name).cloned()
    }

    fn set_fuel(&mut self, fuel: u64) {
        self.fuel_budget = fuel;
        self.fuel = fuel;
    }

    fn backend(&self) -> crate::ScriptBackend {
        crate::ScriptBackend::Interp
    }

    fn fuel_budget(&self) -> u64 {
        self.fuel_budget
    }
}
