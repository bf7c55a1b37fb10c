//! The bytecode virtual machine: executes a [`CompiledScript`] produced
//! by [`crate::resolve::compile_program`].
//!
//! The VM is a stack machine. It owns one operand stack and one locals
//! stack for all live calls: a call's local slots (compile-time resolved —
//! the hot loop never hashes a name) are the window of the locals stack
//! that starts at its base index, so once both stacks have grown to a
//! script's working depth, `process()` allocates nothing. Fuel is one unit
//! per dispatched instruction, charged at the top of the loop, so runaway
//! scripts stop with [`ScriptError::OutOfFuel`] exactly like the
//! tree-walk. All operator, indexing, and field semantics funnel through
//! the shared helpers in [`crate::interp`], keeping the two backends
//! bit-for-bit identical in results and error messages.

use std::sync::Arc;

use ipa_dataset::{ColumnBatch, RecordBatch};

use crate::ast::{BinOp, UnOp};
use crate::bytecode::{CompiledScript, FnProto, Op};
use crate::error::ScriptError;
use crate::interp::{
    eval_binary_values, eval_unary, field_value, index_to_usize, index_value, store_index, Host,
    DEFAULT_FUEL, MAX_DEPTH,
};
use crate::stdlib::dispatch_builtin;
use crate::value::{RecordRef, Value};

/// Largest magnitude up to which every integer is an `f64`: a `for` range
/// counter stays exact while it stays within ±`MAX_EXACT`.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53

/// A columnar view of the part currently streaming through the VM. Field
/// names are resolved to column indices once here, at bind time, so the
/// per-record `Op::FieldGet` fast path is two array reads.
struct ColumnBinding {
    /// The row batch the incoming `RecordRef::Batch` handles point into.
    /// [`RecordBatch::row_of`] is the fast-path guard and the row lookup
    /// in one: sharing the allocation is not enough, every part of a
    /// dataset does, and a record of another part has no row here.
    records: RecordBatch,
    /// The transcode of `records`.
    columns: Arc<ColumnBatch>,
    /// Column index per `script.names` entry; `None` = the name is not a
    /// field of this batch's record kind.
    cols: Vec<Option<u32>>,
}

/// The bytecode interpreter: compiled script + global state. Drop-in
/// behavioral replacement for [`crate::Interpreter`].
pub struct Vm {
    script: Arc<CompiledScript>,
    /// Global slots, parallel to `script.globals`.
    globals: Vec<Option<Value>>,
    /// Operands of every live call, innermost on top.
    stack: Vec<Value>,
    /// Local slots of every live call, innermost last: a call owns
    /// `locals[base..base + n_slots]`. `None` means "this binder exists in
    /// the function but is not bound yet" — reading it is the lazy
    /// "unknown variable" error, mirroring the tree-walk's hash lookup.
    /// Both stacks are empty between entry points, also after an error.
    locals: Vec<Option<Value>>,
    /// Per-entry-point fuel budget.
    fuel_budget: u64,
    fuel: u64,
    depth: usize,
    init_fn: Option<u16>,
    process_fn: Option<u16>,
    end_fn: Option<u16>,
    /// Column binding for the part being streamed, when the engine runs
    /// the columnar data plane.
    bound: Option<ColumnBinding>,
}

impl Vm {
    /// Build a VM around a resolved script.
    pub fn new(script: CompiledScript) -> Self {
        let globals = vec![None; script.globals.len()];
        let init_fn = script.fn_index.get("init").copied();
        let process_fn = script.fn_index.get("process").copied();
        let end_fn = script.fn_index.get("end").copied();
        Vm {
            script: Arc::new(script),
            globals,
            stack: Vec::new(),
            locals: Vec::new(),
            fuel_budget: DEFAULT_FUEL,
            fuel: DEFAULT_FUEL,
            depth: 0,
            init_fn,
            process_fn,
            end_fn,
            bound: None,
        }
    }

    /// Bind a columnar transcode of the part about to stream through
    /// `process()`. Field names are resolved to column indices once per
    /// part; re-binding the same `(records, columns)` pair is free.
    pub fn bind_columns(&mut self, records: &RecordBatch, columns: &Arc<ColumnBatch>) {
        if let Some(b) = &self.bound {
            if b.records.same_view(records) && Arc::ptr_eq(&b.columns, columns) {
                return;
            }
        }
        let cols = self
            .script
            .names
            .iter()
            .map(|n| columns.column_index(n).map(|i| i as u32))
            .collect();
        self.bound = Some(ColumnBinding {
            records: records.clone(),
            columns: Arc::clone(columns),
            cols,
        });
    }

    /// Drop any column binding; subsequent field reads use the row path.
    pub fn unbind_columns(&mut self) {
        self.bound = None;
    }

    /// Override the per-call fuel budget (tests and paranoid deployments).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel_budget = fuel;
        self.fuel = fuel;
        self
    }

    /// The per-entry-point fuel budget currently in force.
    pub fn fuel_budget(&self) -> u64 {
        self.fuel_budget
    }

    /// Run the top-level body (promoting its locals to globals on
    /// success), then `init()` if defined. Call once per run.
    pub fn run_init(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        self.fuel = self.fuel_budget;
        let script = Arc::clone(&self.script);
        let proto = &script.top_level;
        self.locals.resize(proto.n_slots as usize, None);
        let r = self.exec(&script, proto, 0, host);
        if r.is_ok() {
            // Promote bound top-level locals into their global slots; an
            // error skips promotion, same as the tree-walk's early return.
            for &(l, g) in &script.promote {
                if let Some(v) = self.locals[l as usize].take() {
                    self.globals[g as usize] = Some(v);
                }
            }
        }
        self.unwind();
        r?;
        if let Some(idx) = self.init_fn {
            // Shares the budget refilled above — no second reset, matching
            // the tree-walk's single refill in run_init.
            self.enter(idx, None, host)?;
        }
        Ok(())
    }

    /// Feed one record handle to `process(record)` — the per-event hot
    /// path; only the `Arc` inside the handle is cloned, never the data.
    pub fn process_ref(
        &mut self,
        host: &mut dyn Host,
        record: RecordRef,
    ) -> Result<(), ScriptError> {
        let Some(idx) = self.process_fn else {
            return Err(ScriptError::MissingEntryPoint("process"));
        };
        self.fuel = self.fuel_budget;
        self.enter(idx, Some(Value::Record(record)), host)?;
        Ok(())
    }

    /// Run `end()` if defined. Call after the last record.
    pub fn run_end(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        if let Some(idx) = self.end_fn {
            self.fuel = self.fuel_budget;
            self.enter(idx, None, host)?;
        }
        Ok(())
    }

    /// Call a named user function with arguments. Does not refill fuel —
    /// same contract as [`crate::Interpreter::call_function`].
    pub fn call_function(
        &mut self,
        name: &str,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        let Some(&idx) = self.script.fn_index.get(name) else {
            return Err(ScriptError::runtime(
                format!("unknown function '{name}'"),
                0,
            ));
        };
        self.enter(idx, args, host)
    }

    /// Read a global variable (inspection from tests/tools).
    pub fn global(&self, name: &str) -> Option<Value> {
        let i = self.script.globals.iter().position(|g| g == name)?;
        self.globals[i].clone()
    }

    /// Invoke proto `idx` from outside the dispatch loop: the arguments go
    /// onto the (empty) operand stack and the call proceeds as
    /// [`Op::CallFn`] does. An error leaves operands of the calls it cut short behind, so
    /// both stacks are emptied and the next entry starts clean.
    fn enter(
        &mut self,
        idx: u16,
        args: impl IntoIterator<Item = Value>,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        let script = Arc::clone(&self.script);
        self.stack.extend(args);
        let argc = self.stack.len();
        let r = self.call(&script, idx, argc, host);
        if r.is_err() {
            self.unwind();
        }
        r
    }

    /// Empty both stacks (values dropped, buffers kept).
    fn unwind(&mut self) {
        self.stack.clear();
        self.locals.clear();
    }

    /// Call proto `func` with the top `argc` operands as arguments: push
    /// its slots onto the locals stack, move the arguments into the
    /// parameter slots, run it, pop the slots. Performs the same
    /// arity-then-depth check order as the tree-walk (arity errors win
    /// over [`ScriptError::StackOverflow`]).
    fn call(
        &mut self,
        script: &CompiledScript,
        func: u16,
        argc: usize,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        let callee = &script.protos[func as usize];
        if argc != callee.params.len() {
            return Err(ScriptError::runtime(
                format!(
                    "function '{}' takes {} arguments, got {}",
                    callee.name,
                    callee.params.len(),
                    argc
                ),
                callee.line,
            ));
        }
        if self.depth >= MAX_DEPTH {
            return Err(ScriptError::StackOverflow);
        }
        let base = self.locals.len();
        self.locals.resize(base + callee.n_slots as usize, None);
        let first_arg = self.stack.len() - argc;
        // Duplicate parameter names share a slot: later args overwrite.
        for (&slot, v) in callee.params.iter().zip(self.stack.drain(first_arg..)) {
            self.locals[base + slot as usize] = Some(v);
        }
        self.depth += 1;
        let r = self.exec(script, callee, base, host);
        self.depth -= 1;
        self.locals.truncate(base);
        r
    }

    /// Read field `name` of `target`, preferring the column-bound fast
    /// path: when the target is a handle into the bound batch, the
    /// transcoded column is read directly instead of dispatching a
    /// name-keyed field lookup. `ColumnBatch` round-trips are
    /// bit-identical to `RecordFields::field`, and the miss error matches
    /// `field_value` exactly. Shared by `FieldGet` and the fused
    /// `LocalFieldGet`/`FieldConstCmpJump` superinstructions.
    fn read_field(
        &self,
        script: &CompiledScript,
        target: &Value,
        name: u16,
        line: u32,
    ) -> Result<Value, ScriptError> {
        if let (Value::Record(RecordRef::Batch(record)), Some(b)) = (target, &self.bound) {
            if let Some(row) = b.records.row_of(record) {
                return match b.cols[name as usize] {
                    Some(ci) => Ok(Value::from_field(b.columns.field_at(ci as usize, row))),
                    None => Err(ScriptError::runtime(
                        format!(
                            "record kind '{}' has no field '{}'",
                            b.columns.kind(),
                            script.names[name as usize]
                        ),
                        line,
                    )),
                };
            }
        }
        field_value(target, script.names[name as usize].as_str(), line)
    }

    /// Loop state for `for … in s..e`, as (`iter` slot, `idx` slot) of
    /// [`Op::RangeInit`], with the fuel for every element charged.
    fn range_init(&mut self, s: f64, e: f64) -> Result<(Value, Value), ScriptError> {
        if s.fract() == 0.0 && s.abs() <= MAX_EXACT {
            // Integer start: the values are s, s+1, … below ⌈e⌉ (a NaN
            // end compares false: no values), and a counter yields them.
            let stop = e.ceil();
            if stop > MAX_EXACT {
                // Repeated `+ 1` sticks at 2^53, still below such an end:
                // materialized, the range never ends but in OutOfFuel.
                return Err(ScriptError::OutOfFuel);
            }
            // Both are integers within ±2^53 when stop > s.
            let count = if stop > s {
                (stop as i64 - s as i64) as u64
            } else {
                0
            };
            self.fuel = self.fuel.checked_sub(count).ok_or(ScriptError::OutOfFuel)?;
            Ok((Value::Num(stop), Value::Num(s)))
        } else {
            let mut items = Vec::new();
            let mut x = s;
            while x < e {
                // Fuel per element: a huge range runs out of fuel instead
                // of out of memory.
                self.fuel = self.fuel.checked_sub(1).ok_or(ScriptError::OutOfFuel)?;
                items.push(Value::Num(x));
                x += 1.0;
            }
            Ok((Value::array(items), Value::Num(0.0)))
        }
    }

    fn bin_op(&mut self, op: BinOp, line: u32) -> Result<(), ScriptError> {
        let r = self.stack.pop().expect("operand stack underflow");
        let l = self.stack.pop().expect("operand stack underflow");
        self.stack.push(eval_binary_values(op, &l, &r, line)?);
        Ok(())
    }

    /// The dispatch loop, for the call whose local slots start at `base`.
    /// `script` borrows from an `Arc` clone held by the entry point so
    /// `proto` can borrow from it while `self` stays mutable.
    fn exec(
        &mut self,
        script: &CompiledScript,
        proto: &FnProto,
        base: usize,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        let code = &proto.code;
        let lines = &proto.lines;
        let mut pc = 0usize;
        loop {
            self.fuel = match self.fuel.checked_sub(1) {
                Some(f) => f,
                None => return Err(ScriptError::OutOfFuel),
            };
            let op = code[pc];
            let line = lines[pc];
            pc += 1;
            match op {
                Op::Const(i) => self.stack.push(script.consts[i as usize].clone()),
                Op::PushNull => self.stack.push(Value::Null),
                Op::PushTrue => self.stack.push(Value::Bool(true)),
                Op::PushFalse => self.stack.push(Value::Bool(false)),
                Op::Pop => {
                    self.stack.pop().expect("operand stack underflow");
                }
                Op::LoadLocal { slot, name } => match self.locals[base + slot as usize].clone() {
                    Some(v) => self.stack.push(v),
                    None => return Err(unknown_var(script, name, line)),
                },
                Op::LoadGlobal { slot, name } => match self.globals[slot as usize].clone() {
                    Some(v) => self.stack.push(v),
                    None => return Err(unknown_var(script, name, line)),
                },
                Op::LoadEither {
                    local,
                    global,
                    name,
                } => {
                    let bound = self.locals[base + local as usize]
                        .as_ref()
                        .or(self.globals[global as usize].as_ref());
                    match bound {
                        Some(v) => self.stack.push(v.clone()),
                        None => return Err(unknown_var(script, name, line)),
                    }
                }
                Op::LoadUndef { name } => return Err(unknown_var(script, name, line)),
                Op::StoreLocal { slot } => {
                    let v = self.stack.pop().expect("operand stack underflow");
                    self.locals[base + slot as usize] = Some(v);
                }
                Op::StoreEither { local, global } => {
                    let v = self.stack.pop().expect("operand stack underflow");
                    if self.locals[base + local as usize].is_some() {
                        self.locals[base + local as usize] = Some(v);
                    } else if let Some(slot) = self.globals[global as usize].as_mut() {
                        *slot = v;
                    } else {
                        // Implicit creation in the current scope.
                        self.locals[base + local as usize] = Some(v);
                    }
                }
                Op::IndexSetLocal { name, .. }
                | Op::IndexSetGlobal { name, .. }
                | Op::IndexSetEither { name, .. }
                | Op::IndexSetUndef { name } => {
                    let idx = self.stack.pop().expect("operand stack underflow");
                    let v = self.stack.pop().expect("operand stack underflow");
                    // Index conversion errors win over unknown-variable
                    // errors — that order is observable.
                    let i = index_to_usize(&idx, line)?;
                    let name_str = script.names[name as usize].as_str();
                    let target: Option<&mut Value> = match op {
                        Op::IndexSetLocal { slot, .. } => {
                            self.locals[base + slot as usize].as_mut()
                        }
                        Op::IndexSetGlobal { slot, .. } => self.globals[slot as usize].as_mut(),
                        Op::IndexSetEither { local, global, .. } => {
                            if self.locals[base + local as usize].is_some() {
                                self.locals[base + local as usize].as_mut()
                            } else {
                                self.globals[global as usize].as_mut()
                            }
                        }
                        _ => None,
                    };
                    let slot_val = target.ok_or_else(|| {
                        ScriptError::runtime(format!("unknown variable '{name_str}'"), line)
                    })?;
                    store_index(slot_val, name_str, i, v, line)?;
                }
                Op::Add => self.bin_op(BinOp::Add, line)?,
                Op::Sub => self.bin_op(BinOp::Sub, line)?,
                Op::Mul => self.bin_op(BinOp::Mul, line)?,
                Op::Div => self.bin_op(BinOp::Div, line)?,
                Op::Rem => self.bin_op(BinOp::Rem, line)?,
                Op::Eq => self.bin_op(BinOp::Eq, line)?,
                Op::Ne => self.bin_op(BinOp::Ne, line)?,
                Op::Lt => self.bin_op(BinOp::Lt, line)?,
                Op::Le => self.bin_op(BinOp::Le, line)?,
                Op::Gt => self.bin_op(BinOp::Gt, line)?,
                Op::Ge => self.bin_op(BinOp::Ge, line)?,
                Op::Neg => {
                    let v = self.stack.pop().expect("operand stack underflow");
                    self.stack.push(eval_unary(UnOp::Neg, &v, line)?);
                }
                Op::Not => {
                    let v = self.stack.pop().expect("operand stack underflow");
                    self.stack.push(eval_unary(UnOp::Not, &v, line)?);
                }
                Op::Truthy => {
                    let v = self.stack.pop().expect("operand stack underflow");
                    self.stack.push(Value::Bool(v.truthy()));
                }
                Op::Jump(t) => pc = t as usize,
                Op::JumpIfFalse(t) => {
                    let v = self.stack.pop().expect("operand stack underflow");
                    if !v.truthy() {
                        pc = t as usize;
                    }
                }
                Op::AndCircuit(t) => {
                    let l = self.stack.pop().expect("operand stack underflow");
                    if !l.truthy() {
                        self.stack.push(Value::Bool(false));
                        pc = t as usize;
                    }
                }
                Op::OrCircuit(t) => {
                    let l = self.stack.pop().expect("operand stack underflow");
                    if l.truthy() {
                        self.stack.push(Value::Bool(true));
                        pc = t as usize;
                    }
                }
                Op::MakeArray(n) => {
                    let first = self.stack.len() - n as usize;
                    let items = self.stack.split_off(first);
                    self.stack.push(Value::array(items));
                }
                Op::IndexGet => {
                    let idx = self.stack.pop().expect("operand stack underflow");
                    let target = self.stack.pop().expect("operand stack underflow");
                    self.stack.push(index_value(target, &idx, line)?);
                }
                Op::FieldGet { name } => {
                    let t = self.stack.pop().expect("operand stack underflow");
                    let v = self.read_field(script, &t, name, line)?;
                    self.stack.push(v);
                }
                Op::RangeStart => {
                    let v = self.stack.last().expect("operand stack underflow");
                    if v.as_num().is_none() {
                        return Err(ScriptError::runtime("range start must be numeric", line));
                    }
                }
                Op::RangeOutsideFor => {
                    return Err(ScriptError::runtime(
                        "a range is only valid in 'for … in'",
                        line,
                    ));
                }
                Op::RangeInit { iter, idx } => {
                    let end = self.stack.pop().expect("operand stack underflow");
                    let start = self.stack.pop().expect("operand stack underflow");
                    let s = start.as_num().expect("start checked by RangeStart");
                    let e = end
                        .as_num()
                        .ok_or_else(|| ScriptError::runtime("range end must be numeric", line))?;
                    let (bound, first) = self.range_init(s, e)?;
                    self.locals[base + iter as usize] = Some(bound);
                    self.locals[base + idx as usize] = Some(first);
                }
                Op::IterInit { iter, idx } => {
                    let v = self.stack.pop().expect("operand stack underflow");
                    match v {
                        Value::Array(_) => {
                            self.locals[base + iter as usize] = Some(v);
                            self.locals[base + idx as usize] = Some(Value::Num(0.0));
                        }
                        other => {
                            return Err(ScriptError::runtime(
                                format!("cannot iterate a {}", other.type_name()),
                                line,
                            ))
                        }
                    }
                }
                Op::IterNext { iter, idx, done } => {
                    let at = match &self.locals[base + idx as usize] {
                        Some(Value::Num(n)) => *n,
                        _ => unreachable!("corrupt iterator cursor slot"),
                    };
                    let item = match &self.locals[base + iter as usize] {
                        Some(Value::Array(a)) => a.get(at as usize).cloned(),
                        Some(Value::Num(stop)) => (at < *stop).then_some(Value::Num(at)),
                        _ => unreachable!("corrupt iterator slot"),
                    };
                    match item {
                        Some(v) => {
                            // One extra unit per yielded element, matching
                            // the tree-walk's per-iteration burn.
                            self.fuel = self.fuel.checked_sub(1).ok_or(ScriptError::OutOfFuel)?;
                            self.locals[base + idx as usize] = Some(Value::Num(at + 1.0));
                            self.stack.push(v);
                        }
                        None => pc = done as usize,
                    }
                }
                Op::CallFn { func, argc } => {
                    let v = self.call(script, func, argc as usize, host)?;
                    self.stack.push(v);
                }
                Op::CallBuiltin { builtin, argc } => {
                    let first = self.stack.len() - argc as usize;
                    let r = dispatch_builtin(builtin, &self.stack[first..], line, host);
                    self.stack.truncate(first);
                    self.stack.push(r?);
                }
                Op::CallUnknown { name } => {
                    return Err(ScriptError::runtime(
                        format!("unknown function '{}'", script.names[name as usize]),
                        line,
                    ));
                }
                Op::Return => return Ok(self.stack.pop().expect("operand stack underflow")),
                Op::ReturnNull | Op::Halt => return Ok(Value::Null),
                Op::LooseBreak => {
                    return Err(ScriptError::runtime("break/continue outside a loop", line));
                }
                // --- Superinstructions: one dispatch (and one unit of
                // fuel) per fused pattern, same values/errors/lines as
                // the constituent ops.
                Op::LocalFieldGet { slot, name, field } => {
                    let v = match &self.locals[base + slot as usize] {
                        Some(rec) => self.read_field(script, rec, field, line)?,
                        None => return Err(unknown_var(script, name, line)),
                    };
                    self.stack.push(v);
                }
                Op::LocalConstBin {
                    slot,
                    name,
                    cidx,
                    op,
                } => {
                    let v = match &self.locals[base + slot as usize] {
                        Some(l) => eval_binary_values(op, l, &script.consts[cidx as usize], line)?,
                        None => return Err(unknown_var(script, name, line)),
                    };
                    self.stack.push(v);
                }
                Op::CmpJump { op, target } => {
                    let r = self.stack.pop().expect("operand stack underflow");
                    let l = self.stack.pop().expect("operand stack underflow");
                    if !eval_binary_values(op, &l, &r, line)?.truthy() {
                        pc = target as usize;
                    }
                }
                Op::FieldConstCmpJump {
                    name,
                    cidx,
                    op,
                    target,
                } => {
                    let t = self.stack.pop().expect("operand stack underflow");
                    let fv = self.read_field(script, &t, name, line)?;
                    if !eval_binary_values(op, &fv, &script.consts[cidx as usize], line)?.truthy() {
                        pc = target as usize;
                    }
                }
            }
        }
    }
}

fn unknown_var(script: &CompiledScript, name: u16, line: u32) -> ScriptError {
    ScriptError::runtime(
        format!("unknown variable '{}'", script.names[name as usize]),
        line,
    )
}

impl crate::ScriptEngine for Vm {
    fn run_init(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        Vm::run_init(self, host)
    }

    fn process(&mut self, host: &mut dyn Host, record: RecordRef) -> Result<(), ScriptError> {
        self.process_ref(host, record)
    }

    fn run_end(&mut self, host: &mut dyn Host) -> Result<(), ScriptError> {
        Vm::run_end(self, host)
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
        Vm::global(self, name)
    }

    fn set_fuel(&mut self, fuel: u64) {
        self.fuel_budget = fuel;
        self.fuel = fuel;
    }

    fn backend(&self) -> crate::ScriptBackend {
        crate::ScriptBackend::Vm
    }

    fn fuel_budget(&self) -> u64 {
        Vm::fuel_budget(self)
    }

    fn bind_columns(&mut self, records: &RecordBatch, columns: &Arc<ColumnBatch>) {
        Vm::bind_columns(self, records, columns);
    }

    fn unbind_columns(&mut self) {
        Vm::unbind_columns(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NullHost;
    use crate::parser::compile;
    use crate::resolve::compile_program;
    use crate::ScriptEngine;
    use ipa_dataset::AnyRecord;

    fn vm(src: &str) -> Vm {
        Vm::new(compile_program(&compile(src).unwrap()).unwrap())
    }

    #[test]
    fn top_level_locals_promote_to_globals() {
        let mut v = vm("let cut = 30.0; let total = cut * 2;");
        v.run_init(&mut NullHost).unwrap();
        assert_eq!(v.global("cut"), Some(Value::Num(30.0)));
        assert_eq!(v.global("total"), Some(Value::Num(60.0)));
    }

    #[test]
    fn functions_and_loops_compute() {
        let mut v = vm(
            "fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }\nlet x = fib(12);",
        );
        v.run_init(&mut NullHost).unwrap();
        assert_eq!(v.global("x"), Some(Value::Num(144.0)));
    }

    #[test]
    fn for_range_accumulates() {
        let mut v = vm("let t = 0; for i in 0..5 { t = t + i; }");
        v.run_init(&mut NullHost).unwrap();
        assert_eq!(v.global("t"), Some(Value::Num(10.0)));
    }

    #[test]
    fn break_and_continue_route_correctly() {
        let mut v = vm(
            "let t = 0;\nfor i in 0..100 {\n  if i % 2 == 0 { continue; }\n  if i > 8 { break; }\n  t = t + i;\n}",
        );
        v.run_init(&mut NullHost).unwrap();
        // 1 + 3 + 5 + 7 = 16
        assert_eq!(v.global("t"), Some(Value::Num(16.0)));
    }

    #[test]
    fn unknown_variable_is_lazy() {
        // Never executed → no error.
        let mut v = vm("fn f() { return nope; }\nlet x = 1;");
        v.run_init(&mut NullHost).unwrap();
        // Executed → the error carries the right line.
        let err = v.call_function("f", vec![], &mut NullHost).unwrap_err();
        assert_eq!(err, ScriptError::runtime("unknown variable 'nope'", 1));
    }

    #[test]
    fn fuel_exhaustion_stops_infinite_loops() {
        let mut v = vm("while true { }").with_fuel(10_000);
        assert_eq!(v.run_init(&mut NullHost), Err(ScriptError::OutOfFuel));
    }

    #[test]
    fn arity_error_matches_tree_walk_wording() {
        let mut v = vm("fn f(a, b) { return a + b; }");
        v.run_init(&mut NullHost).unwrap();
        let err = v
            .call_function("f", vec![Value::Num(1.0)], &mut NullHost)
            .unwrap_err();
        assert_eq!(
            err,
            ScriptError::runtime("function 'f' takes 2 arguments, got 1", 1)
        );
    }

    #[test]
    fn deep_recursion_overflows_cleanly() {
        let mut v = vm("fn f(n) { return f(n + 1); }");
        v.run_init(&mut NullHost).unwrap();
        let err = v
            .call_function("f", vec![Value::Num(0.0)], &mut NullHost)
            .unwrap_err();
        assert_eq!(err, ScriptError::StackOverflow);
    }

    fn trade_batch() -> RecordBatch {
        RecordBatch::new(
            (0..8u64)
                .map(|i| {
                    AnyRecord::Trade(ipa_dataset::TradeRecord {
                        trade_id: i,
                        timestamp_ms: i * 1000,
                        symbol: "IPA".into(),
                        price: 10.0 + i as f64,
                        volume: 100 + i as u32,
                        buyer_initiated: i % 2 == 0,
                    })
                })
                .collect(),
        )
    }

    #[test]
    fn column_binding_matches_row_reads() {
        let src = "let total = 0;\nfn process(t) { total = total + t.price * t.volume; }";
        let records = trade_batch();
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());

        let mut row = vm(src);
        row.run_init(&mut NullHost).unwrap();
        for i in 0..records.len() {
            ScriptEngine::process(&mut row, &mut NullHost, RecordRef::batch(&records, i)).unwrap();
        }

        let mut col = vm(src);
        col.run_init(&mut NullHost).unwrap();
        col.bind_columns(&records, &columns);
        for i in 0..records.len() {
            ScriptEngine::process(&mut col, &mut NullHost, RecordRef::batch(&records, i)).unwrap();
        }

        assert_eq!(row.global("total"), col.global("total"));
        assert!(matches!(col.global("total"), Some(Value::Num(n)) if n > 0.0));
    }

    #[test]
    fn column_binding_preserves_unknown_field_error() {
        let src = "fn process(t) { let x = t.nope; }";
        let records = trade_batch();
        let columns = Arc::new(ColumnBatch::from_records(&records).unwrap());

        let mut row = vm(src);
        row.run_init(&mut NullHost).unwrap();
        let row_err = ScriptEngine::process(&mut row, &mut NullHost, RecordRef::batch(&records, 0))
            .unwrap_err();

        let mut col = vm(src);
        col.run_init(&mut NullHost).unwrap();
        col.bind_columns(&records, &columns);
        let col_err = ScriptEngine::process(&mut col, &mut NullHost, RecordRef::batch(&records, 0))
            .unwrap_err();

        assert_eq!(row_err, col_err);
    }

    #[test]
    fn stale_binding_falls_back_to_row_reads() {
        let src = "let total = 0;\nfn process(t) { total = total + t.volume; }";
        let records = trade_batch();
        let other = trade_batch();
        let columns = Arc::new(ColumnBatch::from_records(&other).unwrap());

        // Bound to a *different* batch: ptr-identity guard must reject the
        // binding and read through the row path.
        let mut v = vm(src);
        v.run_init(&mut NullHost).unwrap();
        v.bind_columns(&other, &columns);
        for i in 0..records.len() {
            ScriptEngine::process(&mut v, &mut NullHost, RecordRef::batch(&records, i)).unwrap();
        }
        let expected: f64 = (0..8).map(|i| 100.0 + i as f64).sum();
        assert_eq!(v.global("total"), Some(Value::Num(expected)));

        v.unbind_columns();
        assert_eq!(v.global("total"), Some(Value::Num(expected)));
    }

    #[test]
    fn load_either_respects_shadowing() {
        // `x` is global; `process` reads it, assigns it, then binds a
        // shadowing local `x` mid-body — later reads must see the local,
        // and the next call must start on the global again.
        let src = "let x = 10;\nlet a = 0;\nlet b = 0;\nfn process(t) {\n  a = a + x;\n  if t.volume > 103 { x = x + 1; let x = 1000; b = b + x; }\n}";
        let mut v = vm(src);
        v.run_init(&mut NullHost).unwrap();
        let records = trade_batch();
        for i in 0..6 {
            ScriptEngine::process(&mut v, &mut NullHost, RecordRef::batch(&records, i)).unwrap();
        }
        // Records 0..=3 (volumes 100..=103) skip the branch: a = 4 × 10.
        // Record 4 reads x=10 (a=50) then bumps the global to 11 and adds
        // the shadowed local (b=1000). Record 5 reads the *updated*
        // global 11 (a=61), bumps it to 12, adds the local again (b=2000).
        assert_eq!(v.global("x"), Some(Value::Num(12.0)));
        assert_eq!(v.global("a"), Some(Value::Num(61.0)));
        assert_eq!(v.global("b"), Some(Value::Num(2000.0)));
    }
}
