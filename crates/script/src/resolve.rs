//! Name resolution and bytecode emission: lowers a parsed [`Program`]
//! into a [`CompiledScript`] for [`crate::vm::Vm`].
//!
//! Resolution happens in four passes:
//! 1. collect top-level binders (`let`/assignment/loop variables) — they
//!    become the global slot table;
//! 2. assign every user function a proto index (sorted by name so output
//!    is deterministic);
//! 3. compile function bodies — parameters and body binders get flat
//!    local slots, call sites bind to proto indices or [`Builtin`]s;
//! 4. compile the top level as a synthetic body whose named slots mirror
//!    the global table (promoted into it after a successful run).
//!
//! Names that have no binder anywhere still compile — to `LoadUndef` /
//! `CallUnknown` error ops — because IPAScript reports unknown names
//! lazily, only when the offending expression actually executes.

use std::collections::HashMap;

use crate::ast::{AssignTarget, BinOp, Expr, ExprKind, Function, Program, Stmt, UnOp};
use crate::bytecode::{CompiledScript, FnProto, Op};
use crate::error::ScriptError;
use crate::stdlib::Builtin;
use crate::value::Value;

/// Lower a parsed program into VM bytecode.
pub fn compile_program(program: &Program) -> Result<CompiledScript, ScriptError> {
    let mut shared = Shared::default();

    // Pass 1: top-level binders become the global slot table.
    let mut binders = Vec::new();
    collect_binders(&program.top_level, &mut binders);
    for name in binders {
        if !shared.global_map.contains_key(&name) {
            let slot =
                u16::try_from(shared.globals.len()).map_err(|_| limits("global variables"))?;
            shared.global_map.insert(name.clone(), slot);
            shared.globals.push(name);
        }
    }

    // Pass 2: proto indices, sorted by name for deterministic output.
    let mut fn_names: Vec<&String> = program.functions.keys().collect();
    fn_names.sort();
    for (i, name) in fn_names.iter().enumerate() {
        let idx = u16::try_from(i).map_err(|_| limits("functions"))?;
        shared.fn_index.insert((*name).clone(), idx);
    }

    // Pass 3: function bodies.
    let mut protos = vec![FnProto::default(); fn_names.len()];
    for name in &fn_names {
        let f = &program.functions[name.as_str()];
        let idx = shared.fn_index[name.as_str()] as usize;
        protos[idx] = compile_fn(&mut shared, f)?;
    }

    // Pass 4: the synthetic top-level body.
    let (top_level, promote) = compile_top_level(&mut shared, &program.top_level)?;

    Ok(CompiledScript {
        consts: shared.consts,
        names: shared.names,
        protos,
        fn_index: shared.fn_index,
        top_level,
        globals: shared.globals,
        promote,
    })
}

fn limits(what: &str) -> ScriptError {
    ScriptError::runtime(
        format!("script exceeds bytecode limits (too many {what})"),
        0,
    )
}

/// Tables shared across all function bodies.
#[derive(Default)]
struct Shared {
    consts: Vec<Value>,
    num_consts: HashMap<u64, u16>,
    str_consts: HashMap<String, u16>,
    names: Vec<String>,
    name_map: HashMap<String, u16>,
    globals: Vec<String>,
    global_map: HashMap<String, u16>,
    fn_index: HashMap<String, u16>,
}

impl Shared {
    fn const_num(&mut self, n: f64) -> Result<u16, ScriptError> {
        if let Some(&i) = self.num_consts.get(&n.to_bits()) {
            return Ok(i);
        }
        let i = u16::try_from(self.consts.len()).map_err(|_| limits("constants"))?;
        self.num_consts.insert(n.to_bits(), i);
        self.consts.push(Value::Num(n));
        Ok(i)
    }

    fn const_str(&mut self, s: &str) -> Result<u16, ScriptError> {
        if let Some(&i) = self.str_consts.get(s) {
            return Ok(i);
        }
        let i = u16::try_from(self.consts.len()).map_err(|_| limits("constants"))?;
        self.str_consts.insert(s.to_string(), i);
        self.consts.push(Value::str(s));
        Ok(i)
    }

    fn intern(&mut self, name: &str) -> Result<u16, ScriptError> {
        if let Some(&i) = self.name_map.get(name) {
            return Ok(i);
        }
        let i = u16::try_from(self.names.len()).map_err(|_| limits("identifiers"))?;
        self.name_map.insert(name.to_string(), i);
        self.names.push(name.to_string());
        Ok(i)
    }
}

/// Collect every name a statement list can bind (function-level scoping:
/// `let`, plain assignment, and `for` loop variables, at any nesting).
fn collect_binders(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Let { name, .. } => out.push(name.clone()),
            Stmt::Assign {
                target: AssignTarget::Var(name),
                ..
            } => out.push(name.clone()),
            Stmt::Assign { .. }
            | Stmt::Expr(_)
            | Stmt::Return(_)
            | Stmt::Break
            | Stmt::Continue => {}
            Stmt::If {
                then, otherwise, ..
            } => {
                collect_binders(then, out);
                collect_binders(otherwise, out);
            }
            Stmt::While { body, .. } => collect_binders(body, out),
            Stmt::For { var, body, .. } => {
                out.push(var.clone());
                collect_binders(body, out);
            }
        }
    }
}

struct LoopCtx {
    /// Jump target for `continue` (the condition or `IterNext`).
    continue_to: usize,
    /// `break` jump sites to patch to the loop exit.
    breaks: Vec<usize>,
}

struct FnCompiler<'a> {
    shared: &'a mut Shared,
    slots: HashMap<String, u16>,
    n_slots: u16,
    code: Vec<Op>,
    lines: Vec<u32>,
    loops: Vec<LoopCtx>,
    top_level: bool,
    fn_line: u32,
}

fn compile_fn(shared: &mut Shared, f: &Function) -> Result<FnProto, ScriptError> {
    let mut c = FnCompiler::new(shared, false, f.line);
    let mut params = Vec::with_capacity(f.params.len());
    for p in &f.params {
        params.push(c.binder_slot(p)?);
    }
    let mut binders = Vec::new();
    collect_binders(&f.body, &mut binders);
    for b in &binders {
        c.binder_slot(b)?;
    }
    for s in &f.body {
        c.stmt(s)?;
    }
    c.emit(Op::ReturnNull, f.line);
    Ok(FnProto {
        name: f.name.clone(),
        params,
        n_slots: c.n_slots,
        code: c.code,
        lines: c.lines,
        line: f.line,
    })
}

fn compile_top_level(
    shared: &mut Shared,
    stmts: &[Stmt],
) -> Result<(FnProto, Vec<(u16, u16)>), ScriptError> {
    // The top level's named slots mirror the global table one-to-one.
    let global_names = shared.globals.clone();
    let mut c = FnCompiler::new(shared, true, 0);
    for name in &global_names {
        c.binder_slot(name)?;
    }
    for s in stmts {
        c.stmt(s)?;
    }
    c.emit(Op::Halt, 0);
    let promote = global_names
        .iter()
        .map(|n| (c.slots[n.as_str()], c.shared.global_map[n.as_str()]))
        .collect();
    Ok((
        FnProto {
            name: String::new(),
            params: Vec::new(),
            n_slots: c.n_slots,
            code: c.code,
            lines: c.lines,
            line: 0,
        },
        promote,
    ))
}

impl<'a> FnCompiler<'a> {
    fn new(shared: &'a mut Shared, top_level: bool, fn_line: u32) -> Self {
        FnCompiler {
            shared,
            slots: HashMap::new(),
            n_slots: 0,
            code: Vec::new(),
            lines: Vec::new(),
            loops: Vec::new(),
            top_level,
            fn_line,
        }
    }

    fn emit(&mut self, op: Op, line: u32) {
        self.code.push(op);
        self.lines.push(line);
    }

    /// Emit a jump whose target is patched later; returns its index.
    fn emit_patch(&mut self, op: Op, line: u32) -> usize {
        self.emit(op, line);
        self.code.len() - 1
    }

    /// Point the jump at `at` to the next instruction to be emitted.
    fn patch(&mut self, at: usize) {
        let target = self.code.len() as u32;
        match &mut self.code[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndCircuit(t) | Op::OrCircuit(t) => *t = target,
            Op::IterNext { done, .. } => *done = target,
            other => unreachable!("cannot patch {other:?}"),
        }
    }

    fn alloc_slot(&mut self) -> Result<u16, ScriptError> {
        let s = self.n_slots;
        self.n_slots = self
            .n_slots
            .checked_add(1)
            .ok_or_else(|| limits("local variables"))?;
        Ok(s)
    }

    fn binder_slot(&mut self, name: &str) -> Result<u16, ScriptError> {
        if let Some(&s) = self.slots.get(name) {
            return Ok(s);
        }
        let s = self.alloc_slot()?;
        self.slots.insert(name.to_string(), s);
        Ok(s)
    }

    fn hidden_slot(&mut self) -> Result<u16, ScriptError> {
        self.alloc_slot()
    }

    fn emit_load(&mut self, name: &str, line: u32) -> Result<(), ScriptError> {
        let local = self.slots.get(name).copied();
        let global = self.shared.global_map.get(name).copied();
        let nm = self.shared.intern(name)?;
        let op = match (local, global) {
            (Some(l), Some(g)) => Op::LoadEither {
                local: l,
                global: g,
                name: nm,
            },
            (Some(l), None) => Op::LoadLocal { slot: l, name: nm },
            (None, Some(g)) => Op::LoadGlobal { slot: g, name: nm },
            (None, None) => Op::LoadUndef { name: nm },
        };
        self.emit(op, line);
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), ScriptError> {
        match s {
            Stmt::Let { name, value } => {
                self.expr(value)?;
                let slot = self.slots[name.as_str()];
                self.emit(Op::StoreLocal { slot }, value.line);
            }
            Stmt::Assign { target, value } => match target {
                AssignTarget::Var(name) => {
                    self.expr(value)?;
                    let local = self.slots[name.as_str()];
                    match self.shared.global_map.get(name).copied() {
                        Some(global) => self.emit(Op::StoreEither { local, global }, value.line),
                        None => self.emit(Op::StoreLocal { slot: local }, value.line),
                    }
                }
                AssignTarget::Index { name, index } => {
                    // Value first, then index — same order as the tree-walk.
                    self.expr(value)?;
                    self.expr(index)?;
                    let local = self.slots.get(name.as_str()).copied();
                    let global = self.shared.global_map.get(name).copied();
                    let nm = self.shared.intern(name)?;
                    let op = match (local, global) {
                        (Some(l), Some(g)) => Op::IndexSetEither {
                            local: l,
                            global: g,
                            name: nm,
                        },
                        (Some(l), None) => Op::IndexSetLocal { slot: l, name: nm },
                        (None, Some(g)) => Op::IndexSetGlobal { slot: g, name: nm },
                        (None, None) => Op::IndexSetUndef { name: nm },
                    };
                    self.emit(op, index.line);
                }
            },
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.emit(Op::Pop, e.line);
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                self.expr(cond)?;
                let jf = self.emit_patch(Op::JumpIfFalse(0), cond.line);
                for s in then {
                    self.stmt(s)?;
                }
                if otherwise.is_empty() {
                    self.patch(jf);
                } else {
                    let jend = self.emit_patch(Op::Jump(0), cond.line);
                    self.patch(jf);
                    for s in otherwise {
                        self.stmt(s)?;
                    }
                    self.patch(jend);
                }
            }
            Stmt::While { cond, body } => {
                let top = self.code.len();
                self.expr(cond)?;
                let jf = self.emit_patch(Op::JumpIfFalse(0), cond.line);
                self.loops.push(LoopCtx {
                    continue_to: top,
                    breaks: Vec::new(),
                });
                for s in body {
                    self.stmt(s)?;
                }
                self.emit(Op::Jump(top as u32), cond.line);
                let ctx = self.loops.pop().expect("loop context");
                self.patch(jf);
                for at in ctx.breaks {
                    self.patch(at);
                }
            }
            Stmt::For { var, iter, body } => {
                // A range's bounds evaluate start first, then end; anything
                // else must already evaluate to an array.
                let islot = self.hidden_slot()?;
                let xslot = self.hidden_slot()?;
                if let ExprKind::Range { start, end } = &iter.kind {
                    self.expr(start)?;
                    self.emit(Op::RangeStart, iter.line);
                    self.expr(end)?;
                    self.emit(
                        Op::RangeInit {
                            iter: islot,
                            idx: xslot,
                        },
                        iter.line,
                    );
                } else {
                    self.expr(iter)?;
                    self.emit(
                        Op::IterInit {
                            iter: islot,
                            idx: xslot,
                        },
                        iter.line,
                    );
                }
                let top = self.code.len();
                let next = self.emit_patch(
                    Op::IterNext {
                        iter: islot,
                        idx: xslot,
                        done: 0,
                    },
                    iter.line,
                );
                let vslot = self.slots[var.as_str()];
                self.emit(Op::StoreLocal { slot: vslot }, iter.line);
                self.loops.push(LoopCtx {
                    continue_to: top,
                    breaks: Vec::new(),
                });
                for s in body {
                    self.stmt(s)?;
                }
                self.emit(Op::Jump(top as u32), iter.line);
                let ctx = self.loops.pop().expect("loop context");
                self.patch(next);
                for at in ctx.breaks {
                    self.patch(at);
                }
            }
            Stmt::Return(e) => {
                if self.top_level {
                    // Top-level return: evaluate (errors propagate), then
                    // halt the body — globals still promote afterwards.
                    if let Some(e) = e {
                        self.expr(e)?;
                        self.emit(Op::Pop, e.line);
                    }
                    self.emit(Op::Halt, 0);
                } else {
                    match e {
                        Some(e) => {
                            self.expr(e)?;
                            self.emit(Op::Return, e.line);
                        }
                        None => self.emit(Op::ReturnNull, self.fn_line),
                    }
                }
            }
            Stmt::Break => {
                if !self.loops.is_empty() {
                    let at = self.emit_patch(Op::Jump(0), 0);
                    self.loops.last_mut().expect("loop context").breaks.push(at);
                } else if self.top_level {
                    self.emit(Op::Halt, 0);
                } else {
                    self.emit(Op::LooseBreak, self.fn_line);
                }
            }
            Stmt::Continue => {
                if let Some(ctx) = self.loops.last() {
                    let target = ctx.continue_to as u32;
                    self.emit(Op::Jump(target), 0);
                } else if self.top_level {
                    self.emit(Op::Halt, 0);
                } else {
                    self.emit(Op::LooseBreak, self.fn_line);
                }
            }
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<(), ScriptError> {
        let line = e.line;
        match &e.kind {
            ExprKind::Null => self.emit(Op::PushNull, line),
            ExprKind::Bool(true) => self.emit(Op::PushTrue, line),
            ExprKind::Bool(false) => self.emit(Op::PushFalse, line),
            ExprKind::Num(n) => {
                let c = self.shared.const_num(*n)?;
                self.emit(Op::Const(c), line);
            }
            ExprKind::Str(s) => {
                let c = self.shared.const_str(s)?;
                self.emit(Op::Const(c), line);
            }
            ExprKind::Array(items) => {
                for it in items {
                    self.expr(it)?;
                }
                let n = u16::try_from(items.len()).map_err(|_| limits("array elements"))?;
                self.emit(Op::MakeArray(n), line);
            }
            ExprKind::Var(name) => self.emit_load(name, line)?,
            ExprKind::Unary { op, expr } => {
                self.expr(expr)?;
                let op = match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                };
                self.emit(op, line);
            }
            ExprKind::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                self.expr(lhs)?;
                let at = self.emit_patch(Op::AndCircuit(0), line);
                self.expr(rhs)?;
                self.emit(Op::Truthy, line);
                self.patch(at);
            }
            ExprKind::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } => {
                self.expr(lhs)?;
                let at = self.emit_patch(Op::OrCircuit(0), line);
                self.expr(rhs)?;
                self.emit(Op::Truthy, line);
                self.patch(at);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.expr(lhs)?;
                self.expr(rhs)?;
                let op = match *op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Rem => Op::Rem,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                };
                self.emit(op, line);
            }
            ExprKind::Index { target, index } => {
                self.expr(target)?;
                self.expr(index)?;
                self.emit(Op::IndexGet, line);
            }
            ExprKind::Field { target, field } => {
                self.expr(target)?;
                let nm = self.shared.intern(field)?;
                self.emit(Op::FieldGet { name: nm }, line);
            }
            ExprKind::Range { .. } => self.emit(Op::RangeOutsideFor, line),
            ExprKind::Call { name, args } => {
                for a in args {
                    self.expr(a)?;
                }
                let argc = u8::try_from(args.len()).map_err(|_| {
                    ScriptError::runtime(format!("call to '{name}' has too many arguments"), line)
                })?;
                // User functions win name clashes with builtins — the same
                // rule the tree-walk applies at call time.
                if let Some(&func) = self.shared.fn_index.get(name) {
                    self.emit(Op::CallFn { func, argc }, line);
                } else if let Some(builtin) = Builtin::lookup(name) {
                    self.emit(Op::CallBuiltin { builtin, argc }, line);
                } else {
                    let nm = self.shared.intern(name)?;
                    self.emit(Op::CallUnknown { name: nm }, line);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::compile;

    fn resolved(src: &str) -> CompiledScript {
        compile_program(&compile(src).unwrap()).unwrap()
    }

    #[test]
    fn top_level_binders_become_globals() {
        let c = resolved("let cut = 30.0; threshold = 2; for i in 0..3 { }");
        assert_eq!(c.globals, vec!["cut", "threshold", "i"]);
        assert_eq!(c.promote.len(), 3);
        // Top-level named slots map one-to-one onto global slots.
        for &(l, g) in &c.promote {
            assert_eq!(l, g);
        }
    }

    #[test]
    fn calls_resolve_at_compile_time() {
        let c =
            resolved("fn sqrt(x) { return x; }\nfn process(e) { sqrt(1); abs(2); nothing(3); }");
        let proc_idx = c.fn_index["process"] as usize;
        let code = &c.protos[proc_idx].code;
        // User function shadows the builtin.
        assert!(code
            .iter()
            .any(|op| matches!(op, Op::CallFn { func, .. } if *func == c.fn_index["sqrt"])));
        assert!(code.iter().any(|op| matches!(
            op,
            Op::CallBuiltin {
                builtin: Builtin::Abs,
                ..
            }
        )));
        // Unknown callees still compile — they error lazily at runtime.
        assert!(code.iter().any(|op| matches!(op, Op::CallUnknown { .. })));
    }

    #[test]
    fn unknown_variables_compile_to_lazy_error_ops() {
        let c = resolved("fn f() { return nope; }");
        let code = &c.protos[c.fn_index["f"] as usize].code;
        assert!(code.iter().any(|op| matches!(op, Op::LoadUndef { .. })));
    }

    #[test]
    fn jumps_are_patched_in_bounds() {
        let c = resolved(
            "fn f(n) {\n  let t = 0;\n  for i in 0..n {\n    if i % 2 == 0 { continue; }\n    if i > 10 { break; }\n    t = t + i;\n  }\n  while t > 0 { t = t - 1; }\n  return t;\n}",
        );
        let proto = &c.protos[c.fn_index["f"] as usize];
        assert_eq!(proto.code.len(), proto.lines.len());
        for op in &proto.code {
            let target = match op {
                Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndCircuit(t) | Op::OrCircuit(t) => *t,
                Op::IterNext { done, .. } => *done,
                _ => continue,
            };
            assert!(
                (target as usize) < proto.code.len(),
                "target {target} in bounds"
            );
        }
    }

    #[test]
    fn duplicate_params_share_a_slot() {
        let c = resolved("fn f(a, a) { return a; }");
        let proto = &c.protos[c.fn_index["f"] as usize];
        assert_eq!(proto.params.len(), 2);
        assert_eq!(proto.params[0], proto.params[1]);
    }

    #[test]
    fn constants_are_deduplicated() {
        let c = resolved("fn f() { return 1 + 1 + 1; }");
        let ones = c
            .consts
            .iter()
            .filter(|v| matches!(v, Value::Num(n) if *n == 1.0))
            .count();
        assert_eq!(ones, 1);
    }
}
