//! Compact IPAScript bytecode: the dense [`Op`] enum and the compiled
//! containers produced by [`crate::resolve`] and executed by
//! [`crate::vm::Vm`].
//!
//! Design notes:
//! - **Stack machine, slot-addressed names.** Operands flow through one
//!   value stack; variables live in flat slots resolved at compile time
//!   (a call's slots are a window of the VM's locals stack), so the hot
//!   loop never hashes a name.
//! - **Dynamic-binding fidelity.** IPAScript resolves names at *use* time
//!   (local first, then global, and unknown names only error when
//!   executed). Slots therefore hold `Option<Value>` — `None` means "this
//!   binder exists somewhere in the function but is not bound yet" — and
//!   names visible both locally and globally compile to `*Either` ops that
//!   re-check boundness at runtime, exactly like the tree-walk's
//!   `locals.get(name).or_else(|| globals.get(name))`.
//! - **Lines ride in a parallel table.** `lines[pc]` gives the source line
//!   for the op at `pc`, keeping `Op` small and `Copy`.

use std::collections::HashMap;

use crate::ast::BinOp;
use crate::stdlib::Builtin;
use crate::value::Value;

/// One VM instruction. Jump targets are absolute instruction indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push constant `consts[idx]`.
    Const(u16),
    /// Push `null`.
    PushNull,
    /// Push `true`.
    PushTrue,
    /// Push `false`.
    PushFalse,
    /// Discard the top of the stack (expression statements).
    Pop,
    /// Push a local slot; error "unknown variable" if unbound.
    LoadLocal {
        /// Local slot.
        slot: u16,
        /// Interned name (diagnostics).
        name: u16,
    },
    /// Push a global slot; error "unknown variable" if unbound.
    LoadGlobal {
        /// Global slot.
        slot: u16,
        /// Interned name (diagnostics).
        name: u16,
    },
    /// Push the local slot if bound, else the global slot if bound, else
    /// error — dynamic local-then-global resolution.
    LoadEither {
        /// Local slot.
        local: u16,
        /// Global slot.
        global: u16,
        /// Interned name (diagnostics).
        name: u16,
    },
    /// A name with no binder anywhere: always "unknown variable" — but
    /// only when executed (lazy, like the tree-walk).
    LoadUndef {
        /// Interned name.
        name: u16,
    },
    /// Pop into a local slot (binds it).
    StoreLocal {
        /// Local slot.
        slot: u16,
    },
    /// Pop into the local slot if bound, else the global slot if bound,
    /// else bind the local slot (implicit creation in the current scope).
    StoreEither {
        /// Local slot.
        local: u16,
        /// Global slot.
        global: u16,
    },
    /// `name[i] = v` where `name` has only a local binder. Stack: … v i →
    IndexSetLocal {
        /// Local slot.
        slot: u16,
        /// Interned name (diagnostics).
        name: u16,
    },
    /// `name[i] = v` where `name` has only a global binder.
    IndexSetGlobal {
        /// Global slot.
        slot: u16,
        /// Interned name (diagnostics).
        name: u16,
    },
    /// `name[i] = v` with both binders: local if bound, else global if
    /// bound, else "unknown variable" (index assignment never binds).
    IndexSetEither {
        /// Local slot.
        local: u16,
        /// Global slot.
        global: u16,
        /// Interned name (diagnostics).
        name: u16,
    },
    /// `name[i] = v` with no binder anywhere: always "unknown variable".
    IndexSetUndef {
        /// Interned name.
        name: u16,
    },
    /// Binary `+` (numeric add or string concat). Stack: … l r → … v
    Add,
    /// Binary `-`.
    Sub,
    /// Binary `*`.
    Mul,
    /// Binary `/`.
    Div,
    /// Binary `%`.
    Rem,
    /// Binary `==`.
    Eq,
    /// Binary `!=`.
    Ne,
    /// Binary `<`.
    Lt,
    /// Binary `<=`.
    Le,
    /// Binary `>`.
    Gt,
    /// Binary `>=`.
    Ge,
    /// Unary negation.
    Neg,
    /// Logical not.
    Not,
    /// Replace the top of the stack with its truthiness as a Bool.
    Truthy,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// `&&`: pop the lhs; when falsy push `false` and jump past the rhs
    /// (the rhs evaluates next and is then collapsed by [`Op::Truthy`]).
    AndCircuit(u32),
    /// `||`: pop the lhs; when truthy push `true` and jump past the rhs.
    OrCircuit(u32),
    /// Pop `n` values into an array (first pushed = first element).
    MakeArray(u16),
    /// Index read. Stack: … target index → … value
    IndexGet,
    /// Record field read on the top of the stack.
    FieldGet {
        /// Interned field name.
        name: u16,
    },
    /// Validate the start bound of `for … in start..end` *before* the end
    /// bound is evaluated — the tree-walk converts the start eagerly, so
    /// the "range start must be numeric" error must win over any error in
    /// the end expression. The value stays put. Stack: … start → … start
    RangeStart,
    /// Set up `for … in start..end` in hidden slots `iter`/`idx`, charging
    /// one unit of fuel per element before the first iteration. An integer
    /// start within ±2⁵³ becomes a counter (`iter` holds the end bound,
    /// `idx` the next value): nothing is allocated, and a range that does
    /// not fit the remaining fuel is `OutOfFuel` here. Any other start
    /// (fractional, non-finite) materializes the array by repeated `+ 1`,
    /// exactly like the tree-walk. Stack: … start end → …
    RangeInit {
        /// Hidden slot holding the end bound (or the materialized array).
        iter: u16,
        /// Hidden slot holding the next value (or the array cursor).
        idx: u16,
    },
    /// A range expression outside `for … in`: always an error.
    RangeOutsideFor,
    /// Pop the iterable into hidden slot `iter` (must be an array) and
    /// reset hidden counter slot `idx`.
    IterInit {
        /// Hidden slot holding the array snapshot.
        iter: u16,
        /// Hidden slot holding the cursor.
        idx: u16,
    },
    /// Push the next element (of the array snapshot, or of the counter
    /// [`Op::RangeInit`] set up) and advance, or jump to `done` when
    /// exhausted. Burns one extra fuel per yielded element, matching the
    /// tree-walk's per-iteration burn.
    IterNext {
        /// Hidden slot holding the array snapshot.
        iter: u16,
        /// Hidden slot holding the cursor.
        idx: u16,
        /// Jump target when the iterator is exhausted.
        done: u32,
    },
    /// Call user function `protos[func]` with `argc` stacked arguments.
    CallFn {
        /// Function proto index.
        func: u16,
        /// Argument count at the call site.
        argc: u8,
    },
    /// Call a builtin resolved at compile time.
    CallBuiltin {
        /// Which builtin.
        builtin: Builtin,
        /// Argument count at the call site.
        argc: u8,
    },
    /// A call to a name that is neither a user function nor a builtin:
    /// evaluates its arguments, then errors "unknown function" (lazy).
    CallUnknown {
        /// Interned name.
        name: u16,
    },
    /// Return the top of the stack from the current function.
    Return,
    /// Return `null` (fall-off-the-end or bare `return;`).
    ReturnNull,
    /// Stop top-level execution (top-level `return`/`break`/`continue`
    /// halt the script body without error; globals still promote).
    Halt,
    /// `break`/`continue` outside any loop inside a function body: a
    /// runtime error attributed to the function's definition line.
    LooseBreak,

    // --- Superinstructions (emitted only by the `fuse` pass). Each one
    // replays the exact semantics of its constituent ops — same values,
    // same errors, same error lines (the fuse pass only fuses windows
    // whose ops share one source line) — but costs a single dispatch and
    // a single unit of fuel.
    /// `LoadLocal{slot} + FieldGet{field}`: read a field of a record held
    /// in a bound local without pushing the record itself.
    LocalFieldGet {
        /// Local slot holding the record.
        slot: u16,
        /// Interned variable name (diagnostics).
        name: u16,
        /// Interned field name.
        field: u16,
    },
    /// `LoadLocal{slot} + Const(cidx) + <binop>`: push
    /// `local <op> consts[cidx]`.
    LocalConstBin {
        /// Local slot of the left operand.
        slot: u16,
        /// Interned variable name (diagnostics).
        name: u16,
        /// Constant-pool index of the right operand.
        cidx: u16,
        /// The fused binary operator (never `And`/`Or`).
        op: BinOp,
    },
    /// `<cmp> + JumpIfFalse(target)`: pop two operands, compare, branch
    /// when the comparison is falsy without materializing the Bool.
    CmpJump {
        /// The fused comparison (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
    },
    /// `FieldGet{name} + Const(cidx) + <cmp> + JumpIfFalse(target)`: the
    /// canonical guard shape `if rec.field <cmp> k { … }`. Pops the
    /// record, compares its field against the constant, branches when
    /// falsy.
    FieldConstCmpJump {
        /// Interned field name.
        name: u16,
        /// Constant-pool index of the comparison operand.
        cidx: u16,
        /// The fused comparison (`Eq`/`Ne`/`Lt`/`Le`/`Gt`/`Ge`).
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
    },
}

/// A compiled function body (or the synthetic top-level body).
#[derive(Debug, Clone, Default)]
pub struct FnProto {
    /// Function name ("" for the top level).
    pub name: String,
    /// Local slot for each parameter position. Duplicate parameter names
    /// share a slot, so later arguments overwrite earlier ones — same as
    /// the tree-walk's map construction.
    pub params: Vec<u16>,
    /// Total local slots, including params and hidden loop slots.
    pub n_slots: u16,
    /// Instructions.
    pub code: Vec<Op>,
    /// Source line per instruction (parallel to `code`).
    pub lines: Vec<u32>,
    /// Source line of the definition (arity errors, loose break).
    pub line: u32,
}

/// A fully resolved script, ready for [`crate::vm::Vm`].
#[derive(Debug, Clone, Default)]
pub struct CompiledScript {
    /// Constant pool (numbers and strings, deduplicated).
    pub consts: Vec<Value>,
    /// Interned identifier names (for diagnostics).
    pub names: Vec<String>,
    /// User function bodies, indexed by [`Op::CallFn`].
    pub protos: Vec<FnProto>,
    /// Function name → proto index.
    pub fn_index: HashMap<String, u16>,
    /// The synthetic top-level body.
    pub top_level: FnProto,
    /// Global slot names (slot = position).
    pub globals: Vec<String>,
    /// After a successful top-level run, copy bound top-level local slot
    /// `.0` into global slot `.1` (the tree-walk's "promote locals").
    pub promote: Vec<(u16, u16)>,
}
