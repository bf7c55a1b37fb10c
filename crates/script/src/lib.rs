//! `ipa-script` — IPAScript, the analysis scripting language.
//!
//! The paper's reference implementation ships user analysis code to the grid
//! as Java classes or [PNUTS] scripts, reloaded on the fly between runs
//! (§3.5, §3.6). IPAScript is the Rust equivalent: a small, dynamically
//! typed language compiled to an AST and executed by each analysis
//! engine. A script defines up to three entry points:
//!
//! ```text
//! fn init() { h1("/higgs/mass", 60, 0.0, 240.0); }      // book plots
//! fn process(event) {                                    // per record
//!     let m = event.bb_mass;
//!     if m != null { fill("/higgs/mass", m); }
//! }
//! fn end() { log("done"); }                              // after last record
//! ```
//!
//! Scripts interact with the outside world only through the [`Host`]
//! interface (histogram booking/filling, logging), which the engine backs
//! with an AIDA [`ipa_aida::Tree`] — exactly the paper's AIDA pattern.
//! Execution is *fuel-limited*: a runaway loop in user code aborts with
//! [`ScriptError::OutOfFuel`] instead of wedging an engine, a requirement
//! for an interactive service that executes untrusted code.
//!
//! Two backends execute the same AST behind the [`ScriptEngine`] trait:
//!
//! - [`vm::Vm`] (default): a compile-to-bytecode stack VM. Names resolve
//!   to flat slots at compile time ([`resolve::compile_program`]), so the
//!   per-record hot path never hashes a string.
//! - [`Interpreter`]: the original tree-walk, retained as the semantic
//!   oracle for differential testing and selectable via
//!   [`ScriptBackend::Interp`] / `IPA_SCRIPT_BACKEND=interp`.
//!
//! Language summary: `let`, assignment, `if`/`else`, `while`, `for x in
//! a..b`, `fn`, `return`, `break`, `continue`; values are null, booleans,
//! 64-bit floats, strings, and arrays; operators `+ - * / %`,
//! comparisons, `&& || !`, indexing, calls, and `record.field` access.
//!
//! [PNUTS]: https://en.wikipedia.org/wiki/Pnuts

#![warn(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod error;
pub mod fuse;
pub mod interp;
pub mod kernel;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod stdlib;
pub mod value;
pub mod vm;

pub use ast::Program;
pub use error::ScriptError;
pub use interp::{AidaHost, Host, Interpreter, NullHost, DEFAULT_FUEL};
pub use kernel::{run_fused, BatchKernel};
pub use parser::compile;
pub use stdlib::Builtin;
pub use value::{RecordRef, Value};
pub use vm::Vm;

/// Which execution backend runs IPAScript.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ScriptBackend {
    /// The original AST tree-walk ([`Interpreter`]) — the semantic oracle.
    Interp,
    /// The bytecode VM ([`vm::Vm`]) — compile-time name resolution, flat
    /// slot frames, and a dense dispatch loop. The default.
    #[default]
    Vm,
}

impl ScriptBackend {
    /// Read the backend from `IPA_SCRIPT_BACKEND` (`interp`/`vm`),
    /// defaulting to [`ScriptBackend::Vm`] when unset or unrecognized.
    pub fn from_env() -> Self {
        match std::env::var("IPA_SCRIPT_BACKEND") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "interp" | "interpreter" | "ast" | "tree" => ScriptBackend::Interp,
                "vm" | "bytecode" => ScriptBackend::Vm,
                _ => ScriptBackend::default(),
            },
            Err(_) => ScriptBackend::default(),
        }
    }
}

impl std::fmt::Display for ScriptBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptBackend::Interp => write!(f, "interp"),
            ScriptBackend::Vm => write!(f, "vm"),
        }
    }
}

/// How aggressively the bytecode pipeline fuses ops. The tree-walk
/// interpreter ignores this knob; the unfused VM (`Off`) and the
/// interpreter stay available as differential oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ScriptFusion {
    /// No fusion: the exact per-op bytecode stream the resolver emits.
    Off,
    /// Peephole superinstructions only ([`fuse::fuse`]): dominant multi-op
    /// patterns collapse into one dispatch, fuel charged per dispatch.
    Super,
    /// Superinstructions plus the [`BatchKernel`]: eligible `process`
    /// bodies execute vectorized over `ColumnBatch` slices, falling back
    /// to the per-record VM loop otherwise. The default.
    #[default]
    Kernel,
}

impl ScriptFusion {
    /// Read the fusion level from `IPA_SCRIPT_FUSION` (`off`/`super`/
    /// `kernel`), defaulting to [`ScriptFusion::Kernel`] when unset or
    /// unrecognized.
    pub fn from_env() -> Self {
        match std::env::var("IPA_SCRIPT_FUSION") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "off" | "none" => ScriptFusion::Off,
                "super" | "superinstruction" | "peephole" => ScriptFusion::Super,
                "kernel" | "batch" => ScriptFusion::Kernel,
                _ => ScriptFusion::default(),
            },
            Err(_) => ScriptFusion::default(),
        }
    }
}

impl std::fmt::Display for ScriptFusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptFusion::Off => write!(f, "off"),
            ScriptFusion::Super => write!(f, "super"),
            ScriptFusion::Kernel => write!(f, "kernel"),
        }
    }
}

/// A running script: either backend, same observable behavior. The engine
/// holds one per analysis and drives it through the standard lifecycle —
/// `run_init` once, `process` per record, `run_end` after the last one.
pub trait ScriptEngine: Send {
    /// Run top-level statements then `init()` if defined. Call once per run.
    fn run_init(&mut self, host: &mut dyn Host) -> Result<(), ScriptError>;
    /// Feed one record handle to `process(record)` — the per-event hot path.
    fn process(&mut self, host: &mut dyn Host, record: RecordRef) -> Result<(), ScriptError>;
    /// Run `end()` if defined. Call after the last record.
    fn run_end(&mut self, host: &mut dyn Host) -> Result<(), ScriptError>;
    /// Call a named user function with arguments (does not refill fuel).
    fn call(
        &mut self,
        name: &str,
        args: Vec<Value>,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError>;
    /// Read a global variable (inspection from tests/tools).
    fn global(&self, name: &str) -> Option<Value>;
    /// Override the per-entry-point fuel budget.
    fn set_fuel(&mut self, fuel: u64);
    /// Which backend this engine is.
    fn backend(&self) -> ScriptBackend;
    /// Offer a columnar transcode of the part about to stream through
    /// `process` — `records` is the row batch the upcoming
    /// `RecordRef::Batch` handles point into, `columns` its transcode.
    /// Backends that cannot exploit columns ignore the call (the default);
    /// the bytecode VM resolves field names to column indices once here.
    fn bind_columns(
        &mut self,
        records: &ipa_dataset::RecordBatch,
        columns: &std::sync::Arc<ipa_dataset::ColumnBatch>,
    ) {
        let _ = (records, columns);
    }
    /// Drop any column binding (row-path field reads resume).
    fn unbind_columns(&mut self) {}
    /// The per-entry-point fuel budget currently in force. The batch
    /// kernel uses this to prove fuel exhaustion is unobservable before
    /// skipping per-op accounting.
    fn fuel_budget(&self) -> u64 {
        DEFAULT_FUEL
    }
}

/// Build a script engine for `program` using the requested backend and
/// fusion level.
///
/// Compilation to bytecode can fail only on pathological inputs (more than
/// 65 535 constants, identifiers, or functions); the tree-walk never fails
/// to construct. Fusion applies to the VM only: `Super` and `Kernel` run
/// the [`fuse`] peephole pass over the compiled code (the kernel itself is
/// constructed by the caller via [`BatchKernel::compile`]); `Off` leaves
/// the resolver's op stream untouched.
pub fn engine_for(
    program: &Program,
    backend: ScriptBackend,
    fusion: ScriptFusion,
) -> Result<Box<dyn ScriptEngine>, ScriptError> {
    match backend {
        ScriptBackend::Interp => Ok(Box::new(Interpreter::new(program))),
        ScriptBackend::Vm => {
            let mut compiled = resolve::compile_program(program)?;
            if fusion != ScriptFusion::Off {
                fuse::fuse(&mut compiled);
            }
            Ok(Box::new(Vm::new(compiled)))
        }
    }
}

/// Convenience: compile a script and run it against a host as an analysis —
/// `init()`, `process(record)` per record, then `end()`. Uses the backend
/// selected by `IPA_SCRIPT_BACKEND` (default: the bytecode VM) and the
/// fusion level from `IPA_SCRIPT_FUSION`.
pub fn run_analysis(
    source: &str,
    records: &[ipa_dataset::AnyRecord],
    host: &mut dyn Host,
) -> Result<(), ScriptError> {
    let program = compile(source)?;
    let mut engine = engine_for(
        &program,
        ScriptBackend::from_env(),
        ScriptFusion::from_env(),
    )?;
    engine.run_init(host)?;
    for r in records {
        engine.process(host, RecordRef::one(std::sync::Arc::new(r.clone())))?;
    }
    engine.run_end(host)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_the_vm() {
        assert_eq!(ScriptBackend::default(), ScriptBackend::Vm);
        assert_eq!(ScriptBackend::Vm.to_string(), "vm");
        assert_eq!(ScriptBackend::Interp.to_string(), "interp");
    }

    #[test]
    fn default_fusion_is_the_kernel() {
        assert_eq!(ScriptFusion::default(), ScriptFusion::Kernel);
        assert_eq!(ScriptFusion::Off.to_string(), "off");
        assert_eq!(ScriptFusion::Super.to_string(), "super");
        assert_eq!(ScriptFusion::Kernel.to_string(), "kernel");
    }

    #[test]
    fn fusion_serde_round_trips() {
        for f in [ScriptFusion::Off, ScriptFusion::Super, ScriptFusion::Kernel] {
            let json = serde_json::to_string(&f).unwrap();
            assert_eq!(json, format!("\"{f}\""));
            assert_eq!(serde_json::from_str::<ScriptFusion>(&json).unwrap(), f);
        }
    }

    #[test]
    fn engine_for_builds_both_backends() {
        let p = compile("fn process(e) { }").unwrap();
        let interp = engine_for(&p, ScriptBackend::Interp, ScriptFusion::Off).unwrap();
        let vm = engine_for(&p, ScriptBackend::Vm, ScriptFusion::Kernel).unwrap();
        assert_eq!(interp.backend(), ScriptBackend::Interp);
        assert_eq!(vm.backend(), ScriptBackend::Vm);
    }
}
